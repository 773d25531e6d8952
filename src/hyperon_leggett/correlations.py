"""Joint outcome statistics for entangled pairs: matrix path and closed forms.

The 4x4 matrix path is the oracle; the closed forms are the production path
used by scans and simulation.  Tests pin the two against each other at 1e-12.
"""

from __future__ import annotations

import numpy as np

from .povm import MeasurementParams, povm_element
from .quantum import (ATOL, TwoQubitState, _float_or_array, expectation, row_dot,
                      singlet_state, tensor, triplet_m0_state)

# Each pair state: its density matrix and the diagonal of its spin-correlation
# matrix C_ij = <sigma_i (x) sigma_j>, which is diagonal for both states.
PAIR_STATES = {"singlet": (singlet_state, (-1.0, -1.0, -1.0)),
               "triplet_m0": (triplet_m0_state, (1.0, 1.0, -1.0))}


def spin_correlation_diagonal(spin_state: str) -> np.ndarray:
    """Diagonal of the pair state's spin-correlation matrix C; refuses unknown states."""
    if spin_state not in PAIR_STATES:
        raise ValueError(f"unknown spin state {spin_state!r}; "
                         f"expected one of {tuple(PAIR_STATES)}")
    return np.array(PAIR_STATES[spin_state][1])


def pair_density_matrix(spin_state: str) -> TwoQubitState:
    spin_correlation_diagonal(spin_state)  # refuses an unknown state
    return PAIR_STATES[spin_state][0]()


def a_side_inversion(spin_state: str) -> np.ndarray:
    """Diagonal of F = C * C_xx for A-side directions: the identity for the singlet,
    the z flip for the triplet.  As C^2 = 1, a^T C b = C_xx * ((F a).b)."""
    c = spin_correlation_diagonal(spin_state)
    return c * c[0]


# Outcome labels, in the order of the two trailing axes of a joint table.
OUTCOMES = (1, -1)


def _check_joint_table(table: np.ndarray) -> np.ndarray:
    """Refuse a (..., 2, 2) joint table with an entry below -ATOL, or whose entries do
    not sum to 1 within ATOL; each message quotes the worst table."""
    entries = table.reshape(-1, 4)
    worst = entries[np.argmin(np.min(entries, axis=1))]
    if worst.min() < -ATOL:
        raise ValueError(f"negative joint probability: {tuple(worst.tolist())}")
    totals = np.sum(entries, axis=1)
    total = float(totals[np.argmax(np.abs(totals - 1.0))])  # a NaN total is the argmax
    if not abs(total - 1.0) <= ATOL:
        raise ValueError(f"joint probabilities sum to {total!r}, expected 1")
    return table


def joint_prob_matrix(state: TwoQubitState, pa: MeasurementParams, a,
                      pb: MeasurementParams, b) -> np.ndarray:
    """Joint table P(j, k), j and k in OUTCOMES, from the 4x4 path: <M_j(a) (x) M_k(b)>
    on the given state, of shape (..., 2, 2) over the broadcast leading axes."""
    m_a, m_b = (np.stack([povm_element(p, d, s) for s in OUTCOMES], axis=-3)
                for p, d in ((pa, a), (pb, b)))
    return _check_joint_table(expectation(state, tensor(m_a[..., :, None, :, :],
                                                        m_b[..., None, :, :, :])))


def correlation_via_operators(state: TwoQubitState, pa: MeasurementParams, a,
                              pb: MeasurementParams, b):
    """Correlation from the 4x4 path: <(M+ - M-)(a) (x) (M+ - M-)(b)>."""
    da = povm_element(pa, a, 1) - povm_element(pa, a, -1)
    db = povm_element(pb, b, 1) - povm_element(pb, b, -1)
    return expectation(state, tensor(da, db))


def joint_prob_singlet(pa: MeasurementParams, a, pb: MeasurementParams, b) -> np.ndarray:
    """Closed-form joint table for the singlet, of shape (..., 2, 2) with axes in
    OUTCOMES order: P(j, k) = ((1+j eta_a)(1+k eta_b) - jk alpha_a alpha_b a.b)/4.

    The minus sign on the a.b term carries the singlet's perfect
    anticorrelation (P(+1,+1) = 0 for sharp measurements along a common axis)
    and matches the matrix path above.
    """
    eta_a, alpha_a, eta_b, alpha_b, ab = (np.asarray(v)[..., None, None] for v in (
        pa.eta, pa.alpha, pb.eta, pb.alpha, row_dot(a, b)))
    j, k = np.array(OUTCOMES, dtype=float)[:, None], np.array(OUTCOMES, dtype=float)
    return _check_joint_table(0.25 * ((1.0 + j * eta_a) * (1.0 + k * eta_b)
                                      - j * k * alpha_a * alpha_b * ab))


def pair_correlation(spin_state: str, pa: MeasurementParams, a, pb: MeasurementParams, b):
    """Closed-form pair-state correlation eta_a*eta_b + C_xx*alpha_a*alpha_b*(a.b) at
    Directions or (..., 3) arrays a, b, with a already inverted by a_side_inversion; a
    float for single directions and params, else an array over their broadcast shape.

    Neither pair state has a one-body polarization, so the bias enters only as
    eta_a*eta_b, and C_xx is -1 for the singlet and +1 for triplet_m0: the same
    magnitude at the raw A direction, so every unbiased bound is identical; the
    relative sign is exposed as is.
    """
    c_xx = spin_correlation_diagonal(spin_state)[0]
    return _float_or_array(pa.eta * pb.eta + c_xx * pa.alpha * pb.alpha * row_dot(a, b))


def _closed_form_pairs(spin_state: str, pa: MeasurementParams, pb: MeasurementParams,
                       a: np.ndarray, b: np.ndarray, b_prime: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (E(a_i, b_i), E(a_i, b_i')) at (..., 3, 3) settings arrays, each of
    shape (..., 3); ``a`` is taken as inverted, as in catalog.channel_correlation.  The
    commands and check's settings-path identity call this one function."""
    return (pair_correlation(spin_state, pa, a, pb, b),
            pair_correlation(spin_state, pa, a, pb, b_prime))


def correlation_singlet(pa: MeasurementParams, a, pb: MeasurementParams, b):
    """Closed-form singlet correlation eta_a*eta_b - alpha_a*alpha_b*(a.b)."""
    return pair_correlation("singlet", pa, a, pb, b)


def correlation_triplet_m0(pa: MeasurementParams, a, pb: MeasurementParams, b):
    """Closed-form zero-projection-triplet correlation
    eta_a*eta_b + alpha_a*alpha_b*(a_x b_x + a_y b_y - a_z b_z); see pair_correlation."""
    return pair_correlation("triplet_m0", pa, a_side_inversion("triplet_m0") * a, pb, b)

"""Joint outcome statistics for entangled pairs: matrix path and closed forms.

The 4x4 matrix path is the oracle; the closed forms are the production path
used by scans and simulation.  Tests pin the two against each other at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .povm import MeasurementParams, povm_element
from .quantum import (ATOL, Direction, TwoQubitState, expectation, row_dot,
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


@dataclass(frozen=True)
class JointProbTable:
    """The four joint probabilities P(j,k) for outcomes j, k in {+1, -1}."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self) -> None:
        entries = (self.p_pp, self.p_pm, self.p_mp, self.p_mm)
        if min(entries) < -ATOL:
            raise ValueError(f"negative joint probability: {entries}")
        total = sum(entries)
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"joint probabilities sum to {total!r}, expected 1")

    def value(self, j: int, k: int) -> float:
        table = {(1, 1): self.p_pp, (1, -1): self.p_pm,
                 (-1, 1): self.p_mp, (-1, -1): self.p_mm}
        try:
            return table[(j, k)]
        except KeyError:
            raise ValueError(f"outcomes must be +1 or -1, got ({j!r}, {k!r})") from None

    def marginal_a(self, j: int) -> float:
        return self.value(j, 1) + self.value(j, -1)

    def marginal_b(self, k: int) -> float:
        return self.value(1, k) + self.value(-1, k)

    def correlation(self) -> float:
        return self.p_pp - self.p_pm - self.p_mp + self.p_mm


def joint_prob_matrix(state: TwoQubitState, pa: MeasurementParams, a: Direction,
                      pb: MeasurementParams, b: Direction) -> JointProbTable:
    """Joint table from the 4x4 path: <M_j(a) (x) M_k(b)> on the given state."""
    def entry(j: int, k: int) -> float:
        return expectation(state, tensor(povm_element(pa, a, j), povm_element(pb, b, k)))
    return JointProbTable(p_pp=entry(1, 1), p_pm=entry(1, -1),
                          p_mp=entry(-1, 1), p_mm=entry(-1, -1))


def correlation_via_operators(state: TwoQubitState, pa: MeasurementParams, a: Direction,
                              pb: MeasurementParams, b: Direction) -> float:
    """Correlation from the 4x4 path: <(M+ - M-)(a) (x) (M+ - M-)(b)>."""
    da = povm_element(pa, a, 1) - povm_element(pa, a, -1)
    db = povm_element(pb, b, 1) - povm_element(pb, b, -1)
    return expectation(state, tensor(da, db))


def joint_prob_singlet(pa: MeasurementParams, a: Direction,
                       pb: MeasurementParams, b: Direction) -> JointProbTable:
    """Closed-form joint table for the singlet: ((1+j eta_a)(1+k eta_b) - jk alpha_a alpha_b a.b)/4.

    The minus sign on the a.b term carries the singlet's perfect
    anticorrelation (P(+1,+1) = 0 for sharp measurements along a common axis)
    and matches the matrix path above.
    """
    ab = a.dot(b)

    def entry(j: int, k: int) -> float:
        return 0.25 * ((1.0 + j * pa.eta) * (1.0 + k * pb.eta)
                       - j * k * pa.alpha * pb.alpha * ab)
    return JointProbTable(p_pp=entry(1, 1), p_pm=entry(1, -1),
                          p_mp=entry(-1, 1), p_mm=entry(-1, -1))


def pair_correlation(spin_state: str, pa: MeasurementParams, a, pb: MeasurementParams, b):
    """Closed-form pair-state correlation C_xx*alpha_a*alpha_b*(a.b) at (..., 3)
    direction arrays a, b, with a already inverted by a_side_inversion.

    singlet: eta_a*eta_b - alpha_a*alpha_b*(a.b).  triplet_m0 (unbiased only):
    +alpha_a*alpha_b*(a.b), i.e. alpha_a*alpha_b*(a_x b_x + a_y b_y - a_z b_z)
    at the raw A direction: the same magnitude, so every bound is identical;
    the relative sign is exposed as is.
    """
    c_xx = spin_correlation_diagonal(spin_state)[0]
    a_dot_b = row_dot(a, b)
    if spin_state == "singlet":
        return pa.eta * pb.eta + c_xx * pa.alpha * pb.alpha * a_dot_b
    if pa.eta != 0.0 or pb.eta != 0.0:
        raise ValueError("triplet correlation is defined for unbiased measurements only")
    return c_xx * pa.alpha * pb.alpha * a_dot_b


def correlation_singlet(pa: MeasurementParams, a: Direction,
                        pb: MeasurementParams, b: Direction) -> float:
    """Closed-form singlet correlation eta_a*eta_b - alpha_a*alpha_b*(a.b)."""
    return float(pair_correlation("singlet", pa, a.as_array(), pb, b.as_array()))


def correlation_triplet_m0(pa: MeasurementParams, a: Direction,
                           pb: MeasurementParams, b: Direction) -> float:
    """Closed-form zero-projection-triplet correlation for unbiased measurements,
    alpha_a*alpha_b*(a_x b_x + a_y b_y - a_z b_z); see pair_correlation."""
    a_inverted = a_side_inversion("triplet_m0") * a.as_array()
    return float(pair_correlation("triplet_m0", pa, a_inverted, pb, b.as_array()))


def parity_flip_z(d: Direction) -> Direction:
    """Invert the z component: (x, y, z) -> (x, y, -z).  An involution."""
    return Direction(d.x, d.y, -d.z)

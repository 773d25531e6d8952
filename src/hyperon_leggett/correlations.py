"""Joint outcome statistics for entangled pairs: matrix path and closed forms.

The 4x4 matrix path is the oracle; the closed forms are the production path
used by scans and simulation.  Tests pin the two against each other at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

from .povm import MeasurementParams, povm_element
from .quantum import ATOL, Direction, TwoQubitState, expectation, tensor


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

    def as_dict(self) -> dict[str, float]:
        return {"p_pp": self.p_pp, "p_pm": self.p_pm,
                "p_mp": self.p_mp, "p_mm": self.p_mm}


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
    """Closed-form pair-state correlation at (..., 3) direction arrays a, b.

    singlet: eta_a*eta_b - alpha_a*alpha_b*(a.b).  triplet_m0 (unbiased only):
    alpha_a*alpha_b*(a_x b_x + a_y b_y - a_z b_z) at the A direction inverted
    along z, i.e. +alpha_a*alpha_b*(a.b): the same magnitude, so every bound is
    identical; the relative sign is exposed as is.  The dot product is written
    out because a matrix product differs from the scalar one in the last bit.
    """
    a_dot_b = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]
    if spin_state == "singlet":
        return pa.eta * pb.eta - pa.alpha * pb.alpha * a_dot_b
    if pa.eta != 0.0 or pb.eta != 0.0:
        raise ValueError("triplet correlation is defined for unbiased measurements only")
    return pa.alpha * pb.alpha * a_dot_b


def correlation_singlet(pa: MeasurementParams, a: Direction,
                        pb: MeasurementParams, b: Direction) -> float:
    """Closed-form singlet correlation eta_a*eta_b - alpha_a*alpha_b*(a.b)."""
    return float(pair_correlation("singlet", pa, a.as_array(), pb, b.as_array()))


def correlation_triplet_m0(pa: MeasurementParams, a: Direction,
                           pb: MeasurementParams, b: Direction) -> float:
    """Closed-form zero-projection-triplet correlation for unbiased measurements,
    alpha_a*alpha_b*(a_x b_x + a_y b_y - a_z b_z); see pair_correlation."""
    return float(pair_correlation("triplet_m0", pa, parity_flip_z(a).as_array(),
                                  pb, b.as_array()))


def parity_flip_z(d: Direction) -> Direction:
    """Invert the z component: (x, y, z) -> (x, y, -z).  An involution."""
    return Direction(d.x, d.y, -d.z)

"""Bounds on realistic models under biased/unsharp measurements, and their evaluators.

Three bounds are implemented:

* a joint-probability (CH-type) bound for local realism,
* a correlation-function (CHSH-type) bound for local realism,
* a triple-settings bound for nonlocal realism (Leggett-type), in a sum form
  and a difference form.

Evaluators take raw probability/correlation numbers rather than states, so
the same code path serves closed forms, the 4x4 matrix oracle, and Monte
Carlo estimates.  A violation is strict: margin > 0, no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .geometry import TripleSettings, validate_flipped_settings
from .povm import MeasurementParams, _check_outcome
from .quantum import _float_or_array

EPairs = Sequence[tuple[float, float]]


@dataclass(frozen=True)
class InequalityReport:
    """Result of one bound evaluation, with the inputs echoed for reproducibility."""

    name: str
    lhs: float
    bound: float
    settings_used: str
    inputs: dict[str, Any] = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.lhs - self.bound

    @property
    def violated(self) -> bool:
        return self.margin > 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "bound": self.bound,
            "margin": self.margin,
            "violated": self.violated,
            "settings_used": self.settings_used,
            "inputs": self.inputs,
        }


def _check_range(name: str, x: float, low: float, kind: str) -> None:
    """Refuse x outside [low, 1] by more than 1e-12, or NaN: a probability has low
    0, a correlation -1."""
    if not low - 1e-12 <= x <= 1.0 + 1e-12:
        raise ValueError(f"{name} = {x!r} is not a {kind}")


def ch_povm_lhs(p_ab: float, p_abp: float, p_apb: float, p_apbp: float,
                marginal_a_prime: float, marginal_b: float,
                pa: MeasurementParams, pb: MeasurementParams,
                j: int, k: int) -> InequalityReport:
    """Joint-probability bound for local realism; bound is 0.

    Inputs are the joint probabilities P_jk at the four setting pairs
    (a,b), (a,b'), (a',b), (a',b'), plus the single-side marginals P_j(a')
    and P_k(b), for one fixed outcome pair (j, k).
    """
    _check_outcome("j", j)
    _check_outcome("k", k)
    for name, p in (("p_ab", p_ab), ("p_abp", p_abp), ("p_apb", p_apb),
                    ("p_apbp", p_apbp), ("marginal_a_prime", marginal_a_prime),
                    ("marginal_b", marginal_b)):
        _check_range(name, p, 0.0, "probability")
    lhs = (p_ab - p_abp + p_apb + p_apbp
           - (1.0 + k * pb.eta) * marginal_a_prime
           - (1.0 + j * pa.eta) * marginal_b
           + 0.5 * ((1.0 + j * pa.eta) * (1.0 + k * pb.eta) - abs(pa.alpha * pb.alpha)))
    return InequalityReport(
        name="ch_povm", lhs=lhs, bound=0.0, settings_used="",
        inputs={"p_ab": p_ab, "p_abp": p_abp, "p_apb": p_apb, "p_apbp": p_apbp,
                "marginal_a_prime": marginal_a_prime, "marginal_b": marginal_b,
                "eta_a": pa.eta, "alpha_a": pa.alpha,
                "eta_b": pb.eta, "alpha_b": pb.alpha, "j": j, "k": k})


def chsh_povm(e_ab: float, e_abp: float, e_apb: float, e_apbp: float,
              pa: MeasurementParams, pb: MeasurementParams) -> InequalityReport:
    """Correlation-function bound for local realism.

    lhs = |E(a,b) - E(a,b') + E(a',b) + E(a',b')|,
    bound = 2 (|eta_a| + |alpha_a|) (|eta_b| + |alpha_b|).
    """
    for name, e in (("e_ab", e_ab), ("e_abp", e_abp), ("e_apb", e_apb), ("e_apbp", e_apbp)):
        _check_range(name, e, -1.0, "correlation")
    lhs = abs(e_ab - e_abp + e_apb + e_apbp)
    bound = 2.0 * (abs(pa.eta) + abs(pa.alpha)) * (abs(pb.eta) + abs(pb.alpha))
    return InequalityReport(
        name="chsh_povm", lhs=lhs, bound=bound, settings_used="",
        inputs={"e_ab": e_ab, "e_abp": e_abp, "e_apb": e_apb, "e_apbp": e_apbp,
                "eta_a": pa.eta, "alpha_a": pa.alpha,
                "eta_b": pb.eta, "alpha_b": pb.alpha})


def _check_e_pairs(e_pairs: EPairs) -> tuple[tuple[float, float], ...]:
    pairs = tuple((float(e), float(ep)) for e, ep in e_pairs)
    if len(pairs) != 3:
        raise ValueError(f"need exactly three (E_i, E_i') pairs, got {len(pairs)}")
    for i, (e, ep) in enumerate(pairs, start=1):
        _check_range(f"E_{i}", e, -1.0, "correlation")
        _check_range(f"E_{i}'", ep, -1.0, "correlation")
    return pairs


def leggett_sum_lhs(settings: TripleSettings, e_pairs: EPairs,
                    alpha_b: float) -> InequalityReport:
    """Sum-form nonlocal-realism bound on the triple-measurement layout.

    lhs = (1/3) sum_i |E(a_i,b_i) + E(a_i,b_i')| + (2|alpha_b|/3)|sin(phi/2)|,
    bound = 2.  ``settings`` with any ``violations`` are refused.
    """
    if settings.violations:
        raise ValueError("invalid triple settings: " + "; ".join(settings.violations))
    pairs = _check_e_pairs(e_pairs)
    lhs = leggett_sum_value([e + ep for e, ep in pairs], alpha_b, settings.phi)
    return InequalityReport(
        name="leggett_sum", lhs=lhs, bound=2.0,
        settings_used=f"triple settings, phi={settings.phi!r} rad",
        inputs={"e_pairs": [list(p) for p in pairs], "alpha_b": alpha_b,
                "phi": settings.phi})


def leggett_sum_value(pair_sums, alpha_b: float, phi, half_angle=np.sin):
    """(|S_1| + |S_2| + |S_3|)/3 + (2|alpha_b|/3)|sin(phi/2)| over pair sums
    S_i = E(a_i,b_i) + E(a_i,b_i') of shape (..., 3), phi broadcasting against (...);
    leggett_diff_value takes cos for ``half_angle``."""
    s = np.abs(pair_sums)
    return _float_or_array(((s[..., 0] + s[..., 1]) + s[..., 2]) / 3.0 + (
        (2.0 * abs(alpha_b) / 3.0) * np.abs(half_angle(0.5 * np.asarray(phi)))))


def leggett_diff_value(pair_diffs, alpha_b: float, phi):
    """(|D_1| + |D_2| + |D_3|)/3 + (2|alpha_b|/3)|cos(phi/2)| over pair differences
    D_i = E(a_i,b_i) - E(a_i,b_i') of shape (..., 3), phi broadcasting against (...)."""
    return leggett_sum_value(pair_diffs, alpha_b, phi, np.cos)


def leggett_diff_lhs(settings: TripleSettings, e_pairs: EPairs,
                     alpha_b: float) -> InequalityReport:
    """Difference-form nonlocal-realism bound, valid for unbiased B-side only
    (eta_b = 0): pass correlations measured without a B-side bias.

    Takes the flipped layout produced by flip_b_prime (sum vectors b_i + b_i'
    mutually orthogonal, |b_i + b_i'| = 2 cos(phi/2)).  The bound
    (1/3) sum_i |E_i - E_i'| <= 2 - (2|alpha_b|/3)|cos(phi/2)| is restated
    with the cosine term moved onto the left-hand side against bound 2.
    """
    violations = validate_flipped_settings(settings)
    if violations:
        raise ValueError("invalid flipped settings: " + "; ".join(violations))
    pairs = _check_e_pairs(e_pairs)
    lhs = leggett_diff_value([e - ep for e, ep in pairs], alpha_b, settings.phi)
    return InequalityReport(
        name="leggett_diff", lhs=lhs, bound=2.0,
        settings_used=f"flipped triple settings, phi={settings.phi!r} rad",
        inputs={"e_pairs": [list(p) for p in pairs], "alpha_b": alpha_b,
                "phi": settings.phi})


def leggett_violation_condition(alpha_a, alpha_b):
    """True iff the pair-state prediction can break the sum-form bound,
    (alpha_a^2 + 1/9) alpha_b^2 > 1, decided on the rounded lhs the commands print:
    leggett_max_lhs > 2.  Arrays give a mask."""
    return leggett_max_lhs(alpha_a, alpha_b) > 2.0


def symmetric_alpha_threshold() -> float:
    """Unsharpness above which a symmetric pair (|alpha_a| = |alpha_b|) violates
    the sum-form bound: the positive root of x^4 + x^2/9 = 1 (about 0.9726)."""
    alpha_sq = 0.5 * (math.sqrt(1.0 / 81.0 + 4.0) - 1.0 / 9.0)
    return math.sqrt(alpha_sq)


def optimal_phi(alpha_a: float) -> float:
    """Opening angle maximizing the pair-state sum-form left-hand side.

    The maximizer of 2|alpha_a alpha_b| cos(phi/2) + (2|alpha_b|/3) sin(phi/2)
    is phi* = 2 atan2(1/3, |alpha_a|); it depends on the A side only.  For
    alpha_a = 0 this degenerates to pi (pure sine term).
    """
    return 2.0 * math.atan2(1.0 / 3.0, abs(alpha_a))


def leggett_max_lhs(alpha_a, alpha_b):
    """Pair-state sum-form left-hand side at the optimal angle:
    2 |alpha_b| sqrt(alpha_a^2 + 1/9), elementwise over arrays."""
    return _float_or_array(2.0 * np.abs(alpha_b) * np.hypot(alpha_a, 1.0 / 3.0))


def leggett_sum_curve(phi, alpha_a: float, alpha_b: float):
    """Pair-state sum-form left-hand side as a function of phi (scalar or array):
    2|alpha_a alpha_b| |cos(phi/2)| + (2|alpha_b|/3) |sin(phi/2)|."""
    phi = np.asarray(phi, dtype=float)
    return _float_or_array(2.0 * abs(alpha_a * alpha_b) * np.abs(np.cos(0.5 * phi))
                           + (2.0 * abs(alpha_b) / 3.0) * np.abs(np.sin(0.5 * phi)))


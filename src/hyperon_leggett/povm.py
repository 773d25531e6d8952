"""Biased, unsharp two-outcome spin measurements and the weak-decay operators realizing them.

A measurement is parametrized by a bias ``eta`` and an unsharpness ``alpha``:
the operator for outcome ``s = +1`` or ``-1`` is ``((1 + s*eta) + s*alpha*sigma.n)/2``.
Sharp, unbiased measurement (``eta=0, |alpha|=1``) recovers the projective case;
``alpha=0`` carries no spin information at all.

A two-body weak decay acts as exactly such a measurement on the parent spin,
with ``eta = 0`` and ``alpha`` fixed by the interference of the s- and p-wave
decay amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import IDENTITY_2, Direction, is_density_matrix, pauli_dot

_PARAM_TOL = 1e-12


def _check_outcome(name: str, s: int) -> int:
    if s not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {s!r}")
    return s


@dataclass(frozen=True)
class MeasurementParams:
    """Bias eta and unsharpness alpha of one side's measurement.

    Validity requires |eta + alpha| <= 1 and |eta - alpha| <= 1, which is
    exactly the condition for both outcome operators to stay positive.
    Validation happens here, once, so the scan code can reuse a parameter
    object across millions of evaluations without rechecking.
    """

    eta: float
    alpha: float

    def __post_init__(self) -> None:
        if not (abs(self.eta + self.alpha) <= 1.0 + _PARAM_TOL
                and abs(self.eta - self.alpha) <= 1.0 + _PARAM_TOL):  # also refuses NaN
            raise ValueError(
                f"invalid measurement parameters eta={self.eta}, alpha={self.alpha}: "
                "need |eta + alpha| <= 1 and |eta - alpha| <= 1")

    @classmethod
    def sharp(cls) -> "MeasurementParams":
        return cls(0.0, 1.0)

    @classmethod
    def unsharp(cls, alpha: float) -> "MeasurementParams":
        """Unbiased measurement of the given unsharpness, e.g. a weak decay."""
        return cls(0.0, alpha)


def povm_element(params: MeasurementParams, n: Direction, outcome: int) -> np.ndarray:
    """Measurement operator ((1 + s*eta) + s*alpha*sigma.n)/2 for outcome s."""
    s = _check_outcome("outcome", outcome)
    return 0.5 * ((1.0 + s * params.eta) * IDENTITY_2 + s * params.alpha * pauli_dot(n))


def outcome_probability(state: np.ndarray, params: MeasurementParams,
                        n: Direction, outcome: int) -> float:
    """Probability of the given outcome when measuring a 2x2 density matrix along n."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (2, 2) or not is_density_matrix(state):
        raise ValueError("state must be a valid 2x2 density matrix")
    return float(np.real(np.trace(state @ povm_element(params, n, outcome))))


def mean_polarization(u: Direction, params: MeasurementParams, a: Direction) -> float:
    """Average outcome for a spin polarized along u, measured along a.

    Equals eta + alpha * (u.a): the generalized cosine law, reducing to the
    ideal-polarizer cosine law for a sharp unbiased measurement.
    """
    return params.eta + params.alpha * u.dot(a)


@dataclass(frozen=True)
class DecayAmplitudes:
    """s- and p-wave amplitudes of a two-body weak decay."""

    s_wave: complex
    p_wave: complex

    def __post_init__(self) -> None:
        if abs(self.s_wave) ** 2 + abs(self.p_wave) ** 2 <= 0.0:
            raise ValueError("decay amplitudes cannot both vanish")


def alpha_from_amplitudes(amps: DecayAmplitudes) -> float:
    """Decay asymmetry 2 Re(S* P) / (|S|^2 + |P|^2); always within [-1, 1]."""
    s, p = complex(amps.s_wave), complex(amps.p_wave)
    return 2.0 * (s.conjugate() * p).real / (abs(s) ** 2 + abs(p) ** 2)


def decay_kraus(amps: DecayAmplitudes, n: Direction, outcome: int) -> np.ndarray:
    """Kraus operator (S + P sigma.(s*n)) / sqrt(2(|S|^2+|P|^2)) of the decay.

    The two outcomes label whether the daughter baryon leaves along +n or -n.
    M(s)^dag M(s) equals the unbiased measurement element with unsharpness
    alpha_from_amplitudes(amps), and the pair is complete: the two products
    sum to the identity.
    """
    s = _check_outcome("outcome", outcome)
    s_w, p_w = complex(amps.s_wave), complex(amps.p_wave)
    norm = math.sqrt(2.0 * (abs(s_w) ** 2 + abs(p_w) ** 2))
    return (s_w * IDENTITY_2 + (s * p_w) * pauli_dot(n)) / norm

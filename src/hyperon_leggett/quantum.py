"""Exact complex linear algebra for one- and two-qubit spin operators.

Everything here is small and dense: 2x2 operators for a single spin-1/2 and
4x4 operators for a pair.  This module is the brute-force reference that the
closed-form predictions elsewhere in the package are checked against.

Conventions: |+> is spin-up along the lab z axis, and tensor products are
always ordered A (x) B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)

for _m in (*PAULI, IDENTITY_2, IDENTITY_4):
    _m.setflags(write=False)


@dataclass(frozen=True)
class Direction:
    """Unit vector in real 3-space: a measurement axis or a momentum direction."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        norm_sq = self.x * self.x + self.y * self.y + self.z * self.z
        if not abs(norm_sq - 1.0) <= ATOL:  # also refuses NaN
            raise ValueError(f"direction must be unit length, got |v|^2 = {norm_sq!r}")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "Direction":
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / norm, y / norm, z / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


def row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products of (..., 3) direction arrays, written out so each rounds like
    Direction.dot (a matrix product differs from it in the last bit)."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


X_AXIS = Direction(1.0, 0.0, 0.0)
Y_AXIS = Direction(0.0, 1.0, 0.0)
Z_AXIS = Direction(0.0, 0.0, 1.0)


def pauli_dot(d: Direction) -> np.ndarray:
    """sigma . d: Hermitian, traceless, eigenvalues +1 and -1."""
    return d.x * SIGMA_X + d.y * SIGMA_Y + d.z * SIGMA_Z


def spin_state(u: Direction) -> np.ndarray:
    """Rank-1 density matrix of a spin polarized along u: (1 + sigma.u)/2."""
    return 0.5 * (IDENTITY_2 + pauli_dot(u))


def tensor(m2a: np.ndarray, m2b: np.ndarray) -> np.ndarray:
    """Kronecker product with the A-side factor first."""
    m2a = np.asarray(m2a, dtype=complex)
    m2b = np.asarray(m2b, dtype=complex)
    if m2a.shape != (2, 2) or m2b.shape != (2, 2):
        raise ValueError("tensor expects two 2x2 matrices")
    return np.kron(m2a, m2b)


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) < ATOL)


def is_positive_semidefinite(m: np.ndarray) -> bool:
    if not is_hermitian(m):
        return False
    return bool(np.min(np.linalg.eigvalsh(np.asarray(m, dtype=complex))) > -ATOL)


def is_density_matrix(m: np.ndarray) -> bool:
    """Unit trace, Hermitian, positive semidefinite (within tolerance)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if abs(np.trace(m) - 1.0) > ATOL:
        return False
    return is_positive_semidefinite(m)


@dataclass(frozen=True)
class TwoQubitState:
    """Density matrix over spin(A) (x) spin(B) in the basis |++>, |+->, |-+>, |-->."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("a two-qubit state needs a 4x4 density matrix")
        if not is_density_matrix(rho):
            raise ValueError("matrix is not a valid density matrix")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))


def singlet_state() -> TwoQubitState:
    """Antisymmetric pair state (|+-> - |-+>)/sqrt(2)."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return TwoQubitState(np.outer(psi, psi.conj()))


def triplet_m0_state() -> TwoQubitState:
    """Zero-projection triplet pair state (|+-> + |-+>)/sqrt(2)."""
    psi = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return TwoQubitState(np.outer(psi, psi.conj()))


def expectation(state: TwoQubitState, op4: np.ndarray) -> float:
    """tr(rho op4) for a Hermitian two-qubit observable, returned as a real number."""
    op4 = np.asarray(op4, dtype=complex)
    if op4.shape != (4, 4):
        raise ValueError("expectation expects a 4x4 observable")
    if not is_hermitian(op4):
        raise ValueError("observable must be Hermitian")
    value = complex(np.trace(state.rho @ op4))
    if abs(value.imag) > ATOL:
        raise ArithmeticError(f"expectation value has imaginary residue {value.imag:g}")
    return value.real

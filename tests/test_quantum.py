import math

import numpy as np
import pytest

from hyperon_leggett import (Direction, TwoQubitState, X_AXIS, Z_AXIS,
                             expectation, pauli_dot, singlet_state, spin_state,
                             tensor, triplet_m0_state)
from hyperon_leggett.quantum import (IDENTITY_2, IDENTITY_4, SIGMA_X, SIGMA_Y,
                                     SIGMA_Z, is_density_matrix, is_hermitian,
                                     is_positive_semidefinite)

from conftest import random_direction


class TestDirection:
    def test_unit_enforced(self):
        with pytest.raises(ValueError):
            Direction(1.0, 1.0, 0.0)

    def test_nan_refused(self):
        with pytest.raises(ValueError):
            Direction(math.nan, 0.0, 0.0)

    def test_normalized(self):
        d = Direction.normalized(3.0, 4.0, 0.0)
        assert d.x == pytest.approx(0.6) and d.y == pytest.approx(0.8)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            Direction.normalized(0.0, 0.0, 0.0)

    def test_dot_and_negation(self):
        assert X_AXIS.dot(Z_AXIS) == 0.0
        assert Direction(*-np.asarray(Z_AXIS)).z == -1.0

    def test_from_polar(self):
        d = Direction.normalized(math.sin(math.pi / 2), 0.0, math.cos(math.pi / 2))
        assert d.x == pytest.approx(1.0) and abs(d.z) < 1e-15


class TestPauliDot:
    def test_z_axis(self):
        assert np.array_equal(pauli_dot(Z_AXIS), np.diag([1.0, -1.0]).astype(complex))

    def test_x_axis(self):
        assert np.array_equal(pauli_dot(X_AXIS), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_tilted_eigenvalues(self):
        # frozen from eigen-decomposition of the returned matrix
        d = Direction.normalized(1.0, 0.0, 1.0)
        eig = np.linalg.eigvalsh(pauli_dot(d))
        assert np.allclose(eig, [-1.0, 1.0], atol=1e-12)

    def test_squares_to_identity(self, rng):
        for _ in range(1000):
            m = pauli_dot(random_direction(rng))
            assert np.max(np.abs(m @ m - IDENTITY_2)) < 1e-12


class TestSpinState:
    def test_up_down_along_z(self):
        assert np.allclose(spin_state(Z_AXIS), np.diag([1.0, 0.0]), atol=0)
        assert np.allclose(spin_state(Direction(0.0, 0.0, -1.0)), np.diag([0.0, 1.0]), atol=0)

    def test_along_x(self):
        assert np.allclose(spin_state(X_AXIS), 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_is_eigenstate(self, rng):
        for _ in range(50):
            u = random_direction(rng)
            rho = spin_state(u)
            assert np.max(np.abs(pauli_dot(u) @ rho - rho)) < 1e-12

    def test_projector_spectrum(self, rng):
        for _ in range(200):
            rho = spin_state(random_direction(rng))
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.allclose(np.linalg.eigvalsh(rho), [0.0, 1.0], atol=1e-12)


class TestPairStates:
    def test_singlet_perfect_anticorrelation(self, rng):
        state = singlet_state()
        for _ in range(50):
            a = random_direction(rng)
            op = tensor(pauli_dot(a), pauli_dot(a))
            assert expectation(state, op) == pytest.approx(-1.0, abs=1e-12)

    def test_singlet_isotropy(self, rng):
        state = singlet_state()
        for _ in range(200):
            a, b = random_direction(rng), random_direction(rng)
            op = tensor(pauli_dot(a), pauli_dot(b))
            assert abs(expectation(state, op) + a.dot(b)) < 1e-12

    def test_triplet_z_anticorrelation(self):
        assert expectation(triplet_m0_state(), tensor(SIGMA_Z, SIGMA_Z)) == pytest.approx(-1.0, abs=1e-12)

    def test_triplet_x_correlation(self):
        # frozen from an explicit 4x4 computation with raw numpy
        psi = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
        raw = np.real(psi.conj() @ np.kron(SIGMA_X, SIGMA_X) @ psi)
        assert raw == pytest.approx(1.0, abs=1e-15)
        assert expectation(triplet_m0_state(), tensor(SIGMA_X, SIGMA_X)) == pytest.approx(1.0, abs=1e-12)

    def test_purity(self):
        assert singlet_state().purity() == pytest.approx(1.0, abs=1e-12)
        assert triplet_m0_state().purity() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_density_matrices_rejected(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.eye(4, dtype=complex))  # trace 4
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            TwoQubitState(bad)  # negative eigenvalue

    def test_state_matrix_is_frozen(self):
        state = singlet_state()
        with pytest.raises(ValueError):
            state.rho[0, 0] = 1.0


class TestTensorAndExpectation:
    def test_tensor_identity(self):
        assert np.array_equal(tensor(IDENTITY_2, IDENTITY_2), IDENTITY_4)

    def test_tensor_shape_check(self):
        with pytest.raises(ValueError):
            tensor(np.eye(3), np.eye(2))

    def test_singlet_zz(self):
        assert expectation(singlet_state(), tensor(SIGMA_Z, SIGMA_Z)) == pytest.approx(-1.0, abs=1e-12)

    def test_singlet_xz_vanishes(self):
        # frozen from the explicit trace: tr(rho sigma_x (x) sigma_z) = 0
        psi = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        raw = np.real(psi.conj() @ np.kron(SIGMA_X, SIGMA_Z) @ psi)
        assert raw == pytest.approx(0.0, abs=1e-15)
        assert expectation(singlet_state(), tensor(SIGMA_X, SIGMA_Z)) == pytest.approx(0.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        op = np.zeros((4, 4), dtype=complex)
        op[0, 1] = 1.0
        with pytest.raises(ValueError):
            expectation(singlet_state(), op)


class TestMatrixPredicates:
    def test_hermitian(self):
        assert is_hermitian(SIGMA_Y)
        assert not is_hermitian(SIGMA_Y + 1e-6 * np.array([[0, 1], [0, 0]]))

    def test_positive_semidefinite(self):
        assert is_positive_semidefinite(np.diag([0.0, 1.0]).astype(complex))
        assert not is_positive_semidefinite(np.diag([-1e-6, 1.0]).astype(complex))

    def test_density_matrix(self):
        assert is_density_matrix(0.5 * np.eye(2, dtype=complex))
        assert not is_density_matrix(np.eye(2, dtype=complex))

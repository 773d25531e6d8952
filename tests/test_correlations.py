import math

import numpy as np
import pytest

from hyperon_leggett import (OUTCOMES, MeasurementParams, X_AXIS, Z_AXIS,
                             correlation_singlet, correlation_triplet_m0,
                             correlation_via_operators, joint_prob_matrix,
                             joint_prob_singlet, singlet_state, triplet_m0_state)
from hyperon_leggett.correlations import (PAIR_STATES, _check_joint_table, a_side_inversion,
                                          pair_correlation, pair_density_matrix,
                                          spin_correlation_diagonal)
from hyperon_leggett.quantum import Direction

from conftest import random_direction, random_params

SHARP = MeasurementParams.sharp()


def entry(table, j, k):
    """P(j, k) of a joint table, j and k in OUTCOMES."""
    return table[..., OUTCOMES.index(j), OUTCOMES.index(k)]


class TestJointTableCheck:
    def test_negative_entry_rejected(self):
        message = r"negative joint probability: \(-0.1, 0.4, 0.4, 0.3\)"
        with pytest.raises(ValueError, match=message):
            _check_joint_table(np.array([[-0.1, 0.4], [0.4, 0.3]]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="joint probabilities sum to 1.2, expected 1"):
            _check_joint_table(np.array([[0.3, 0.3], [0.3, 0.3]]))


class TestMatrixPath:
    def test_singlet_sharp_anticorrelation(self, rng):
        a = random_direction(rng)
        table = joint_prob_matrix(singlet_state(), SHARP, a, SHARP, a)
        assert entry(table, 1, 1) == pytest.approx(0.0, abs=1e-12)
        assert entry(table, 1, -1) == pytest.approx(0.5, abs=1e-12)

    def test_triplet_sharp_along_z(self):
        table = joint_prob_matrix(triplet_m0_state(), SHARP, Z_AXIS, SHARP, Z_AXIS)
        assert entry(table, 1, 1) == pytest.approx(0.0, abs=1e-12)
        assert entry(table, 1, -1) == pytest.approx(0.5, abs=1e-12)

    def test_raw_numpy_cross_check(self):
        # independent recomputation with nothing but numpy primitives
        eta_a, alpha_a = 0.15, -0.55
        eta_b, alpha_b = -0.2, 0.45
        a = np.array([0.6, 0.0, 0.8])
        b = np.array([0.0, 1.0, 0.0])
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        psi = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        rho = np.outer(psi, psi.conj())

        def element(eta, alpha, n, s):
            return 0.5 * ((1 + s * eta) * np.eye(2) + s * alpha * (n[0] * sx + n[1] * sy + n[2] * sz))

        raw = {}
        for j in (1, -1):
            for k in (1, -1):
                op = np.kron(element(eta_a, alpha_a, a, j), element(eta_b, alpha_b, b, k))
                raw[(j, k)] = float(np.real(np.trace(rho @ op)))

        pa = MeasurementParams(eta_a, alpha_a)
        pb = MeasurementParams(eta_b, alpha_b)
        table = joint_prob_matrix(singlet_state(), pa, Direction(0.6, 0.0, 0.8), pb,
                                  Direction(0.0, 1.0, 0.0))
        for j in (1, -1):
            for k in (1, -1):
                assert entry(table, j, k) == pytest.approx(raw[(j, k)], abs=1e-14)


class TestClosedFormsAgainstMatrixPath:
    def test_singlet_joint_table(self, rng):
        state = singlet_state()
        for _ in range(300):
            pa, pb = random_params(rng), random_params(rng)
            a, b = random_direction(rng), random_direction(rng)
            closed = joint_prob_singlet(pa, a, pb, b)
            matrix = joint_prob_matrix(state, pa, a, pb, b)
            for j in (1, -1):
                for k in (1, -1):
                    assert abs(entry(closed, j, k) - entry(matrix, j, k)) < 1e-12

    def test_singlet_correlation(self, rng):
        state = singlet_state()
        for _ in range(300):
            pa, pb = random_params(rng), random_params(rng)
            a, b = random_direction(rng), random_direction(rng)
            assert abs(correlation_singlet(pa, a, pb, b)
                       - correlation_via_operators(state, pa, a, pb, b)) < 1e-12

    def test_triplet_correlation(self, rng):
        state = triplet_m0_state()
        for _ in range(300):
            alpha_a, alpha_b = rng.uniform(-1, 1, size=2)
            pa = MeasurementParams.unsharp(alpha_a)
            pb = MeasurementParams.unsharp(alpha_b)
            a, b = random_direction(rng), random_direction(rng)
            assert abs(correlation_triplet_m0(pa, a, pb, b)
                       - correlation_via_operators(state, pa, a, pb, b)) < 1e-12

    def test_table_correlation_consistency(self, rng):
        for _ in range(100):
            pa, pb = random_params(rng), random_params(rng)
            a, b = random_direction(rng), random_direction(rng)
            table = joint_prob_singlet(pa, a, pb, b)
            correlation = np.sum(np.outer(OUTCOMES, OUTCOMES) * table)
            assert correlation == pytest.approx(correlation_singlet(pa, a, pb, b), abs=1e-12)

    def test_marginal_consistency(self, rng):
        # both pair states have maximally mixed one-side reductions
        for state in (singlet_state(), triplet_m0_state()):
            for _ in range(50):
                pa, pb = random_params(rng), random_params(rng)
                a, b = random_direction(rng), random_direction(rng)
                table = joint_prob_matrix(state, pa, a, pb, b)
                for j, marginal_a in zip(OUTCOMES, table.sum(axis=1)):
                    assert marginal_a == pytest.approx(0.5 * (1 + j * pa.eta), abs=1e-12)
                for k, marginal_b in zip(OUTCOMES, table.sum(axis=0)):
                    assert marginal_b == pytest.approx(0.5 * (1 + k * pb.eta), abs=1e-12)


class TestCorrelationValues:
    def test_singlet_sharp_parallel(self, rng):
        a = random_direction(rng)
        assert correlation_singlet(SHARP, a, SHARP, a) == pytest.approx(-1.0)

    def test_singlet_unsharp_product(self):
        pa = MeasurementParams.unsharp(0.98)
        assert correlation_singlet(pa, Z_AXIS, pa, Z_AXIS) == pytest.approx(-0.9604, abs=1e-12)

    def test_singlet_bias_product(self):
        pa = MeasurementParams(0.1, 0.0)
        pb = MeasurementParams(0.2, 0.0)
        assert correlation_singlet(pa, Z_AXIS, pb, X_AXIS) == pytest.approx(0.02, abs=1e-15)

    def test_triplet_along_z(self):
        assert correlation_triplet_m0(SHARP, Z_AXIS, SHARP, Z_AXIS) == pytest.approx(-1.0)

    def test_triplet_along_x(self):
        pa = MeasurementParams.unsharp(0.98)
        assert correlation_triplet_m0(pa, X_AXIS, pa, X_AXIS) == pytest.approx(0.9604, abs=1e-12)

    def test_biased_triplet_matches_operator_path(self, rng):
        # The bias enters as eta_a*eta_b, as for the singlet: no one-body polarization.
        state = triplet_m0_state()
        for _ in range(300):
            pa, pb = random_params(rng), random_params(rng)
            a, b = random_direction(rng), random_direction(rng)
            assert abs(correlation_triplet_m0(pa, a, pb, b)
                       - correlation_via_operators(state, pa, a, pb, b)) < 1e-12

    def test_triplet_with_flipped_a_mirrors_singlet(self, rng):
        # same magnitude, opposite sign: the documented convention check
        for _ in range(200):
            alpha_a, alpha_b = rng.uniform(-1, 1, size=2)
            pa = MeasurementParams.unsharp(alpha_a)
            pb = MeasurementParams.unsharp(alpha_b)
            a, b = random_direction(rng), random_direction(rng)
            triplet = correlation_triplet_m0(pa, a_side_inversion("triplet_m0") * np.asarray(a),
                                             pb, b)
            single = correlation_singlet(pa, a, pb, b)
            assert abs(abs(triplet) - abs(single)) < 1e-12
            assert triplet == pytest.approx(-single, abs=1e-12)

    def test_correlation_bound_invariant(self, rng):
        for _ in range(300):
            pa, pb = random_params(rng), random_params(rng)
            a, b = random_direction(rng), random_direction(rng)
            e = correlation_singlet(pa, a, pb, b)
            limit = (abs(pa.eta) + abs(pa.alpha)) * (abs(pb.eta) + abs(pb.alpha))
            assert abs(e) <= limit + 1e-12


class TestPairStateTable:
    @pytest.mark.parametrize("lookup", [spin_correlation_diagonal, a_side_inversion,
                                        pair_density_matrix])
    @pytest.mark.parametrize("name", ["Singlet", "triplet"])
    def test_unknown_state_refused(self, lookup, name):
        with pytest.raises(ValueError, match="unknown spin state.*'singlet', 'triplet_m0'"):
            lookup(name)

    def test_pair_correlation_refuses_unknown_state(self):
        # A misspelled singlet must not be read as the triplet.
        with pytest.raises(ValueError, match="unknown spin state"):
            pair_correlation("Singlet", SHARP, np.asarray(X_AXIS), SHARP, np.asarray(X_AXIS))

    def test_inversions(self):
        assert a_side_inversion("singlet").tolist() == [1.0, 1.0, 1.0]
        assert a_side_inversion("triplet_m0").tolist() == [1.0, 1.0, -1.0]

    @pytest.mark.parametrize("state", sorted(PAIR_STATES))
    def test_inverted_closed_form_matches_operator_path(self, state, rng):
        inversion = a_side_inversion(state)
        for _ in range(100):
            pa, pb = random_params(rng), random_params(rng)
            a, b = random_direction(rng), random_direction(rng)
            closed = pair_correlation(state, pa, inversion * np.asarray(a), pb, np.asarray(b))
            matrix = correlation_via_operators(pair_density_matrix(state), pa, a, pb, b)
            assert abs(closed - matrix) < 1e-12


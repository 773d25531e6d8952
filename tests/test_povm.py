import cmath
import math

import numpy as np
import pytest

from hyperon_leggett import (DecayAmplitudes, Direction, MeasurementParams,
                             X_AXIS, Z_AXIS, alpha_from_amplitudes, decay_kraus,
                             mean_polarization, outcome_probability, povm_element,
                             spin_state)
from hyperon_leggett.quantum import IDENTITY_2, pauli_dot

from conftest import random_direction, random_params


class TestMeasurementParams:
    def test_valid(self):
        MeasurementParams(0.2, 0.5)
        MeasurementParams(-0.3, 0.6)

    def test_boundary_allowed(self):
        MeasurementParams(0.3, 0.7)
        MeasurementParams(0.3, -0.7)

    @pytest.mark.parametrize("eta,alpha", [(0.5, 0.6), (-0.5, 0.6), (0.0, 1.1), (1.1, 0.0)])
    def test_invalid_rejected(self, eta, alpha):
        with pytest.raises(ValueError):
            MeasurementParams(eta, alpha)

    def test_constructors(self):
        assert MeasurementParams.sharp() == MeasurementParams(0.0, 1.0)
        assert MeasurementParams.unsharp(-0.4) == MeasurementParams(0.0, -0.4)


class TestPovmElement:
    def test_projective_limit(self):
        m = povm_element(MeasurementParams.sharp(), Z_AXIS, +1)
        assert np.allclose(m, np.diag([1.0, 0.0]), atol=0)

    def test_totally_unsharp(self, rng):
        params = MeasurementParams(0.0, 0.0)
        for outcome in (+1, -1):
            m = povm_element(params, random_direction(rng), outcome)
            assert np.allclose(m, 0.5 * IDENTITY_2, atol=0)

    def test_biased_unsharp_example(self):
        # frozen from direct evaluation of ((1+eta) + alpha sigma_z)/2
        m = povm_element(MeasurementParams(0.2, 0.5), Z_AXIS, +1)
        assert np.allclose(m, np.diag([0.85, 0.35]), atol=1e-15)

    def test_bad_outcome(self):
        with pytest.raises(ValueError):
            povm_element(MeasurementParams.sharp(), Z_AXIS, 0)

    def test_completeness(self, rng):
        for _ in range(200):
            params, n = random_params(rng), random_direction(rng)
            total = povm_element(params, n, +1) + povm_element(params, n, -1)
            assert np.max(np.abs(total - IDENTITY_2)) < 1e-14

    def test_positivity_on_parameter_boundary(self, rng):
        # |eta + alpha| = 1 or |eta - alpha| = 1: the elements touch zero but stay positive
        for t in np.linspace(-1.0, 1.0, 41):
            for sign in (1.0, -1.0):
                params = MeasurementParams(t, sign * (1.0 - abs(t)))
                n = random_direction(rng)
                for outcome in (+1, -1):
                    eig = np.linalg.eigvalsh(povm_element(params, n, outcome))
                    assert eig.min() > -1e-12


class TestOutcomeProbability:
    def test_matches_closed_form_on_pure_states(self, rng):
        for _ in range(200):
            params = random_params(rng)
            u, a = random_direction(rng), random_direction(rng)
            p = outcome_probability(spin_state(u), params, a, +1)
            assert p == pytest.approx(0.5 * (1.0 + params.eta + params.alpha * u.dot(a)), abs=1e-12)

    def test_sharp_aligned(self):
        assert outcome_probability(spin_state(Z_AXIS), MeasurementParams.sharp(), Z_AXIS, +1) == pytest.approx(1.0)

    def test_numeric_example(self):
        # eta=0.1, alpha=0.8, u.a=0.5 -> P+ = 0.75
        u = Z_AXIS
        a = Direction.normalized(math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3))
        p = outcome_probability(spin_state(u), MeasurementParams(0.1, 0.8), a, +1)
        assert p == pytest.approx(0.75, abs=1e-12)

    def test_normalization(self, rng):
        for _ in range(100):
            params = random_params(rng)
            u, a = random_direction(rng), random_direction(rng)
            total = (outcome_probability(spin_state(u), params, a, +1)
                     + outcome_probability(spin_state(u), params, a, -1))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_range_bracket(self, rng):
        for _ in range(1000):
            params = random_params(rng)
            u, a = random_direction(rng), random_direction(rng)
            p = outcome_probability(spin_state(u), params, a, +1)
            lo = 0.5 * (1.0 + params.eta - abs(params.alpha))
            hi = 0.5 * (1.0 + params.eta + abs(params.alpha))
            assert lo - 1e-12 <= p <= hi + 1e-12

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            outcome_probability(np.eye(2, dtype=complex), MeasurementParams.sharp(), Z_AXIS, +1)


class TestMeanPolarization:
    def test_cosine_law(self, rng):
        sharp = MeasurementParams.sharp()
        for _ in range(100):
            u, a = random_direction(rng), random_direction(rng)
            assert mean_polarization(u, sharp, a) == pytest.approx(u.dot(a), abs=1e-15)

    def test_orthogonal_gives_bias(self):
        assert mean_polarization(Z_AXIS, MeasurementParams(0.25, 0.5), X_AXIS) == pytest.approx(0.25)

    def test_numeric_example(self):
        # eta=-0.3, alpha=0.6, u.a=-1 -> -0.9
        down = Direction(0.0, 0.0, -1.0)
        assert mean_polarization(down, MeasurementParams(-0.3, 0.6), Z_AXIS) == pytest.approx(-0.9)

    def test_equals_probability_difference(self, rng):
        for _ in range(100):
            params = random_params(rng)
            u, a = random_direction(rng), random_direction(rng)
            diff = (outcome_probability(spin_state(u), params, a, +1)
                    - outcome_probability(spin_state(u), params, a, -1))
            assert mean_polarization(u, params, a) == pytest.approx(diff, abs=1e-12)


class TestDecayAmplitudes:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            DecayAmplitudes(0.0, 0.0)

    def test_alpha_maximal(self):
        assert alpha_from_amplitudes(DecayAmplitudes(1.0, 1.0)) == pytest.approx(1.0)

    def test_alpha_pure_s_wave(self):
        assert alpha_from_amplitudes(DecayAmplitudes(1.0, 0.0)) == 0.0

    def test_alpha_imaginary_p_wave(self):
        assert alpha_from_amplitudes(DecayAmplitudes(1.0, 1j)) == 0.0

    def test_alpha_bounded(self, rng):
        for _ in range(500):
            amps = DecayAmplitudes(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            assert abs(alpha_from_amplitudes(amps)) <= 1.0 + 1e-15


class TestDecayKraus:
    def test_pure_s_wave(self, rng):
        amps = DecayAmplitudes(1.0, 0.0)
        for outcome in (+1, -1):
            m = decay_kraus(amps, random_direction(rng), outcome)
            assert np.max(np.abs(m.conj().T @ m - 0.5 * IDENTITY_2)) < 1e-15

    def test_sharp_limit_is_projector(self, rng):
        amps = DecayAmplitudes(1 / math.sqrt(2), 1 / math.sqrt(2))
        n = random_direction(rng)
        product = decay_kraus(amps, n, +1).conj().T @ decay_kraus(amps, n, +1)
        projector = 0.5 * (IDENTITY_2 + pauli_dot(n))
        assert np.max(np.abs(product - projector)) < 1e-12

    def test_sigma_plus_like_amplitudes(self):
        # solve 2SP/(S^2+P^2) = 0.980 for real S=1: P = 0.8187 to four digits
        alpha = alpha_from_amplitudes(DecayAmplitudes(1.0, 0.8187))
        assert alpha == pytest.approx(0.980, abs=1e-3)

    def test_completeness(self, rng):
        for _ in range(100):
            amps = DecayAmplitudes(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            n = random_direction(rng)
            total = sum(decay_kraus(amps, n, s).conj().T @ decay_kraus(amps, n, s)
                        for s in (+1, -1))
            assert np.max(np.abs(total - IDENTITY_2)) < 1e-12

    def test_consistent_with_povm_element(self, rng):
        for _ in range(200):
            amps = DecayAmplitudes(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            n = random_direction(rng)
            alpha = alpha_from_amplitudes(amps)
            params = MeasurementParams.unsharp(alpha)
            for outcome in (+1, -1):
                m = decay_kraus(amps, n, outcome)
                assert np.max(np.abs(m.conj().T @ m - povm_element(params, n, outcome))) < 1e-12

    def test_phase_invariance(self):
        # a common complex phase on (S, P) changes nothing observable
        n = Direction.normalized(1.0, 2.0, 3.0)
        base = DecayAmplitudes(1.0, 0.4 + 0.2j)
        phase = cmath.exp(0.7j)
        rotated = DecayAmplitudes(phase * base.s_wave, phase * base.p_wave)
        assert alpha_from_amplitudes(base) == pytest.approx(alpha_from_amplitudes(rotated), abs=1e-15)
        m0 = decay_kraus(base, n, +1)
        m1 = decay_kraus(rotated, n, +1)
        assert np.max(np.abs(m0.conj().T @ m0 - m1.conj().T @ m1)) < 1e-15

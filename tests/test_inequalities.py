import json
import math

import numpy as np
import pytest

from hyperon_leggett import (OUTCOMES, MeasurementParams, build_settings, ch_povm_lhs,
                             chsh_povm, correlation_singlet, flip_b_prime,
                             joint_prob_singlet, leggett_diff_lhs,
                             leggett_max_lhs, leggett_sum_curve, leggett_sum_lhs,
                             leggett_violation_condition, optimal_phi,
                             symmetric_alpha_threshold)
from hyperon_leggett.geometry import DEFAULT_AXES, DEFAULT_FRAME, TripleSettings
from hyperon_leggett.inequalities import InequalityReport, leggett_diff_value

from conftest import (ch_optimal_settings, local_model_correlation,
                      local_model_joint_probability, random_direction, random_params,
                      random_rotation, rotated, setting_directions, tsirelson_settings)

SHARP = MeasurementParams.sharp()


def _singlet_e_pairs(settings, pa, pb):
    return [(correlation_singlet(pa, a, pb, b), correlation_singlet(pa, a, pb, bp))
            for a, b, bp in setting_directions(settings)]


class TestInequalityReport:
    def test_margin_and_violation(self):
        r = InequalityReport("x", lhs=2.5, bound=2.0, settings_used="s")
        assert r.margin == 0.5 and r.violated
        r2 = InequalityReport("x", lhs=2.0, bound=2.0, settings_used="s")
        assert not r2.violated

    def test_json_round_trip(self):
        r = InequalityReport("x", lhs=1.0, bound=2.0, settings_used="s",
                             inputs={"e": [1.0, 2.0]})
        decoded = json.loads(json.dumps(r.to_dict()))
        assert decoded["margin"] == -1.0
        assert decoded["inputs"]["e"] == [1.0, 2.0]


class TestChBound:
    def test_totally_unsharp_never_positive(self, rng):
        pa = MeasurementParams(0.3, 0.0)
        pb = MeasurementParams(-0.2, 0.0)
        for j, k in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            p_a = 0.5 * (1 + j * pa.eta)
            p_b = 0.5 * (1 + k * pb.eta)
            p = p_a * p_b
            report = ch_povm_lhs(p, p, p, p, p_a, p_b, pa, pb, j, k)
            assert report.lhs <= 1e-15
            assert not report.violated

    def test_sharp_singlet_optimum(self):
        # frozen independently: the co-planar optimum reaches (sqrt(2)-1)/2
        a, ap, b, bp, j, k = ch_optimal_settings()
        def p(x, y):
            return joint_prob_singlet(SHARP, x, SHARP, y)[OUTCOMES.index(j), OUTCOMES.index(k)]
        report = ch_povm_lhs(p(a, b), p(a, bp), p(ap, b), p(ap, bp),
                             0.5, 0.5, SHARP, SHARP, j, k)
        assert report.lhs == pytest.approx((math.sqrt(2) - 1) / 2, abs=1e-12)
        assert report.violated and report.bound == 0.0

    def test_biased_unsharp_value(self):
        # eta_a = 0.2 caps |alpha| at 0.8; frozen from direct evaluation at the
        # same settings with (j,k) = (+1,-1)
        pa = MeasurementParams(0.2, 0.8)
        pb = MeasurementParams(0.0, 0.8)
        a, ap, b, bp, j, k = ch_optimal_settings()
        def p(x, y):
            return joint_prob_singlet(pa, x, pb, y)[OUTCOMES.index(j), OUTCOMES.index(k)]
        report = ch_povm_lhs(p(a, b), p(a, bp), p(ap, b), p(ap, bp),
                             0.5 * (1 + j * pa.eta), 0.5 * (1 + k * pb.eta),
                             pa, pb, j, k)
        assert report.lhs == pytest.approx(0.13254833995939042, abs=1e-12)
        assert report.violated

    def test_bias_caps_unsharpness(self):
        # a 0.2 bias cannot coexist with 0.9 unsharpness: operators go negative
        with pytest.raises(ValueError):
            MeasurementParams(0.2, 0.9)

    def test_malformed_probability_rejected(self):
        with pytest.raises(ValueError):
            ch_povm_lhs(1.2, 0.0, 0.0, 0.0, 0.5, 0.5, SHARP, SHARP, 1, 1)

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError):
            ch_povm_lhs(0.1, 0.1, 0.1, 0.1, 0.5, 0.5, SHARP, SHARP, 2, 1)


class TestChshBound:
    def _combo(self, pa, pb):
        a, ap, b, bp = tsirelson_settings()
        return (correlation_singlet(pa, a, pb, b), correlation_singlet(pa, a, pb, bp),
                correlation_singlet(pa, ap, pb, b), correlation_singlet(pa, ap, pb, bp))

    def test_tsirelson_configuration(self):
        e = self._combo(SHARP, SHARP)
        report = chsh_povm(*e, SHARP, SHARP)
        assert report.lhs == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert report.bound == 2.0
        assert report.violated

    def test_half_sharp_scaling(self):
        pa = MeasurementParams.unsharp(0.5)
        e = self._combo(pa, pa)
        report = chsh_povm(*e, pa, pa)
        assert report.lhs == pytest.approx(2 * math.sqrt(2) * 0.25, abs=1e-12)
        assert report.bound == pytest.approx(0.5)
        assert report.violated

    def test_degenerate_side(self):
        pa = MeasurementParams.unsharp(0.0)
        pb = MeasurementParams.unsharp(0.7)
        e = self._combo(pa, pb)
        report = chsh_povm(*e, pa, pb)
        assert report.lhs == pytest.approx(0.0, abs=1e-15)
        assert report.bound == pytest.approx(0.0, abs=1e-15)
        assert not report.violated

    def test_always_violated_when_not_totally_unsharp(self, rng):
        # strict inequality, no tolerance: 2 sqrt(2) |aa ab| > 2 |aa ab|
        for _ in range(1000):
            alpha_a = rng.choice([-1, 1]) * rng.uniform(1e-3, 1.0)
            alpha_b = rng.choice([-1, 1]) * rng.uniform(1e-3, 1.0)
            pa = MeasurementParams.unsharp(alpha_a)
            pb = MeasurementParams.unsharp(alpha_b)
            e = self._combo(pa, pb)
            report = chsh_povm(*e, pa, pb)
            assert report.violated
            assert report.lhs == pytest.approx(2 * math.sqrt(2) * abs(alpha_a * alpha_b), abs=1e-12)

    @pytest.mark.parametrize("e_ab", [5.0, -1.0 - 1e-9, math.nan, math.inf])
    def test_non_correlation_refused(self, e_ab):
        # chsh_povm(5, 0, 0, 0, ...) used to report a violation of the sharp bound.
        with pytest.raises(ValueError, match=r"e_ab = .* is not a correlation"):
            chsh_povm(e_ab, 0.0, 0.0, 0.0, SHARP, SHARP)


class TestLeggettSum:
    def test_quantum_input_reproduces_curve(self):
        pa = MeasurementParams.unsharp(0.98)
        pb = MeasurementParams.unsharp(0.98)
        for phi in np.linspace(0.01, math.pi - 0.01, 100):
            settings = build_settings(float(phi))
            report = leggett_sum_lhs(settings, _singlet_e_pairs(settings, pa, pb), pb.alpha)
            assert abs(report.lhs - leggett_sum_curve(phi, 0.98, 0.98)) < 1e-12

    def test_sharp_maximum(self):
        settings = build_settings(optimal_phi(1.0))
        report = leggett_sum_lhs(settings, _singlet_e_pairs(settings, SHARP, SHARP), 1.0)
        assert report.lhs == pytest.approx(2.1081851067789197, abs=1e-12)
        assert report.violated

    def test_sigma_like_maximum(self):
        pa = MeasurementParams.unsharp(0.98)
        settings = build_settings(optimal_phi(0.98))
        report = leggett_sum_lhs(settings, _singlet_e_pairs(settings, pa, pa), 0.98)
        assert report.lhs == pytest.approx(2.0288708890524414, abs=1e-9)
        assert report.violated

    def test_invalid_settings_rejected(self):
        s = build_settings(1.0)
        tampered = TripleSettings(phi=1.3, a=s.a, b=s.b, b_prime=s.b_prime)
        with pytest.raises(ValueError, match="invalid triple settings"):
            leggett_sum_lhs(tampered, [(0.0, 0.0)] * 3, 1.0)

    def test_wrong_pair_count_rejected(self):
        with pytest.raises(ValueError, match="three"):
            leggett_sum_lhs(build_settings(1.0), [(0.0, 0.0)] * 2, 1.0)

    @pytest.mark.parametrize("pairs, name", [([(math.nan, 0.0)] * 3, "E_1"),
                                             ([(0.0, 0.0), (0.0, 1.5), (0.0, 0.0)], "E_2'")])
    def test_non_correlation_refused(self, pairs, name):
        # A NaN used to give lhs nan with violated False: a silent "no violation".
        with pytest.raises(ValueError, match=f"{name} = .* is not a correlation"):
            leggett_sum_lhs(build_settings(1.0), pairs, 0.98)


class TestLeggettDiff:
    def test_equals_sum_form_on_flipped_layout(self, rng):
        # E is linear in b, so flipping b' maps the difference form onto the sum form
        pa = MeasurementParams.unsharp(0.98)
        pb = MeasurementParams.unsharp(0.98)
        for phi in np.linspace(0.05, math.pi - 0.05, 50):
            settings = build_settings(float(phi))
            flipped = flip_b_prime(settings)
            sum_report = leggett_sum_lhs(settings, _singlet_e_pairs(settings, pa, pb), 0.98)
            diff_report = leggett_diff_lhs(flipped, _singlet_e_pairs(flipped, pa, pb), 0.98)
            assert abs(sum_report.lhs - diff_report.lhs) < 1e-12

    def test_array_kernel_keeps_the_scalar_bits(self, rng):
        # leggett_diff_lhs evaluates through leggett_diff_value: the bits of the Python
        # sum it replaced, and one call over stacked differences equals per-row calls.
        alpha_b, lhs, rows = 0.98, [], []
        for _ in range(50):
            flipped = flip_b_prime(build_settings(float(rng.uniform(0.05, math.pi - 0.05))))
            pairs = rng.uniform(-1.0, 1.0, (3, 2)).tolist()
            old = (sum(abs(e - ep) for e, ep in pairs) / 3.0
                   + (2.0 * abs(alpha_b) / 3.0) * abs(math.cos(0.5 * flipped.phi)))
            lhs.append(leggett_diff_lhs(flipped, pairs, alpha_b).lhs)
            assert lhs[-1] == old
            rows.append(([e - ep for e, ep in pairs], flipped.phi))
        diffs, phis = (np.array(column) for column in zip(*rows))
        stacked = leggett_diff_value(diffs, alpha_b, phis)
        assert np.array_equal(stacked.view(np.uint64), np.array(lhs).view(np.uint64))

    def test_antipodal_pair_is_trivial(self):
        # flipped phi = pi means the cosine term vanishes
        flipped = flip_b_prime(build_settings(1e-9))
        pairs = _singlet_e_pairs(flipped, SHARP, SHARP)
        report = leggett_diff_lhs(flipped, pairs, 1.0)
        assert report.lhs == pytest.approx(sum(abs(e - ep) for e, ep in pairs) / 3, abs=1e-9)

    def test_zero_alpha_b_no_violation(self):
        flipped = flip_b_prime(build_settings(1.0))
        pb = MeasurementParams.unsharp(0.0)
        report = leggett_diff_lhs(flipped, _singlet_e_pairs(flipped, SHARP, pb), 0.0)
        assert report.lhs == pytest.approx(0.0, abs=1e-15)
        assert not report.violated

    def test_takes_no_b_side_bias(self):
        # The bound holds for an unbiased B side only, so there is no bias to pass.
        flipped = flip_b_prime(build_settings(1.0))
        with pytest.raises(TypeError, match="eta_b"):
            leggett_diff_lhs(flipped, [(0.0, 0.0)] * 3, 0.5, eta_b=0.0)
        assert "unbiased B-side" in leggett_diff_lhs.__doc__

    def test_non_correlation_refused(self):
        flipped = flip_b_prime(build_settings(1.0))
        with pytest.raises(ValueError, match="E_3 = -inf is not a correlation"):
            leggett_diff_lhs(flipped, [(0.0, 0.0), (0.0, 0.0), (-math.inf, 0.0)], 0.5)

    def test_non_orthogonal_sums_rejected(self):
        # skewed bisectors are fine for the sum form (a_i need not be
        # orthogonal) but break the layout the difference form needs
        from hyperon_leggett.quantum import Direction, X_AXIS, Z_AXIS
        axes = (X_AXIS, Direction.normalized(0.0, 1.0, 1.0), Z_AXIS)
        settings = build_settings(1.0, axes=axes)
        pairs = _singlet_e_pairs(settings, SHARP, SHARP)
        leggett_sum_lhs(settings, pairs, 1.0)  # accepted by the sum form
        with pytest.raises(ValueError, match="invalid flipped settings"):
            leggett_diff_lhs(settings, pairs, 0.5)


class TestViolationCondition:
    def test_examples(self):
        assert leggett_violation_condition(1.0, 1.0)
        assert leggett_violation_condition(0.98, 0.98)
        assert not leggett_violation_condition(0.97, 0.97)

    def test_flips_exactly_at_threshold(self):
        th = symmetric_alpha_threshold()
        assert leggett_violation_condition(th * (1 + 1e-9), th * (1 + 1e-9))
        assert not leggett_violation_condition(th * (1 - 1e-9), th * (1 - 1e-9))

    def test_agrees_with_rounded_max_lhs_within_ulps_of_the_boundary(self, rng):
        # alpha_b = 1/sqrt(alpha_a^2 + 1/9) is at most 1 for alpha_a >= sqrt(8)/3.
        alpha_a = rng.uniform(math.sqrt(8.0) / 3.0, 1.0, size=(2000, 1))
        edge = 1.0 / np.sqrt(alpha_a * alpha_a + 1.0 / 9.0)
        alpha_b = edge + np.arange(-3, 4) * np.spacing(edge)
        assert np.array_equal(leggett_violation_condition(alpha_a, alpha_b),
                              leggett_max_lhs(alpha_a, alpha_b) > 2.0)

    def test_equivalent_to_grid_maximum(self, rng):
        phis = np.linspace(1e-4, math.pi, 10_000)
        for _ in range(200):
            alpha_a, alpha_b = rng.uniform(0.0, 1.0, size=2)
            max_margin = float(np.max(leggett_sum_curve(phis, alpha_a, alpha_b))) - 2.0
            if abs(leggett_max_lhs(alpha_a, alpha_b) - 2.0) < 1e-6:
                continue  # skip the knife edge the grid cannot resolve
            assert leggett_violation_condition(alpha_a, alpha_b) == (max_margin > -1e-9)


class TestThreshold:
    def test_bracket(self):
        th = symmetric_alpha_threshold()
        assert 0.9726 <= th <= 0.9727
        assert round(th, 3) == 0.973

    def test_polynomial_residual(self):
        th = symmetric_alpha_threshold()
        assert abs(th ** 4 + th ** 2 / 9 - 1.0) < 1e-10

    def test_against_bisection(self):
        lo, hi = 0.5, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid ** 4 + mid ** 2 / 9 < 1.0:
                lo = mid
            else:
                hi = mid
        assert symmetric_alpha_threshold() == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_against_polynomial_roots(self):
        # quadratic in alpha^2, solved independently by numpy
        roots = np.roots([1.0, 1.0 / 9.0, -1.0])
        positive = float(np.sqrt(roots[roots > 0][0]))
        assert symmetric_alpha_threshold() == pytest.approx(positive, abs=1e-12)


class TestOptimalPhi:
    def test_sharp_value(self):
        assert optimal_phi(1.0) == pytest.approx(0.6435011087932844, abs=1e-15)

    def test_degenerate_a_side(self):
        assert optimal_phi(0.0) == pytest.approx(math.pi)

    def test_maximizer_property(self, rng):
        for alpha_a, alpha_b in ((1.0, 1.0), (0.98, 0.98), (0.6, 0.9)):
            best = leggett_sum_curve(optimal_phi(alpha_a), alpha_a, alpha_b)
            assert best == pytest.approx(leggett_max_lhs(alpha_a, alpha_b), abs=1e-12)
            for phi in rng.uniform(1e-6, math.pi, size=1000):
                assert leggett_sum_curve(phi, alpha_a, alpha_b) <= best + 1e-12

    def test_max_lhs_values(self):
        assert leggett_max_lhs(1.0, 1.0) == pytest.approx(2.1081851067789197, abs=1e-12)
        assert leggett_max_lhs(0.98, 0.98) == pytest.approx(2.0288708890524414, abs=1e-12)
        assert leggett_max_lhs(0.75, 0.75) == pytest.approx(1.2311072252245132, abs=1e-12)


class TestLocalModelNegativeControl:
    """A mixture of definite-polarization responses must satisfy every bound."""

    def test_ch_and_chsh_never_violated(self, rng):
        for _ in range(500):
            pa, pb = random_params(rng), random_params(rng)
            u, v = random_direction(rng), random_direction(rng)
            a, ap = random_direction(rng), random_direction(rng)
            b, bp = random_direction(rng), random_direction(rng)
            j = int(rng.choice([1, -1]))
            k = int(rng.choice([1, -1]))
            p_a = 0.5 * (1 + j * (pa.eta + pa.alpha * u.dot(ap)))
            p_b = 0.5 * (1 + k * (pb.eta + pb.alpha * v.dot(b)))
            ch = ch_povm_lhs(
                local_model_joint_probability(u, v, pa, pb, a, b, j, k),
                local_model_joint_probability(u, v, pa, pb, a, bp, j, k),
                local_model_joint_probability(u, v, pa, pb, ap, b, j, k),
                local_model_joint_probability(u, v, pa, pb, ap, bp, j, k),
                p_a, p_b, pa, pb, j, k)
            assert not ch.violated
            chsh = chsh_povm(
                local_model_correlation(u, v, pa, pb, a, b),
                local_model_correlation(u, v, pa, pb, a, bp),
                local_model_correlation(u, v, pa, pb, ap, b),
                local_model_correlation(u, v, pa, pb, ap, bp),
                pa, pb)
            assert not chsh.violated

    def test_leggett_never_violated(self, rng):
        for _ in range(500):
            pa, pb = random_params(rng), random_params(rng)
            u, v = random_direction(rng), random_direction(rng)
            rot = random_rotation(rng)
            phi = float(rng.uniform(1e-3, math.pi - 1e-3))
            settings = build_settings(
                phi,
                frame=tuple(rotated(rot, e) for e in DEFAULT_FRAME),
                axes=tuple(rotated(rot, a) for a in DEFAULT_AXES))
            pairs = [(local_model_correlation(u, v, pa, pb, a, b),
                      local_model_correlation(u, v, pa, pb, a, bp))
                     for a, b, bp in setting_directions(settings)]
            assert not leggett_sum_lhs(settings, pairs, pb.alpha).violated

            # difference form holds for unbiased B side only
            pb0 = MeasurementParams.unsharp(pb.alpha)
            flipped = flip_b_prime(settings)
            pairs_f = [(local_model_correlation(u, v, pa, pb0, a, b),
                        local_model_correlation(u, v, pa, pb0, a, bp))
                       for a, b, bp in setting_directions(flipped)]
            assert not leggett_diff_lhs(flipped, pairs_f, pb0.alpha).violated

import math

import numpy as np
import pytest
from scipy import stats

from hyperon_leggett import (DecayMode, ProductionChannel,
                             X_AXIS, Z_AXIS, build_settings,
                             estimate_correlation, estimate_leggett_lhs,
                             leggett_max_lhs, load_events, optimal_phi,
                             sample_pair_decay, sample_single_decay, save_events)
from hyperon_leggett.catalog import channel_correlation
from hyperon_leggett.geometry import TripleSettings
from hyperon_leggett.simulation import (EventSample, _generator, _random_unit,
                                        _sample_about_axes, _sample_cosines,
                                        estimate_correlation_hemisphere,
                                        sample_single_decays,
                                        spin_correlation_matrix)

from conftest import random_direction


def _channel(alpha_a=0.98, alpha_b=0.98, mother="eta_c"):
    return ProductionChannel(
        mother,
        DecayMode("A", "x_y", alpha_a, 0.0, None),
        DecayMode("B", "x_y", alpha_b, 0.0, None))


SIGMA_LIKE = _channel(-0.98, 0.98)


class TestSpinCorrelationMatrix:
    def test_singlet(self):
        assert np.array_equal(spin_correlation_matrix(_channel()), -np.eye(3))

    def test_triplet(self):
        c = spin_correlation_matrix(_channel(mother="chi_c0"))
        assert np.array_equal(c, np.diag([1.0, 1.0, -1.0]))


class TestSingleDecay:
    def test_determinism_and_unit_norm(self):
        d1 = sample_single_decay(Z_AXIS, 0.7, seed=5)
        d2 = sample_single_decay(Z_AXIS, 0.7, seed=5)
        assert (d1.x, d1.y, d1.z) == (d2.x, d2.y, d2.z)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            sample_single_decay(Z_AXIS, 1.2, seed=0)

    def test_isotropic_limit(self):
        n = sample_single_decays(Z_AXIS, 0.0, 100_000, seed=11)
        mean = n.mean(axis=0)
        se = n.std(axis=0, ddof=1) / math.sqrt(len(n))
        assert np.all(np.abs(mean) < 5 * se)

    def test_forward_peaked_mean(self):
        # <n_z> for alpha=1 about +z is 1/3 (first moment of (1+c)/2)
        n = sample_single_decays(Z_AXIS, 1.0, 200_000, seed=12)
        mean_z = n[:, 2].mean()
        se = n[:, 2].std(ddof=1) / math.sqrt(len(n))
        assert abs(mean_z - 1.0 / 3.0) < 5 * se

    def test_moment_estimator_recovers_mean_polarization(self, rng):
        # 3<n.a> estimates alpha u.a (the unbiased-measurement average)
        u = random_direction(rng)
        a = random_direction(rng)
        alpha = -0.6
        n = sample_single_decays(u, alpha, 200_000, seed=13)
        proj = 3.0 * (n @ a.as_array())
        se = proj.std(ddof=1) / math.sqrt(len(proj))
        assert abs(proj.mean() - alpha * u.dot(a)) < 5 * se

    def test_cosine_distribution_matches_cdf(self):
        # KS against the closed-form CDF of (1 + alpha c)/2
        alpha = 0.98
        n = sample_single_decays(Z_AXIS, alpha, 100_000, seed=14)
        cdf = lambda c: (c + 1.0) / 2.0 + alpha * (c * c - 1.0) / 4.0
        result = stats.kstest(n[:, 2], cdf)
        assert result.pvalue > 0.01


class TestSampleCosines:
    @pytest.mark.parametrize("alpha", [1e-11, 1e-9, 1e-6])
    def test_accurate_for_small_alpha(self, alpha):
        c = _sample_cosines(alpha, 100_000, _generator(21))
        r = _generator(21).random(100_000).astype(np.longdouble)
        al = np.longdouble(alpha)
        reference = (4 * r - 2 + al) / (np.sqrt((1 - al) ** 2 + 4 * al * r) + 1)
        assert np.max(np.abs(c - reference)) <= 1e-15

    def test_exact_linear_map_at_zero_alpha(self):
        c = _sample_cosines(0.0, 100_000, _generator(22))
        assert np.array_equal(c, 2.0 * _generator(22).random(100_000) - 1.0)

    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_within_range_at_unit_alpha(self, alpha):
        c = _sample_cosines(alpha, 1_000_000, _generator(23))
        assert np.all(np.abs(c) <= 1.0)


class TestPairDecay:
    def test_determinism(self):
        s1 = sample_pair_decay(SIGMA_LIKE, 5000, seed=21)
        s2 = sample_pair_decay(SIGMA_LIKE, 5000, seed=21)
        assert np.array_equal(s1.n_a, s2.n_a)
        assert np.array_equal(s1.n_b, s2.n_b)

    def test_seed_changes_sample(self):
        s1 = sample_pair_decay(SIGMA_LIKE, 1000, seed=21)
        s2 = sample_pair_decay(SIGMA_LIKE, 1000, seed=22)
        assert not np.array_equal(s1.n_a, s2.n_a)

    def test_independent_when_alpha_product_vanishes(self):
        sample = sample_pair_decay(_channel(alpha_a=0.9, alpha_b=0.0), 100_000, seed=23)
        prods = (sample.n_a * sample.n_b).sum(axis=1)
        se = prods.std(ddof=1) / math.sqrt(len(prods))
        assert abs(prods.mean()) < 5 * se

    def test_marginals_isotropic(self):
        sample = sample_pair_decay(SIGMA_LIKE, 100_000, seed=24)
        for arr in (sample.n_a, sample.n_b):
            result = stats.kstest(arr[:, 2], stats.uniform(loc=-1.0, scale=2.0).cdf)
            assert result.pvalue > 0.01

    def test_moment_matrix_tracks_spin_correlations(self):
        for mother in ("eta_c", "chi_c0"):
            channel = _channel(-0.98, 0.98, mother)
            sample = sample_pair_decay(channel, 300_000, seed=25)
            prods = 9.0 * np.einsum("ni,nj->nij", sample.n_a, sample.n_b)
            mean = prods.mean(axis=0)
            se = prods.std(axis=0, ddof=1) / math.sqrt(sample.n_events)
            target = -0.98 * 0.98 * spin_correlation_matrix(channel)
            assert np.all(np.abs(mean - target) < 5 * se)

    def test_sharp_singlet_opening_angle(self):
        # <n_A.n_B> = sum_i alpha_a alpha_b C_ii / 9 = -1/3 for the sharp singlet
        sample = sample_pair_decay(_channel(1.0, 1.0), 200_000, seed=26)
        prods = (sample.n_a * sample.n_b).sum(axis=1)
        se = prods.std(ddof=1) / math.sqrt(len(prods))
        assert abs(prods.mean() + 1.0 / 3.0) < 5 * se

    def test_size_check(self):
        with pytest.raises(ValueError):
            sample_pair_decay(SIGMA_LIKE, 0, seed=1)

    @pytest.mark.parametrize("mother", ["eta_c", "chi_c0"])
    def test_diagonal_product_matches_matrix_product(self, mother):
        channel = _channel(-0.98, 0.98, mother)
        sample = sample_pair_decay(channel, 20_000, seed=27)
        rng = _generator(27)
        n_a = _random_unit(20_000, rng)
        n_b = _sample_about_axes(n_a @ spin_correlation_matrix(channel), -0.98 * 0.98, rng)
        assert np.array_equal(sample.n_a, n_a)
        assert np.array_equal(sample.n_b, n_b)


class TestEstimateCorrelation:
    def test_small_sample_rejected(self):
        sample = sample_pair_decay(SIGMA_LIKE, 200, seed=31)
        short = EventSample(n_a=sample.n_a[:50], n_b=sample.n_b[:50], seed=31,
                            mother="eta_c", hyperon_a="A", hyperon_b="B",
                            alpha_a=-0.98, alpha_b=0.98, spin_state="singlet")
        with pytest.raises(ValueError, match="too small"):
            estimate_correlation(short, Z_AXIS, Z_AXIS)

    def test_closure_against_closed_form(self, rng):
        # |e_hat - E| < 5 sigma in at least 99% of independent seeded runs
        failures = 0
        runs = 100
        for seed in range(runs):
            sample = sample_pair_decay(SIGMA_LIKE, 10_000, seed=1000 + seed)
            a, b = random_direction(rng), random_direction(rng)
            target = channel_correlation(SIGMA_LIKE, a, b)
            est = estimate_correlation(sample, a, b)
            if abs(est.e_hat - target) >= 5 * est.std_error:
                failures += 1
        assert failures <= runs // 100

    def test_sign_symmetric_in_both_arguments(self):
        sample = sample_pair_decay(SIGMA_LIKE, 1000, seed=32)
        e1 = estimate_correlation(sample, Z_AXIS, X_AXIS)
        e2 = estimate_correlation(sample, -Z_AXIS, -X_AXIS)
        assert e1.e_hat == e2.e_hat
        assert e1.std_error == e2.std_error

    def test_vanishing_alpha_product(self):
        sample = sample_pair_decay(_channel(alpha_a=0.9, alpha_b=0.0), 50_000, seed=33)
        est = estimate_correlation(sample, Z_AXIS, Z_AXIS)
        assert abs(est.e_hat) < 5 * est.std_error

    def test_hemisphere_cross_check(self):
        sample = sample_pair_decay(SIGMA_LIKE, 200_000, seed=34)
        moment = estimate_correlation(sample, Z_AXIS, Z_AXIS)
        hemi = estimate_correlation_hemisphere(sample, Z_AXIS, Z_AXIS)
        joint = math.hypot(moment.std_error, hemi.std_error)
        assert abs(moment.e_hat - hemi.e_hat) < 5 * joint
        assert hemi.std_error > moment.std_error  # the sign estimator is noisier

    def test_error_scales_as_inverse_sqrt_n(self):
        small = sample_pair_decay(SIGMA_LIKE, 10_000, seed=35)
        large = sample_pair_decay(SIGMA_LIKE, 40_000, seed=36)
        se_small = estimate_correlation(small, Z_AXIS, Z_AXIS).std_error
        se_large = estimate_correlation(large, Z_AXIS, Z_AXIS).std_error
        assert se_small / se_large == pytest.approx(2.0, rel=0.10)


class TestEstimateLeggett:
    def test_matches_closed_form(self):
        phi = optimal_phi(0.98)
        settings = build_settings(phi)
        sample = sample_pair_decay(SIGMA_LIKE, 100_000, seed=41)
        est = estimate_leggett_lhs(sample, settings)
        target = leggett_max_lhs(0.98, 0.98)
        assert est.method == "delta"
        assert abs(est.lhs_hat - target) < 5 * est.std_error

    def test_triplet_channel_same_target(self):
        phi = optimal_phi(0.98)
        settings = build_settings(phi)
        sample = sample_pair_decay(_channel(-0.98, 0.98, "chi_c0"), 100_000, seed=42)
        est = estimate_leggett_lhs(sample, settings)
        assert abs(est.lhs_hat - leggett_max_lhs(0.98, 0.98)) < 5 * est.std_error

    def test_bootstrap_near_zero(self):
        # alpha_b = 0 kills every pair sum; the delta method degenerates there
        sample = sample_pair_decay(_channel(alpha_a=0.9, alpha_b=0.0), 5_000, seed=43)
        settings = build_settings(1.0)
        est = estimate_leggett_lhs(sample, settings)
        assert est.method == "bootstrap"
        assert est.lhs_hat < 0.2
        assert est.std_error > 0.0

    def test_bootstrap_matches_gathered_replicas(self):
        sample = sample_pair_decay(_channel(alpha_a=0.9, alpha_b=0.0), 5_000, seed=43)
        settings = build_settings(1.0)
        est = estimate_leggett_lhs(sample, settings)
        # Reference: replicas from the gathered event rows, same Philox key.
        per_event = np.column_stack([
            9.0 * (sample.n_a @ a.as_array()) * (sample.n_b @ (b.as_array() + bp.as_array()))
            for a, b, bp in zip(settings.a, settings.b, settings.b_prime)])
        rng = _generator(43 ^ 0x626F6F74)
        replicas = [np.sum(np.abs(per_event[rng.integers(0, 5_000, 5_000)].mean(axis=0))) / 3.0
                    for _ in range(200)]
        assert est.method == "bootstrap"
        assert est.std_error == pytest.approx(float(np.std(replicas, ddof=1)), rel=1e-12)

    def test_bootstrap_is_reproducible(self):
        sample = sample_pair_decay(_channel(alpha_a=0.9, alpha_b=0.0), 5_000, seed=43)
        settings = build_settings(1.0)
        e1 = estimate_leggett_lhs(sample, settings)
        e2 = estimate_leggett_lhs(sample, settings)
        assert e1.lhs_hat == e2.lhs_hat and e1.std_error == e2.std_error

    def test_invalid_settings_rejected(self):
        sample = sample_pair_decay(SIGMA_LIKE, 1000, seed=44)
        s = build_settings(1.0)
        tampered = TripleSettings(phi=1.4, a=s.a, b=s.b, b_prime=s.b_prime)
        with pytest.raises(ValueError, match="invalid triple settings"):
            estimate_leggett_lhs(sample, tampered)


class TestEventFile:
    def test_round_trip_exact(self, tmp_path):
        sample = sample_pair_decay(SIGMA_LIKE, 500, seed=51, catalog_sha256="abc123")
        path = tmp_path / "events.txt"
        save_events(path, sample)
        loaded = load_events(path)
        assert np.array_equal(loaded.n_a, sample.n_a)
        assert np.array_equal(loaded.n_b, sample.n_b)
        assert loaded.seed == 51
        assert loaded.alpha_a == sample.alpha_a
        assert loaded.spin_state == "singlet"
        assert loaded.catalog_sha256 == "abc123"
        assert loaded.generator == sample.generator

    def test_save_is_deterministic(self, tmp_path):
        sample = sample_pair_decay(SIGMA_LIKE, 200, seed=52)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_events(p1, sample)
        save_events(p2, sample)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_match_savetxt(self, tmp_path):
        # More rows than one write block, and not a multiple of it.
        sample = sample_pair_decay(SIGMA_LIKE, 2 * 4096 + 3, seed=54, catalog_sha256="abc123")
        path, reference = tmp_path / "events.txt", tmp_path / "reference.txt"
        save_events(path, sample)
        header = "\n".join([
            "hyperon-leggett-events 1", "generator philox4x64", "seed 54",
            "mother eta_c", "hyperon_a A", "hyperon_b B", "alpha_a -0.98",
            "alpha_b 0.98", "spin_state singlet", "catalog_sha256 abc123",
            "n_events 8195", "columns nax nay naz nbx nby nbz"])
        np.savetxt(reference, np.hstack([sample.n_a, sample.n_b]), fmt="%.17g",
                   header=header, comments="# ")
        assert path.read_bytes() == reference.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# some-other-format 9\n0 0 1 0 0 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unrecognized"):
            load_events(path)

    def test_missing_header_field_rejected(self, tmp_path):
        sample = sample_pair_decay(SIGMA_LIKE, 200, seed=53)
        path = tmp_path / "events.txt"
        save_events(path, sample)
        text = path.read_text(encoding="utf-8").replace("# seed 53\n", "")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="seed"):
            load_events(path)

    def test_non_unit_rows_rejected(self):
        bad = np.array([[0.0, 0.0, 2.0]])
        good = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="non-unit"):
            EventSample(n_a=bad, n_b=good, seed=1, mother="eta_c", hyperon_a="A",
                        hyperon_b="B", alpha_a=0.5, alpha_b=0.5, spin_state="singlet")

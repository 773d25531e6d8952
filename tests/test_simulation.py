import dataclasses
import hashlib
import io
import math
import os
import random
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from hyperon_leggett import (DecayMode, ProductionChannel,
                             X_AXIS, Z_AXIS, build_settings,
                             estimate_correlation, estimate_leggett_lhs,
                             leggett_max_lhs, load_events, optimal_phi,
                             sample_pair_decay, save_events,
                             symmetric_alpha_threshold)
from hyperon_leggett.catalog import channel_correlation
from hyperon_leggett.correlations import pair_density_matrix, spin_correlation_diagonal
from hyperon_leggett.quantum import PAULI, Direction, expectation, tensor
from hyperon_leggett.geometry import DEFAULT_AXES, DEFAULT_FRAME, TripleSettings
from hyperon_leggett.eventtext import (_READ_BYTES, _ROUND_TOKENS, _Workspace,
                                       _format_rows, _read_rows)
from hyperon_leggett.floattext import _rounded17
from hyperon_leggett.simulation import (_BLOCK_ROWS, _TEXT_ROWS, EventSample,
                                        _bootstrap_replicas, _generator, _ldl, event_moments,
                                        leggett_lhs_from_moments, pair_blocks,
                                        write_pair_events)

from conftest import (_random_unit, _sample_about_axes, format_rows, percent_rows,
                      random_direction, random_rotation, rotated, sample_single_decays)


def _channel(alpha_a=0.98, alpha_b=0.98, mother="eta_c"):
    return ProductionChannel(
        mother,
        DecayMode("A", "x_y", alpha_a, 0.0, None),
        DecayMode("B", "x_y", alpha_b, 0.0, None))


SIGMA_LIKE = _channel(-0.98, 0.98)


def spin_correlation_matrix(channel):
    return np.diag(spin_correlation_diagonal(channel.spin_state))


def linear_cosine_cdf(alpha):
    """CDF of the cosine density (1 + alpha c)/2 on [-1, 1]."""
    return lambda c: (c + 1.0) / 2.0 + alpha * (c * c - 1.0) / 4.0


class TestSpinCorrelationMatrix:
    """The pair-state table the sampler reads, against <sigma_i (x) sigma_j> of the
    density matrix (the identity `check` runs)."""

    @staticmethod
    def from_density_matrix(spin_state):
        pauli = np.array(PAULI)
        return expectation(pair_density_matrix(spin_state),
                           tensor(pauli[:, None], pauli[None, :]))

    def test_singlet(self):
        assert np.array_equal(spin_correlation_matrix(_channel()), -np.eye(3))
        assert np.max(np.abs(self.from_density_matrix("singlet") + np.eye(3))) <= 1e-12

    def test_triplet(self):
        c = spin_correlation_matrix(_channel(mother="chi_c0"))
        assert np.array_equal(c, np.diag([1.0, 1.0, -1.0]))
        assert np.max(np.abs(self.from_density_matrix("triplet_m0") - c)) <= 1e-12


class TestSingleDecay:
    def test_determinism_and_unit_norm(self):
        d1 = sample_single_decays(Z_AXIS, 0.7, 1000, seed=5)
        d2 = sample_single_decays(Z_AXIS, 0.7, 1000, seed=5)
        assert np.array_equal(d1, d2)
        assert np.max(np.abs(np.linalg.norm(d1, axis=1) - 1.0)) <= 1e-15

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            sample_single_decays(Z_AXIS, 1.2, 10, seed=0)

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
        proj = 3.0 * (n @ np.asarray(a))
        se = proj.std(ddof=1) / math.sqrt(len(proj))
        assert abs(proj.mean() - alpha * u.dot(a)) < 5 * se

    def test_cosine_distribution_matches_cdf(self):
        # KS of u.n against the closed-form CDF of (1 + alpha c)/2, about an
        # axis with three non-zero components.
        u = Direction.normalized(0.3, -0.5, 0.8)
        for alpha in (-1.0, -0.4, 1e-9, 0.98, 1.0):
            n = sample_single_decays(u, alpha, 100_000, seed=14)
            result = stats.kstest(n @ np.asarray(u), linear_cosine_cdf(alpha))
            assert result.pvalue > 0.01, alpha


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

    @pytest.mark.parametrize("mother", ["eta_c", "chi_c0"])
    def test_conditional_cosine_matches_cdf(self, mother):
        # Given n_A, the cosine of n_B about C n_A has density (1 + alpha_a alpha_b c)/2.
        channel = _channel(-0.98, 0.98, mother)
        sample = sample_pair_decay(channel, 100_000, seed=28)
        c = np.einsum("ni,ij,nj->n", sample.n_a, spin_correlation_matrix(channel), sample.n_b)
        assert stats.kstest(c, linear_cosine_cdf(-0.98 * 0.98)).pvalue > 0.01

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


    @pytest.mark.parametrize("mother", ["eta_c", "chi_c0"])
    @pytest.mark.parametrize("n", [100, _BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
    def test_blocks_match_one_whole_array_draw(self, mother, n):
        # Each kind of uniform, drawn for all n events from one stream in turn.
        channel = _channel(-0.98, 0.98, mother)
        rng = _generator(29)
        n_a = _random_unit(n, rng)
        n_b = _sample_about_axes(n_a * np.diag(spin_correlation_matrix(channel)),
                                 -0.98 * 0.98, rng)
        # Each block is overwritten by the next, so each is copied as it is drawn.
        blocks = [(a.copy(), b.copy()) for a, b in pair_blocks(channel, n, seed=29)]
        assert [a.shape[1] for a, _ in blocks] == [min(_BLOCK_ROWS, n - start)
                                                   for start in range(0, n, _BLOCK_ROWS)]
        assert np.array_equal(np.hstack([a for a, _ in blocks]).T, n_a)
        assert np.array_equal(np.hstack([b for _, b in blocks]).T, n_b)


class TestEventMoments:
    def test_matches_per_event_products(self):
        # Two full blocks and a short one, so every merge step runs.
        n = 2 * _BLOCK_ROWS + 3
        sample = sample_pair_decay(SIGMA_LIKE, n, seed=61)
        products = np.einsum("ni,nj->nij", sample.n_a, sample.n_b).reshape(n, 9)
        count, mean, scatter = event_moments(sample)
        assert count == n
        reference_scatter = np.cov(products, rowvar=False) * (n - 1)
        scale = np.max(np.abs(reference_scatter))
        assert np.max(np.abs(scatter - reference_scatter)) <= 1e-12 * scale
        assert np.max(np.abs(mean - products.mean(axis=0))) <= 1e-12 * np.max(np.abs(mean))

    def test_later_blocks_longer_than_the_first(self):
        # The products buffer grows past its first size and past _BLOCK_ROWS.
        n = 2 * _BLOCK_ROWS + 3
        sample = sample_pair_decay(SIGMA_LIKE, n, seed=61)
        cuts = [0, 3, 10, n]
        count, mean, scatter = event_moments(
            (sample.n_a[i:j].T, sample.n_b[i:j].T) for i, j in zip(cuts, cuts[1:]))
        reference = event_moments(sample)
        assert count == n
        assert np.max(np.abs(mean - reference[1])) <= 1e-12 * np.max(np.abs(mean))
        assert np.max(np.abs(scatter - reference[2])) <= 1e-12 * np.max(np.abs(scatter))


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
        e2 = estimate_correlation(sample, Direction(0.0, 0.0, -1.0), Direction(-1.0, 0.0, 0.0))
        assert e1.e_hat == e2.e_hat
        assert e1.std_error == e2.std_error

    def test_vanishing_alpha_product(self):
        sample = sample_pair_decay(_channel(alpha_a=0.9, alpha_b=0.0), 50_000, seed=33)
        est = estimate_correlation(sample, Z_AXIS, Z_AXIS)
        assert abs(est.e_hat) < 5 * est.std_error

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
        # Reference: parametric replicas from the per-event pair sums' means and
        # covariance, its factor by Cholesky, and the same stdlib normals.
        per_event = np.column_stack([
            9.0 * (sample.n_a @ a) * (sample.n_b @ (b + bp))
            for a, b, bp in zip(settings.a, settings.b, settings.b_prime)])
        factor = np.linalg.cholesky(np.cov(per_event, rowvar=False) / 5_000)
        normal = random.Random(43 ^ 0x626F6F74).normalvariate
        z = np.array([[normal(0.0, 1.0) for _ in range(3)] for _ in range(200)])
        replicas = per_event.mean(axis=0) + z @ factor.T
        spread = float(np.std(np.sum(np.abs(replicas), axis=1) / 3.0, ddof=1))
        assert est.method == "bootstrap"
        assert est.std_error == pytest.approx(spread, rel=1e-12)

    def test_bootstrap_normals_are_pinned(self):
        # The first six normals of the key of seed 43, on every supported Python: the
        # stdlib's Mersenne Twister seeding from an int, random() and normalvariate.
        replicas = _bootstrap_replicas(np.zeros(3), np.eye(3), 43)
        assert replicas.shape == (200, 3)
        assert replicas[:2].tolist() == [
            [1.507774085523438, -1.9192485278521045, 1.560089625633368],
            [-0.11369823357422107, -1.7496931698727647, 0.6220303519705717]]

    @pytest.mark.parametrize("rank", [3, 2, 1, 0])
    def test_ldl_reproduces_covariances_of_every_rank(self, rng, rank):
        scale = rng.normal(size=(3, rank))
        cov = scale @ scale.T
        lower, pivots = _ldl(cov.tolist())
        assert not np.isnan(lower).any() and not np.isnan(pivots).any()
        assert np.all(pivots >= 0.0)
        assert np.array_equal(np.triu(lower), np.eye(3))
        assert np.allclose(lower @ np.diag(pivots) @ lower.T, cov, rtol=0.0,
                           atol=8 * np.finfo(float).eps * np.max(np.abs(cov), initial=0.0))
        # A zero covariance gives the means themselves.
        replicas = _bootstrap_replicas(np.array([0.5, -0.25, 0.0]), cov, 7)
        if rank == 0:
            assert np.all(replicas == [0.5, -0.25, 0.0])
        assert np.isfinite(replicas).all()

    def test_bootstrap_calls_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bootstrap called np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        sample = sample_pair_decay(_channel(alpha_a=0.9, alpha_b=0.0), 5_000, seed=43)
        est = estimate_leggett_lhs(sample, build_settings(1.0))
        assert est.method == "bootstrap" and est.std_error > 0.0

    def test_bootstrap_is_reproducible(self):
        sample = sample_pair_decay(_channel(alpha_a=0.9, alpha_b=0.0), 5_000, seed=43)
        settings = build_settings(1.0)
        e1 = estimate_leggett_lhs(sample, settings)
        e2 = estimate_leggett_lhs(sample, settings)
        assert e1.lhs_hat == e2.lhs_hat and e1.std_error == e2.std_error

    @pytest.mark.parametrize("mother", ["eta_c", "chi_c0"])
    def test_e_sums_bit_for_bit(self, rng, mother):
        # A rotated frame puts three non-zero terms in every dot product, so a
        # missing triplet flip or a regrouped weight shows.
        rotation = random_rotation(rng)
        settings = build_settings(1.1, frame=tuple(rotated(rotation, d) for d in DEFAULT_FRAME),
                                  axes=tuple(rotated(rotation, d) for d in DEFAULT_AXES))
        sample = sample_pair_decay(_channel(-0.98, 0.98, mother), 20_000, seed=45)
        flip = np.array([1.0, 1.0, -1.0 if mother == "chi_c0" else 1.0])
        directions = list(zip(settings.a, settings.b, settings.b_prime))
        # W x-bar, with the rows of W from per-direction outer products.
        weights = np.array([9.0 * np.outer(flip * a, b + bp).ravel()
                            for a, b, bp in directions])
        e_sums = estimate_leggett_lhs(sample, settings).e_sums
        assert e_sums == tuple((weights @ event_moments(sample)[1]).tolist())
        # The per-event form: column means of the pair sums.
        columns = [9.0 * (sample.n_a @ (flip * a)) * (sample.n_b @ b)
                   + 9.0 * (sample.n_a @ (flip * a)) * (sample.n_b @ bp)
                   for a, b, bp in directions]
        per_event = np.column_stack(columns).mean(axis=0)
        assert np.allclose(e_sums, per_event, rtol=1e-12, atol=0.0)

    def test_invalid_settings_rejected(self):
        sample = sample_pair_decay(SIGMA_LIKE, 1000, seed=44)
        s = build_settings(1.0)
        tampered = TripleSettings(phi=1.4, a=s.a, b=s.b, b_prime=s.b_prime)
        with pytest.raises(ValueError, match="invalid triple settings"):
            estimate_leggett_lhs(sample, tampered)
        with pytest.raises(ValueError, match="invalid triple settings"):
            leggett_lhs_from_moments(event_moments(sample), tampered, sample.seed,
                                     sample.alpha_b, sample.spin_state)

    def test_moments_of_too_few_events_rejected(self):
        moments = event_moments(pair_blocks(SIGMA_LIKE, 1, seed=46))
        with pytest.raises(ValueError) as exc:
            leggett_lhs_from_moments(moments, build_settings(1.0), 46, 0.98, "singlet")
        assert str(exc.value) == "sample too small: 1 events, need at least 100"


class TestCalibration:
    """Pseudo-experiments: the spread of lhs_hat over seeded samples against the
    mean reported std_error, on both error paths.

    With K = 400 experiments the ratio spread / mean(std_error) has a sampling
    sd of about 1/sqrt(2K) = 0.035 (0.030 at alpha_b = 0, measured on 2000
    repeats of the normal model below), so a band of +-0.12 around the
    expected ratio is 3.4 to 4 sd.  A std_error reported 20 % low multiplies
    either ratio by 1.25, which moves it by +0.2 or more, out of its band.
    """

    K = 400
    N_EVENTS = 2_000

    def _experiments(self, alpha_b):
        alpha = symmetric_alpha_threshold()
        channel = _channel(alpha, alpha_b)
        settings = build_settings(optimal_phi(alpha))
        estimates = [estimate_leggett_lhs(sample_pair_decay(channel, self.N_EVENTS, seed), settings)
                     for seed in range(7000, 7000 + self.K)]
        lhs = np.array([e.lhs_hat for e in estimates])
        std_error = np.array([e.std_error for e in estimates])
        return lhs, std_error, {e.method for e in estimates}

    def test_threshold_delta_path(self):
        # At the symmetric threshold max_lhs is exactly 2: the null hypothesis of
        # the headline test.  Every pair sum is ~14 sd from zero, so the delta
        # method applies and the pulls (lhs_hat - 2)/std_error are N(0, 1).
        lhs, std_error, methods = self._experiments(symmetric_alpha_threshold())
        assert methods == {"delta"}
        assert 0.88 <= lhs.std(ddof=1) / std_error.mean() <= 1.12
        pulls = (lhs - 2.0) / std_error
        assert stats.kstest(pulls, "norm").pvalue > 0.01
        # P(pull > 3) = 0.135 %: 0.54 expected in 400; P(5 or more) is 3e-4.
        assert np.sum(pulls > 3.0) <= 4

    def test_zero_pair_sums_bootstrap_path(self):
        # alpha_b = 0: the three pair-sum means S_i are independent N(0, s^2), so
        # sd(lhs_hat) = s sqrt(3 (1 - 2/pi))/3 = 0.348 s.  The bootstrap replicas
        # fold N(S_i, s^2), of variance S_i^2 + s^2 - (E|N(S_i, s^2)|)^2; averaged
        # over S_i their sd is 0.431 s, so the expected ratio is 0.807: near zero
        # the reported std_error errs on the conservative side.
        lhs, std_error, methods = self._experiments(0.0)
        assert methods == {"bootstrap"}
        assert 0.807 - 0.12 <= lhs.std(ddof=1) / std_error.mean() <= 0.807 + 0.12


class TestEventText:
    """eventtext._format_rows against the "%.17g" text it stands in for."""

    @staticmethod
    def assert_matches(values):
        values = np.asarray(values, dtype=float)
        rows = np.resize(values, (-(-values.size // 6), 6))
        assert format_rows(rows) == percent_rows(rows)

    def test_zeros_and_units(self):
        rows = np.array([[0.0, -0.0, 1.0, -1.0, 0.5, -0.25]])
        assert format_rows(rows) == b"0 -0 1 -1 0.5 -0.25\n"
        self.assert_matches(rows)

    @pytest.mark.parametrize("power", [1e-4, 1e-3, 1e-2, 1e-1])
    def test_decade_edges(self, power):
        # The 1000 doubles either side of +-power; below 1e-4, the exponent form.
        steps = np.arange(-1000, 1001)
        self.assert_matches([(np.array([sign * power]).view(np.int64) + steps).view(float)
                             for sign in (1.0, -1.0)])

    def test_exponent_form_below_1e_4(self):
        below = np.nextafter(1e-4, 0.0)
        rows = np.array([[below, -below, 1e-5, 1e-200, 5e-324, 0.5]])
        assert format_rows(rows).split()[:2] == [b"9.9999999999999991e-05",
                                                  b"-9.9999999999999991e-05"]
        self.assert_matches(rows)

    def test_longest_tokens_in_every_column(self):
        # "%.17g" writes at most 24 bytes, one more than a 24-byte slot holds after
        # its separator; each token here takes all 24, in each column of some row.
        longest = [-2.2250738585072014e-308, -4.9406564584124654e-324,
                   -9.9999999999999998e-201, -1.2345678901234567e-100]
        rows = np.array([np.roll(longest + [0.5, -0.012345678901234567], k) for k in range(6)])
        text = format_rows(rows)
        assert sorted(map(len, text.split()))[-24:] == [24] * 24
        assert text.split(b"\n")[2] == (b"0.5 -0.012345678901234567 -2.2250738585072014e-308 "
                                        b"-4.9406564584124654e-324 -9.9999999999999998e-201 "
                                        b"-1.2345678901234567e-100")
        self.assert_matches(rows)
        self.assert_matches(np.full((2, 6), longest[0]))

    def test_last_four_digits_zero(self):
        # 17 digits that end in 0000 take "%.17g" itself, beside tokens of the kernel.
        rows = np.array([[0.5003662109375, -0.5, 2.0 ** -13, 0.1, -0.00123291015625, 0.375]])
        assert format_rows(rows) == (b"0.5003662109375 -0.5 0.0001220703125 "
                                     b"0.10000000000000001 -0.00123291015625 0.375\n")
        self.assert_matches(rows)

    def test_one_block_peaks_within_twice_its_text(self):
        # Every array of a block's size lives in the workspace, allocated before.
        rows = np.vstack(next(pair_blocks(SIGMA_LIKE, _BLOCK_ROWS, seed=59))).T.copy()
        work = _Workspace(_BLOCK_ROWS)
        tracemalloc.start()
        try:
            text = _format_rows(rows, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bytes(text) == percent_rows(rows)
        assert peak <= 2 * len(text)

    def test_kernel_allocates_no_array(self):
        # Each step of the shared decade and N_17 kernel writes a row of its scratch in
        # one dtype; a mixed-dtype ufunc would allocate a cast buffer of up to 64 KiB.
        a = np.abs(np.vstack(next(pair_blocks(SIGMA_LIKE, 1366, seed=61))).T.ravel()[:8192])
        scratch = np.empty((7, a.size))
        _rounded17(a, scratch)  # builds the tables
        tracemalloc.start()
        try:
            decade, n17 = _rounded17(a, scratch)[:2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096
        # "%.16e" writes the same 17 digits and the decade e.
        texts = [b"%.16e" % v for v in a[a >= 1e-4].tolist()]
        assert n17[a >= 1e-4].tolist() == [int(t[:1] + t[2:18]) for t in texts]
        assert decade[a >= 1e-4].tolist() == [int(t[19:]) + 4 for t in texts]

    def test_exact_ties_round_half_even(self):
        # 0.5 + 2**-18 = 0.500003814697265625 has 18 significant digits.
        assert format_rows(np.full((1, 6), 0.5 + 2.0 ** -18)).split()[0] == \
            b"0.50000381469726562"
        # Odd n / 2**m has m decimals: 18 significant digits ending in 5, in each decade.
        for m, low in ((18, 0.1), (19, 0.01), (20, 1e-3), (21, 1e-4)):
            first = 2 * math.ceil(low * 2.0 ** m / 2) + 1
            ties = np.arange(first, first + 2 * 900, 2) / 2.0 ** m
            self.assert_matches(np.concatenate([ties, -ties]))


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

    def test_load_holds_the_rows_once(self, tmp_path):
        # The loaded (n, 6) rows are the only copy: n_a and n_b view them.  The
        # reader's scratch is fixed, under 14 reads' worth of bytes, and here the
        # rows take 24 reads' worth: a second copy of them would take the peak past
        # twice the rows, and scratch that grew with the file past the 14 reads.
        n = _READ_BYTES // 2
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, n, seed=56))
        tracemalloc.start()
        try:
            loaded = load_events(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.n_events == n
        assert peak <= 1.75 * n * 6 * 8
        assert peak - n * 6 * 8 <= 14 * _READ_BYTES

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

    @pytest.mark.parametrize("mother", ["eta_c", "chi_c0"])
    def test_bytes_match_savetxt_with_rows_outside_the_kernel(self, tmp_path, mother):
        # Zeros, units and an exponent-form component mid-block and on both sides of
        # the block boundary, where "%.17g" itself formats the value.
        sample = sample_pair_decay(_channel(mother=mother), _BLOCK_ROWS + 50, seed=57)
        n_a, n_b = sample.n_a.copy(), sample.n_b.copy()
        special = [(0.0, 0.0, 1.0), (-0.0, 0.0, -1.0), (1e-5, math.sqrt(1.0 - 1e-10), 0.0)]
        for row in (7, 8, 9, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 20):
            n_a[row], n_b[row] = special[row % 3], special[(row + 1) % 3]
        sample = dataclasses.replace(sample, n_a=n_a, n_b=n_b)
        path, reference = tmp_path / "events.txt", tmp_path / "reference.txt"
        save_events(path, sample)
        header = "\n".join([
            "hyperon-leggett-events 1", "generator philox4x64", "seed 57",
            f"mother {mother}", "hyperon_a A", "hyperon_b B", "alpha_a 0.98",
            "alpha_b 0.98", f"spin_state {sample.spin_state}", "catalog_sha256 -",
            f"n_events {_BLOCK_ROWS + 50}", "columns nax nay naz nbx nby nbz"])
        np.savetxt(reference, np.hstack([n_a, n_b]), fmt="%.17g", header=header,
                   comments="# ")
        assert path.read_bytes() == reference.read_bytes()
        assert b"\n0 0 1 -0 0 -1\n" in path.read_bytes()

    @pytest.mark.parametrize("mother, text_sha256, moments_sha256", [
        ("eta_c", "790802ad7f53fdebf358a17b79fbc6b33d14275b112033abcb5b3427bd656109",
         "82c3ec17ca22c9e78a4be7399717922685b7b6076cbd1644bcfc83619e333915"),
        ("chi_c0", "0080560e6e41f87915436b461a848cc3d103e20a1599de5846956f73659009fd",
         "cd87b52dfc76a81b5e68f7be4f425f6f2305c7ef9d6ff76b07e175a37c6cd47d")],
        ids=["eta_c", "chi_c0"])
    def test_written_stream_is_pinned(self, mother, text_sha256, moments_sha256):
        # The bytes write_pair_events writes and the repr of the moments it returns,
        # for two full blocks and a short one, pinned so that no change to the writer
        # can move them unseen.
        fh = io.BytesIO()
        count, mean, scatter = write_pair_events(fh, _channel(-0.98, 0.98, mother),
                                                 2 * _BLOCK_ROWS + 3, 17, "abc123")
        moments = repr((count, mean.tolist(), scatter.tolist()))
        assert hashlib.sha256(fh.getvalue()).hexdigest() == text_sha256
        assert hashlib.sha256(moments.encode()).hexdigest() == moments_sha256

    @pytest.mark.parametrize("n", [_BLOCK_ROWS + _TEXT_ROWS + 1, _BLOCK_ROWS + 1])
    def test_text_halves_of_a_short_last_block(self, n):
        # The last block's rows end one past a text half, or are one row of one half.
        fh = io.BytesIO()
        write_pair_events(fh, SIGMA_LIKE, n, 62, "-")
        sample = sample_pair_decay(SIGMA_LIKE, n, seed=62)
        body = fh.getvalue().split(b"columns nax nay naz nbx nby nbz\n")[1]
        assert body == format_rows(np.hstack([sample.n_a, sample.n_b]))

    def test_stream_memory_is_flat_in_blocks(self):
        # After its first block the pass allocates no array: the rows, the text and
        # the moments each have one workspace for the whole stream.
        write_pair_events(io.BytesIO(), SIGMA_LIKE, 300, 63, "-")  # builds the tables
        peaks = []
        for blocks in (2, 20):
            with open(os.devnull, "wb") as fh:
                tracemalloc.start()
                try:
                    write_pair_events(fh, SIGMA_LIKE, blocks * _BLOCK_ROWS, 63, "-")
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 4096
        assert peaks[1] <= 3.0e6

    def test_save_memory_does_not_grow_with_events(self, tmp_path):
        peaks = []
        for blocks in (2, 16):
            sample = sample_pair_decay(SIGMA_LIKE, blocks * _BLOCK_ROWS, seed=58)
            tracemalloc.start()
            try:
                save_events(tmp_path / "events.txt", sample)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 16 blocks of text are 8 MB; the stream's text workspace is about 1.4 MB.
        assert peaks[1] <= 1.1 * peaks[0]

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# some-other-format 9\n0 0 1 0 0 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unrecognized"):
            load_events(path)

    def test_header_bytes_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe not an events file\n0 0 1 0 0 1\n")
        with pytest.raises(ValueError, match="unrecognized events file"):
            load_events(path)
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=64))
        path.write_bytes(path.read_bytes().replace(b"# mother eta_c", b"# mother \xff"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: header is not UTF-8")):
            load_events(path)

    def test_missing_header_field_rejected(self, tmp_path):
        sample = sample_pair_decay(SIGMA_LIKE, 200, seed=53)
        path = tmp_path / "events.txt"
        save_events(path, sample)
        text = path.read_text(encoding="utf-8").replace("# seed 53\n", "")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="seed"):
            load_events(path)

    # Header lines 7 to 9 are alpha_a, alpha_b and spin_state; line 12 is columns.
    @pytest.mark.parametrize("edit, line, field", [
        (lambda lines: lines[:8] + [b"# alpha_b 0.5"] + lines[8:], 9, "spin_state"),
        (lambda lines: lines[:10] + [b"# events_note none"] + lines[10:], 11, "n_events"),
        (lambda lines: lines[:6] + [lines[7], lines[6]] + lines[8:], 7, "alpha_a"),
        (lambda lines: lines[:11] + [b"# columns nbx nby nbz nax nay naz"] + lines[12:], 12,
         "columns"),
    ], ids=["duplicated", "unknown", "reordered", "other columns"])
    def test_header_lines_other_than_those_written_rejected(self, tmp_path, edit, line, field):
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=66))
        lines = edit(path.read_bytes().split(b"\n"))
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as exc:
            load_events(path)
        got = lines[line - 1].decode() + "\n"
        assert str(exc.value) == (f"{path}: line {line}: expected the header field {field}, "
                                  f"got {got!r}")

    @pytest.mark.parametrize("written, edited, message", [
        ("alpha_b 0.98", "alpha_b nan", "B: |alpha| must not exceed 1, got nan"),
        ("alpha_b 0.98", "alpha_b 7.5", "B: |alpha| must not exceed 1, got 7.5"),
        ("mother eta_c", "mother psi_2S", "unknown mother particle 'psi_2S'; "
                                          "expected one of ('eta_c', 'chi_c0')"),
        ("spin_state singlet", "spin_state triplet_m0",
         "spin_state 'triplet_m0' does not match mother 'eta_c', whose pair state is "
         "'singlet'"),
        ("generator philox4x64", "generator mt19937",
         "generator 'mt19937' is not 'philox4x64'"),
        ("hyperon_a A", "hyperon_a ", "hyperon name '' is empty or has surrounding "
                                      "whitespace or a line break, which an events file "
                                      "cannot hold"),
    ], ids=["alpha_b nan", "alpha_b out of range", "unknown mother",
            "spin_state of another mother", "generator", "empty hyperon name"])
    def test_provenance_the_channel_types_refuse_rejected(self, tmp_path, written, edited,
                                                          message):
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=67))
        path.write_bytes(path.read_bytes().replace(f"# {written}\n".encode(),
                                                   f"# {edited}\n".encode(), 1))
        with pytest.raises(ValueError) as exc:
            load_events(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_non_unit_rows_rejected_with_the_file_named(self, tmp_path):
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=68))
        lines = path.read_bytes().split(b"\n")
        lines[12] = b"1 0 0 0 0 2"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as exc:
            load_events(path)
        assert str(exc.value) == (f"{path}: n_b holds non-unit directions "
                                  f"(residual 3.000e+00)")

    @pytest.mark.parametrize("name", ["A ", " A", "A\nB", "A\r", "", "A\x1cB"])
    def test_provenance_that_would_not_read_back_is_not_written(self, name):
        # Refused when the mode is built, before any event is drawn, in every way a
        # sample could take it.
        message = (f"hyperon name {name!r} is empty or has surrounding whitespace or a "
                   f"line break, which an events file cannot hold")
        with pytest.raises(ValueError, match=re.escape(message)):
            DecayMode(name, "x_y", 0.9, 0.0, None)
        sample = sample_pair_decay(SIGMA_LIKE, 200, seed=70)
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(sample, hyperon_b=name)

    @pytest.mark.parametrize("sha", ["abc ", "", "a\nb"])
    def test_catalog_hash_that_would_not_read_back_is_refused(self, sha):
        message = (f"catalog_sha256 {sha!r} is empty or has surrounding whitespace or a "
                   f"line break, which an events file cannot hold")
        sample = sample_pair_decay(SIGMA_LIKE, 200, seed=71)
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(sample, catalog_sha256=sha)
        fh = io.BytesIO()
        with pytest.raises(ValueError, match=re.escape(message)):
            write_pair_events(fh, SIGMA_LIKE, 200, 71, sha)
        assert fh.getvalue() == b""

    @pytest.mark.parametrize("written, edited, line, expected", [
        ("hyperon_a A", "hyperon_a A\r", 5, "hyperon_a A"),
        ("seed 69", "seed  69 ", 3, "seed 69"),
        ("alpha_b 0.98", "alpha_b 0.50", 8, "alpha_b 0.5"),
        ("alpha_a -0.98", "alpha_a -98e-2", 7, "alpha_a -0.98"),
        ("n_events 200", "n_events +200", 11, "n_events 200"),
        ("hyperon-leggett-events 1", "hyperon-leggett-events 1\r", 1,
         "hyperon-leggett-events 1"),
    ], ids=["carriage return", "doubled blanks", "trailing zero", "exponent", "plus sign",
            "format line"])
    def test_header_values_not_in_the_written_form_rejected(self, tmp_path, written, edited,
                                                            line, expected):
        # Each used to load: the header's values are read, but not in the form written.
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=69))
        written, edited, expected = (f"# {text}\n" for text in (written, edited, expected))
        text = path.read_bytes()
        assert text.count(written.encode()) == 1
        path.write_bytes(text.replace(written.encode(), edited.encode()))
        with pytest.raises(ValueError) as exc:
            load_events(path)
        assert str(exc.value) == (f"{path}: line {line}: expected {expected!r} as written for "
                                  f"its value, got {edited!r}")

    @pytest.mark.parametrize("field, value, noun", [("n_events", "2e2", "an integer"),
                                                    ("seed", "x1", "an integer"),
                                                    ("alpha_a", "abc", "a number"),
                                                    ("alpha_b", "0.5.1", "a number")])
    def test_malformed_header_number_rejected(self, tmp_path, field, value, noun):
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=54))
        text = re.sub(rf"^# {field} .*$", f"# {field} {value}",
                      path.read_text(encoding="utf-8"), count=1, flags=re.MULTILINE)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_events(path)
        assert str(exc.value) == f"{path}: header field {field} is not {noun}: '{value}'"

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_header_seed_out_of_range_rejected(self, tmp_path, value):
        # Such a file used to load; its bootstrap then overflowed naming neither.
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=55))
        text = path.read_text(encoding="utf-8").replace("# seed 55\n", f"# seed {value}\n")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_events(path)
        assert str(exc.value) == f"{path}: header field seed must be in [0, 2**64), got {value}"

    # Body line 3 of a saved file is line 15: 12 header lines come first.
    @pytest.mark.parametrize("edit, line, message", [
        (lambda rows: rows[:2] + [b"0.1 0.2 0.3 0.4 0.5"] + rows[3:], 15, "expected 6 numbers"),
        (lambda rows: rows[:2] + [rows[2] + b" 0.5"] + rows[3:], 15, "expected 6 numbers"),
        (lambda rows: rows[:2] + [b"0.1 0.2 0.12x4 0.4 0.5 0.6"] + rows[3:], 15,
         "not a number: b'0.12x4'"),
        (lambda rows: rows[:2] + [b"# a comment"] + rows[2:], 15, "expected 6 numbers"),
        (lambda rows: [row + b"\r" for row in rows], 13, "expected 6 numbers"),
        (lambda rows: rows[:2] + [rows[2].replace(b" ", b"\t", 1)] + rows[3:], 15,
         "expected 6 numbers"),
        (lambda rows: rows[:2] + [rows[2].replace(b" ", b"  ", 1)] + rows[3:], 15,
         "expected 6 numbers"),
        (lambda rows: rows[:2] + [b" " + rows[2]] + rows[3:], 15, "expected 6 numbers"),
        (lambda rows: rows[:2] + [b" " + rows[2].split(b" ", 1)[1]] + rows[3:], 15,
         "not a number: b''"),
        (lambda rows: rows[:2] + [b""] + rows[2:], 15, "expected 6 numbers"),
    ], ids=["5 columns", "7 columns", "bad token", "comment", "CRLF", "tab",
            "repeated space", "leading space", "empty field", "blank line"])
    def test_malformed_body_names_the_line(self, tmp_path, edit, line, message):
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=61))
        lines = path.read_bytes().split(b"\n")[:-1]
        header = [row for row in lines if row.startswith(b"# ")]
        path.write_bytes(b"\n".join(header + edit(lines[len(header):])) + b"\n")
        with pytest.raises(ValueError) as exc:
            load_events(path)
        assert str(exc.value).startswith(f"{path}: line {line}: ")
        assert message in str(exc.value)

    @pytest.mark.parametrize("n_events, got", [(199, "more"), (201, "(200, 6)"),
                                               (10 ** 12, "bytes of rows")])
    def test_wrong_row_count_rejected(self, tmp_path, n_events, got):
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=62))
        text = path.read_bytes().replace(b"# n_events 200\n", b"# n_events %d\n" % n_events)
        path.write_bytes(text)
        with pytest.raises(ValueError, match=re.escape(
                f"expected {n_events} rows of 6 columns, got ") + ".*" + re.escape(got)):
            load_events(path)

    def test_reads_of_short_tokens_are_parsed_in_several_rounds(self):
        # A read of one-digit tokens holds several rounds of _ROUND_TOKENS tokens; rows
        # of the kernel's form and a bad token sit in later rounds of later reads.
        rows = [b"1 0 0 0 -1 0"] * (3 * _READ_BYTES // 13)
        x = sample_pair_decay(SIGMA_LIKE, 3, seed=64).n_a.ravel()
        kernel = b" ".join(b"%.17g" % v for v in x[:6])
        for k in range(5 * _ROUND_TOKENS // 6, len(rows), _ROUND_TOKENS // 3):
            rows[k] = kernel
        data = _read_rows(io.BytesIO(b"\n".join(rows) + b"\n"), "body", 1, len(rows))
        expected = np.array([[float(token) for token in row.split()] for row in rows])
        assert np.array_equal(data.view(np.uint64), expected.view(np.uint64))
        bad = len(rows) - _ROUND_TOKENS // 4
        rows[bad] = b"1 0 0 x -1 0"
        with pytest.raises(ValueError) as exc:
            _read_rows(io.BytesIO(b"\n".join(rows) + b"\n"), "body", 1, len(rows))
        assert str(exc.value) == f"body: line {bad + 1}: not a number: b'x'"

    def test_last_line_without_newline_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=63))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match=rf"line 212: no newline after \d+ bytes"):
            load_events(path)

    def test_unknown_spin_state_in_header_rejected(self, tmp_path):
        sample = sample_pair_decay(SIGMA_LIKE, 200, seed=55)
        path = tmp_path / "events.txt"
        save_events(path, sample)
        text = path.read_text(encoding="utf-8").replace("# spin_state singlet\n",
                                                        "# spin_state triplet\n")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="unknown spin state 'triplet'"):
            load_events(path)

    def test_unknown_spin_state_rejected(self):
        unit = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="unknown spin state"):
            EventSample(n_a=unit, n_b=unit, seed=1, mother="eta_c", hyperon_a="A",
                        hyperon_b="B", alpha_a=0.5, alpha_b=0.5, spin_state="triplet")

    @pytest.mark.parametrize("seed, message", [
        (1.7, "seed must be an integer in [0, 2**64), got 1.7"),
        (-1, "seed must be in [0, 2**64), got -1"),
        (2**64, f"seed must be in [0, 2**64), got {2**64}")])
    def test_seed_outside_the_range_rejected(self, seed, message):
        unit = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError) as exc:
            EventSample(n_a=unit, n_b=unit, seed=seed, mother="eta_c", hyperon_a="A",
                        hyperon_b="B", alpha_a=0.5, alpha_b=0.5, spin_state="singlet")
        assert str(exc.value) == message

    def test_sampling_refuses_a_seed_outside_the_range(self):
        with pytest.raises(ValueError, match=re.escape("seed must be in [0, 2**64), got -1")):
            sample_pair_decay(SIGMA_LIKE, 200, seed=-1)

    def test_non_unit_rows_rejected(self):
        bad = np.array([[0.0, 0.0, 2.0]])
        good = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="non-unit"):
            EventSample(n_a=bad, n_b=good, seed=1, mother="eta_c", hyperon_a="A",
                        hyperon_b="B", alpha_a=0.5, alpha_b=0.5, spin_state="singlet")

    def test_nan_rows_rejected(self):
        nan_row = np.array([[math.nan, 0.0, 1.0]])
        good = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="non-unit"):
            EventSample(n_a=nan_row, n_b=good, seed=1, mother="eta_c", hyperon_a="A",
                        hyperon_b="B", alpha_a=0.5, alpha_b=0.5, spin_state="singlet")

    @pytest.mark.parametrize("bad_row", [[math.nan, 0.0, 1.0], [0.0, 0.0, 1.0 + 1e-9]])
    def test_bad_row_past_the_first_block_rejected(self, bad_row):
        rows = np.tile([0.0, 0.0, 1.0], (6000, 1))
        rows[5000] = bad_row
        assert 5000 >= _BLOCK_ROWS
        with pytest.raises(ValueError, match="n_a holds non-unit"):
            EventSample(n_a=rows, n_b=np.tile([0.0, 0.0, 1.0], (6000, 1)), seed=1,
                        mother="eta_c", hyperon_a="A", hyperon_b="B", alpha_a=0.5,
                        alpha_b=0.5, spin_state="singlet")

    def test_nan_row_in_file_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=59))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[-1] = "0 0 1 nan 0 1\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match="n_b holds non-unit"):
            load_events(path)

    def test_empty_sample_rejected(self):
        empty = np.empty((0, 3))
        with pytest.raises(ValueError, match="n_a holds no events"):
            EventSample(n_a=empty, n_b=empty, seed=1, mother="eta_c", hyperon_a="A",
                        hyperon_b="B", alpha_a=0.5, alpha_b=0.5, spin_state="singlet")

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        save_events(path, sample_pair_decay(SIGMA_LIKE, 200, seed=60))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        header = "".join(line for line in lines if line.startswith("# "))
        path.write_text(header.replace("# n_events 200\n", "# n_events 0\n"), encoding="utf-8")
        with pytest.raises(ValueError, match=r"holds no events \(n_events 0\)"):
            load_events(path)

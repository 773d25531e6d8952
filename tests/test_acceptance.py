"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import math
import time

import numpy as np

from hyperon_leggett import (MeasurementParams,
                             build_settings, channel_correlation, chsh_povm,
                             correlation_singlet, correlation_triplet_m0,
                             correlation_via_operators, default_catalog_path,
                             estimate_correlation, estimate_leggett_lhs,
                             joint_prob_matrix, joint_prob_singlet,
                             leggett_max_lhs, leggett_sum_lhs,
                             leggett_violation_condition, load_catalog,
                             make_pair_channel, optimal_phi, sample_pair_decay,
                             singlet_state, symmetric_alpha_threshold,
                             triplet_m0_state, validate_settings)
from hyperon_leggett.catalog import find_mode
from hyperon_leggett.geometry import DEFAULT_AXES, DEFAULT_FRAME, settings_arrays
from hyperon_leggett.inequalities import ch_povm_lhs, leggett_sum_value

from conftest import (random_direction, random_params, setting_directions,
                      tsirelson_settings)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_threshold_reproduction():
    start = time.perf_counter()
    for _ in range(1000):
        th = symmetric_alpha_threshold()
    per_call = (time.perf_counter() - start) / 1000
    in_bracket = 0.9726 <= th <= 0.9727
    rounds = round(th, 3) == 0.973
    fast = per_call < 1e-3
    _report(1, in_bracket and rounds and fast,
            f"threshold {th:.6f} in [0.9726, 0.9727], rounds to 0.973, "
            f"{per_call * 1e6:.1f} us/call")


def test_criterion_2_sigma_pair_violation():
    target = 2 * 0.98 * math.sqrt(0.98 ** 2 + 1.0 / 9.0)
    pa = MeasurementParams.unsharp(0.98)
    settings = build_settings(optimal_phi(0.98))
    pairs = [(correlation_singlet(pa, a, pa, b), correlation_singlet(pa, a, pa, bp))
             for a, b, bp in setting_directions(settings)]
    report = leggett_sum_lhs(settings, pairs, 0.98)
    closed = leggett_max_lhs(0.98, 0.98)
    ok = (abs(report.lhs - target) < 1e-9 and abs(closed - target) < 1e-9
          and report.violated)
    _report(2, ok, f"max LHS {report.lhs:.10f} vs 2*0.98*sqrt(0.98^2+1/9) = "
                   f"{target:.10f}, violated = {report.violated}")


def test_criterion_3_non_violating_catalog_modes():
    modes = load_catalog(default_catalog_path())
    phis = np.linspace(1e-4, math.pi, 10_000)
    checked = []
    worst = -math.inf
    for mode in modes:
        if mode.cp_conjugate is None:
            continue
        partner = find_mode(modes, mode.cp_conjugate)
        if leggett_violation_condition(abs(mode.alpha), abs(partner.alpha)):
            continue  # the violating Sigma pair is covered by criterion 2
        if {mode.hyperon, partner.hyperon} in [set(c) for c in checked]:
            continue
        checked.append((mode.hyperon, partner.hyperon))
        channel = make_pair_channel(modes, mode.hyperon)
        a, b, b_prime = settings_arrays(phis)
        lhs = leggett_sum_value(channel_correlation(channel, a, b)
                                + channel_correlation(channel, a, b_prime),
                                channel.mode_b.alpha, phis)
        top = int(np.argmax(lhs))
        worst = max(worst, float(lhs[top]))
        if lhs[top] >= 2.0:
            _report(3, False, f"{mode.hyperon} pair reaches LHS {lhs[top]} at phi={phis[top]}")
    _report(3, len(checked) >= 2 and worst < 2.0,
            f"pairs {checked} stay below 2 on a 10^4-point grid "
            f"(max LHS {worst:.6f})")


def test_criterion_4_chsh_violation_property(rng):
    a, ap, b, bp = tsirelson_settings()
    all_violated = True
    exact = True
    for _ in range(1000):
        alpha_a = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1.0)
        alpha_b = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1.0)
        pa = MeasurementParams.unsharp(alpha_a)
        pb = MeasurementParams.unsharp(alpha_b)
        report = chsh_povm(
            correlation_singlet(pa, a, pb, b), correlation_singlet(pa, a, pb, bp),
            correlation_singlet(pa, ap, pb, b), correlation_singlet(pa, ap, pb, bp),
            pa, pb)
        all_violated &= report.violated
        exact &= abs(report.lhs - 2 * math.sqrt(2) * abs(alpha_a * alpha_b)) < 1e-12
        exact &= abs(report.bound - 2 * abs(alpha_a * alpha_b)) < 1e-15
    _report(4, all_violated and exact,
            "10^3 random unsharp pairs all violate at the co-planar optimum "
            "(strict margin > 0)")


def test_criterion_5_oracle_equivalence(rng):
    singlet = singlet_state()
    triplet = triplet_m0_state()
    worst = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        pa, pb = random_params(rng), random_params(rng)
        a, b = random_direction(rng), random_direction(rng)
        closed = joint_prob_singlet(pa, a, pb, b)
        matrix = joint_prob_matrix(singlet, pa, a, pb, b)
        worst = max(worst, float(np.max(np.abs(closed - matrix))))
        worst = max(worst, abs(correlation_singlet(pa, a, pb, b)
                               - correlation_via_operators(singlet, pa, a, pb, b)))
        ua, ub = MeasurementParams.unsharp(pa.alpha), MeasurementParams.unsharp(pb.alpha)
        worst = max(worst, abs(correlation_triplet_m0(ua, a, ub, b)
                               - correlation_via_operators(triplet, ua, a, ub, b)))
    elapsed = time.perf_counter() - start
    _report(5, worst < 1e-12 and elapsed < 1.0,
            f"closed forms vs 4x4 matrix path on 10^3 random inputs: "
            f"max residual {worst:.3e} in {elapsed:.2f} s")


def test_criterion_6_triplet_reduction():
    modes = load_catalog(default_catalog_path())
    eta_c = make_pair_channel(modes, "SigmaPlus", "eta_c")
    chi_c0 = make_pair_channel(modes, "SigmaPlus", "chi_c0")
    alpha_b = abs(eta_c.mode_b.alpha)
    worst = 0.0
    for phi in np.linspace(0.01, math.pi - 0.01, 300):
        settings = build_settings(float(phi))
        lhs = []
        for channel in (eta_c, chi_c0):
            pairs = [(channel_correlation(channel, a, b), channel_correlation(channel, a, bp))
                     for a, b, bp in setting_directions(settings)]
            lhs.append(leggett_sum_lhs(settings, pairs, alpha_b).lhs)
        worst = max(worst, abs(lhs[0] - lhs[1]))
    _report(6, worst < 1e-12,
            f"triplet path with inverted A settings equals singlet path: "
            f"max |difference| {worst:.3e}")


def test_criterion_7_monte_carlo_closure():
    modes = load_catalog(default_catalog_path())
    channel = make_pair_channel(modes, "SigmaPlus")
    target = leggett_max_lhs(0.98, 0.98)
    settings = build_settings(optimal_phi(0.98))

    start = time.perf_counter()
    sample = sample_pair_decay(channel, 1_000_000, seed=20240601)
    estimate = estimate_leggett_lhs(sample, settings)
    elapsed = time.perf_counter() - start
    deviation = abs(estimate.lhs_hat - target) / estimate.std_error

    a1, b1, _ = setting_directions(settings)[0]
    se_small = estimate_correlation(
        sample_pair_decay(channel, 10_000, seed=61), a1, b1).std_error
    se_large = estimate_correlation(
        sample_pair_decay(channel, 40_000, seed=62), a1, b1).std_error
    ratio = se_small / se_large

    ok = deviation < 5.0 and abs(ratio - 2.0) < 0.2 and elapsed < 60.0
    _report(7, ok,
            f"10^6 events: LHS {estimate.lhs_hat:.5f} +- {estimate.std_error:.5f} "
            f"({deviation:.2f} sigma from {target:.5f}), "
            f"se ratio 10k/40k = {ratio:.3f} (expect 2), {elapsed:.1f} s")


def test_criterion_8_geometry_suite():
    worst_len = 0.0
    clean = True
    for phi in np.linspace(0.01, math.pi - 0.01, 100):
        settings = build_settings(float(phi))
        clean &= validate_settings(settings) == []
        for i in range(3):
            d = (settings.b[i] - settings.b_prime[i]).tolist()
            length = math.sqrt(sum(x * x for x in d))
            worst_len = max(worst_len, abs(length - 2 * math.sin(phi / 2)))
    _report(8, clean and worst_len < 1e-12,
            f"100 phi values pass all layout invariants; "
            f"|b - b'| = 2 sin(phi/2) to {worst_len:.3e}")


def _batch_rotations(rng, m):
    q, r = np.linalg.qr(rng.normal(size=(m, 3, 3)))
    q = q * np.sign(np.einsum("mii->mi", r))[:, None, :]
    det = np.linalg.det(q)
    q[det < 0, :, 0] *= -1.0
    return q


def test_criterion_9_local_model_negative_control(rng):
    m = 100_000
    unit = lambda x: x / np.linalg.norm(x, axis=1, keepdims=True)
    u = unit(rng.normal(size=(m, 3)))
    v = unit(rng.normal(size=(m, 3)))
    eta_a = rng.uniform(-1, 1, m)
    alpha_a = rng.uniform(-1, 1, m) * (1 - np.abs(eta_a))
    eta_b = rng.uniform(-1, 1, m)
    alpha_b = rng.uniform(-1, 1, m) * (1 - np.abs(eta_b))

    def mean_a(x):
        return eta_a + alpha_a * np.einsum("mi,mi->m", u, x)

    def mean_b(x):
        return eta_b + alpha_b * np.einsum("mi,mi->m", v, x)

    # CH and CHSH at fully random directions
    a, ap = unit(rng.normal(size=(m, 3))), unit(rng.normal(size=(m, 3)))
    b, bp = unit(rng.normal(size=(m, 3))), unit(rng.normal(size=(m, 3)))
    j = rng.choice([1.0, -1.0], m)
    k = rng.choice([1.0, -1.0], m)
    pa_j = lambda x: 0.5 * (1 + j * mean_a(x))
    pb_k = lambda x: 0.5 * (1 + k * mean_b(x))
    ch_margin = (pa_j(a) * pb_k(b) - pa_j(a) * pb_k(bp)
                 + pa_j(ap) * pb_k(b) + pa_j(ap) * pb_k(bp)
                 - (1 + k * eta_b) * pa_j(ap) - (1 + j * eta_a) * pb_k(b)
                 + 0.5 * ((1 + j * eta_a) * (1 + k * eta_b) - np.abs(alpha_a * alpha_b)))
    chsh_margin = (np.abs(mean_a(a) * mean_b(b) - mean_a(a) * mean_b(bp)
                          + mean_a(ap) * mean_b(b) + mean_a(ap) * mean_b(bp))
                   - 2 * (np.abs(eta_a) + np.abs(alpha_a)) * (np.abs(eta_b) + np.abs(alpha_b)))

    # Leggett on randomly rotated triple settings with random opening angles
    phi = rng.uniform(1e-3, math.pi - 1e-3, m)
    c_half, s_half = np.cos(phi / 2), np.sin(phi / 2)
    rot = _batch_rotations(rng, m)
    sum_terms = np.zeros(m)
    diff_terms = np.zeros(m)
    mean_b0 = lambda x: alpha_b * np.einsum("mi,mi->m", v, x)  # unbiased B side
    for i in range(3):
        a_base = np.asarray(DEFAULT_AXES[i])
        e_base = np.asarray(DEFAULT_FRAME[i])
        a_i = rot @ a_base
        b_i = np.einsum("mij,mj->mi", rot, c_half[:, None] * a_base + s_half[:, None] * e_base)
        bp_i = np.einsum("mij,mj->mi", rot, c_half[:, None] * a_base - s_half[:, None] * e_base)
        e_b = mean_a(a_i) * mean_b(b_i)
        e_bp = mean_a(a_i) * mean_b(bp_i)
        sum_terms += np.abs(e_b + e_bp)
        e0_b = mean_a(a_i) * mean_b0(b_i)
        e0_bp_flipped = mean_a(a_i) * mean_b0(-bp_i)
        diff_terms += np.abs(e0_b - e0_bp_flipped)
    leggett_margin = sum_terms / 3 + (2 * np.abs(alpha_b) / 3) * s_half - 2.0
    diff_margin = diff_terms / 3 + (2 * np.abs(alpha_b) / 3) * s_half - 2.0

    violations = (int((ch_margin > 0).sum()) + int((chsh_margin > 0).sum())
                  + int((leggett_margin > 0).sum()) + int((diff_margin > 0).sum()))

    # tie the vectorized margins to the package evaluators on a subsample
    idx = rng.integers(0, m, 100)
    tie = 0.0
    for t in idx:
        pa = MeasurementParams(float(eta_a[t]), float(alpha_a[t]))
        pb = MeasurementParams(float(eta_b[t]), float(alpha_b[t]))
        from hyperon_leggett.quantum import Direction
        mk = lambda arr: Direction.normalized(*arr[t])
        report = ch_povm_lhs(
            float(pa_j(a)[t] * pb_k(b)[t]), float(pa_j(a)[t] * pb_k(bp)[t]),
            float(pa_j(ap)[t] * pb_k(b)[t]), float(pa_j(ap)[t] * pb_k(bp)[t]),
            float(pa_j(ap)[t]), float(pb_k(b)[t]), pa, pb, int(j[t]), int(k[t]))
        tie = max(tie, abs(report.margin - float(ch_margin[t])))
        chsh = chsh_povm(float(mean_a(a)[t] * mean_b(b)[t]),
                         float(mean_a(a)[t] * mean_b(bp)[t]),
                         float(mean_a(ap)[t] * mean_b(b)[t]),
                         float(mean_a(ap)[t] * mean_b(bp)[t]), pa, pb)
        tie = max(tie, abs(chsh.margin - float(chsh_margin[t])))
    _report(9, violations == 0 and tie < 1e-12,
            f"local model: 0 violations required, found {violations} over 10^5 trials "
            f"per bound (evaluator tie-in residual {tie:.1e})")

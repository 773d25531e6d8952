"""The oracle cross-check suite of ``hyperon-leggett check``: every closed form against
the 4x4 matrix path, the pair-state table against the density matrices, the sampler's
moments against the table, the symmetric threshold, and the settings construction.

cli imports this module inside ``check`` only, so no other command compiles it.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import MOTHERS, DecayMode, ProductionChannel
from .cli import _closed_form_pairs
from .correlations import (PAIR_STATES, a_side_inversion, correlation_via_operators,
                           joint_prob_matrix, joint_prob_singlet, pair_correlation,
                           pair_density_matrix, spin_correlation_diagonal)
from .geometry import build_settings, settings_arrays
from .inequalities import leggett_sum_curve, leggett_sum_value, symmetric_alpha_threshold
from .povm import MeasurementParams
from .quantum import _BLOCK_ROWS, PAULI, expectation, row_dot, singlet_state, tensor
from .simulation import check_seed, correlation_estimates, event_moments, pair_blocks


def _oracle_residuals(rng: np.random.Generator, trials: int,
                      negative_control: bool) -> dict[str, float]:
    """Max residual of each closed form against the 4x4 matrix path, by identity, over
    ``trials`` random trials, each identity in one call.  Each trial draws (eta, alpha)
    for A, then for B, then directions a and b, in this order from rng."""
    draws = np.array([(*rng.uniform(-1.0, 1.0, 4), *rng.normal(size=6)) for _ in range(trials)])
    eta = draws[:, [0, 2]]
    alpha = draws[:, [1, 3]] * (1.0 - np.abs(eta))
    pa, pb = (MeasurementParams(eta[:, side], alpha[:, side]) for side in (0, 1))
    a, b = (v / np.sqrt(row_dot(v, v))[:, None] for v in (draws[:, 4:7], draws[:, 7:]))
    sign = -1.0 if negative_control else 1.0
    residuals = {"singlet joint table: closed form vs matrix path":
                 joint_prob_singlet(pa, a, pb, b)
                 - joint_prob_matrix(singlet_state(), pa, a, pb, b)}
    for state in PAIR_STATES:
        residuals[f"{state} correlation: closed form vs operator average"] = (
            sign * pair_correlation(state, pa, a_side_inversion(state) * a, pb, b)
            - correlation_via_operators(pair_density_matrix(state), pa, a, pb, b))
    return {name: float(np.max(np.abs(r))) for name, r in residuals.items()}


def _run_checks(seed: int, trials: int, negative_control: bool) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    results: list[tuple[str, bool, str]] = []

    def record(name: str, residual: float, tol: float) -> None:
        ok = residual <= tol
        results.append((name, ok, f"max residual {residual:.3e} (tol {tol:.0e})"))

    # Closed forms against the 4x4 matrix path, _BLOCK_ROWS trials at a time (flat memory).
    blocks = [_oracle_residuals(rng, min(_BLOCK_ROWS, trials - start), negative_control)
              for start in range(0, trials, _BLOCK_ROWS)]
    for name in blocks[0]:
        record(name, max(block[name] for block in blocks), 1e-12)

    # The pair-state table against <sigma_i (x) sigma_j> of each density matrix.
    pauli = np.array(PAULI)
    sigma_pairs = tensor(pauli[:, None], pauli[None, :])
    record("pair-state table vs density-matrix spin correlations",
           max(float(np.max(np.abs(expectation(pair_density_matrix(state), sigma_pairs)
                                   - np.diag(spin_correlation_diagonal(state)))))
               for state in PAIR_STATES), 1e-12)

    # Sampler moments against the table: 9 <n_A,i n_B,j> for every (i, j).
    n_events = 200_000
    worst_sigma = 0.0
    unit_a, unit_b = np.repeat(np.eye(3), 3, axis=0), np.tile(np.eye(3), (3, 1))
    for mother in MOTHERS:
        mode = DecayMode("checkY", "check", 0.9, 0.0, None)
        channel = ProductionChannel(mother, mode, mode)
        means, cov = correlation_estimates(event_moments(pair_blocks(channel, n_events, seed)),
                                           unit_a, unit_b)
        target = 0.9 * 0.9 * np.diag(spin_correlation_diagonal(channel.spin_state)).ravel()
        worst_sigma = max(worst_sigma,
                          float(np.max(np.abs(means - target) / np.sqrt(np.diag(cov)))))
    results.append(("sampler moment matrix vs spin-correlation matrix",
                    worst_sigma <= 5.0, f"max deviation {worst_sigma:.2f} sigma (tol 5)"))

    # Threshold root: closed form against an independent bisection.
    threshold = symmetric_alpha_threshold()
    lo, hi = 0.5, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** 4 + mid ** 2 / 9.0 < 1.0:
            lo = mid
        else:
            hi = mid
    record("symmetric threshold: closed form vs bisection",
           abs(threshold - 0.5 * (lo + hi)), 1e-12)
    record("symmetric threshold: defining polynomial residual",
           abs(threshold ** 4 + threshold ** 2 / 9.0 - 1.0), 1e-10)

    # Geometry identities over a phi grid, then the pair-state curve against
    # the settings path that scan-phi evaluates.
    phis = np.linspace(0.01, math.pi - 0.01, 100)
    invalid = [phi for phi in phis if build_settings(float(phi)).violations]
    results.append(("geometry: construction passes validation on phi grid",
                    not invalid, "100 points"))
    a, b, b_prime = settings_arrays(phis)
    length = np.linalg.norm(b - b_prime, axis=-1)
    record("geometry: |b - b'| = 2 sin(phi/2)",
           float(np.max(np.abs(length - 2.0 * np.sin(0.5 * phis)[:, None]))), 1e-12)
    unsharp = MeasurementParams.unsharp(0.98)
    e, e_prime = _closed_form_pairs("singlet", unsharp, unsharp, a, b, b_prime)
    curve = leggett_sum_value(e + e_prime, unsharp.alpha, phis)
    record("pair-state curve vs settings path",
           float(np.max(np.abs(curve - leggett_sum_curve(phis, 0.98, 0.98)))), 1e-12)

    return results


def check(seed: int, trials: int, negative_control: bool) -> int:
    """Run the suite, print one line per identity and a tally, and return the exit code
    of ``hyperon-leggett check``: 0 if every identity passes, else 1."""
    if trials < 1:
        raise ValueError("--trials must be at least 1")
    check_seed(seed, "--seed")
    results = _run_checks(seed, trials, negative_control)
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1

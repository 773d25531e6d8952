"""Correctness checks for the benchmark's outputs, computed apart from the package.

Every expected value here comes from a closed form or from the raw files the
program wrote, never from a stored copy of an earlier output and never from
the package's own functions.  Each check returns a list of failure messages;
an empty list means the output is correct.
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np

FOLDED_RATIO_RANGE = (0.7, 2.1)
E_SUM_ERROR_REL_TOL = 0.02


def pair_alphas(path: Path, hyperon: str) -> tuple[float, float]:
    """Signed (alpha_a, alpha_b) of a hyperon and its CP-conjugate link, parsed
    from the catalog text."""
    table = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts:
            table[parts[0]] = (float(parts[2]), parts[4] if len(parts) > 4 else "-")
    alpha_a, partner = table[hyperon]
    return alpha_a, table[partner][0]


def max_lhs(alpha_a: float, alpha_b: float) -> float:
    return 2.0 * abs(alpha_b) * math.sqrt(alpha_a * alpha_a + 1.0 / 9.0)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    return lines[0].split(","), data


def _close(name: str, got, want, tol: float) -> list[str]:
    worst = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    return [] if worst <= tol else [f"{name}: max deviation {worst:.3e} > {tol:.0e}"]


def check_scan_phi(path: Path, alpha_a: float, alpha_b: float, steps: int,
                   phi_min_deg: float, phi_max_deg: float) -> list[str]:
    header, data = _read_csv(path)
    if header != ["phi_deg", "phi_rad", "lhs", "bound", "margin", "violated"]:
        return [f"scan-phi: unexpected header {header}"]
    if data.shape != (steps, 6):
        return [f"scan-phi: {data.shape[0]} rows, expected {steps}"]
    phi_deg, phi, lhs, bound, margin, violated = data.T
    grid = np.linspace(math.radians(phi_min_deg), math.radians(phi_max_deg), steps)
    expected = (2.0 * abs(alpha_a * alpha_b) * np.abs(np.cos(0.5 * phi))
                + (2.0 * abs(alpha_b) / 3.0) * np.abs(np.sin(0.5 * phi)))
    failures = (_close("scan-phi phi_rad grid", phi, grid, 1e-12)
                + _close("scan-phi phi_deg", phi_deg, np.degrees(phi), 1e-9)
                + _close("scan-phi lhs vs closed form", lhs, expected, 1e-12)
                + _close("scan-phi bound", bound, 2.0, 0.0)
                + _close("scan-phi margin", margin, lhs - 2.0, 1e-12))
    if not np.array_equal(violated.astype(bool), lhs > 2.0):
        failures.append("scan-phi: violated column disagrees with lhs > 2")
    # lhs(phi) = R cos(phi/2 - theta), so a grid point lies within R*dphi^2/32
    # of the maximum R; R*dphi^2/8 leaves room for rounding.
    peak = max_lhs(alpha_a, alpha_b)
    spacing = grid[1] - grid[0]
    if not peak - peak * spacing ** 2 / 8.0 <= lhs.max() <= peak + 1e-12:
        failures.append(f"scan-phi: grid maximum {float(lhs.max())!r} not within the grid "
                        f"spacing of the closed-form maximum {peak!r}")
    return failures


def check_scan_region(path: Path, steps: int, alpha_min: float, alpha_max: float) -> list[str]:
    header, data = _read_csv(path)
    if header != ["alpha_a", "alpha_b", "lhs", "violated"]:
        return [f"scan-region: unexpected header {header}"]
    if data.shape != (steps * steps, 4):
        return [f"scan-region: {data.shape[0]} rows, expected {steps * steps}"]
    a, b, lhs, violated = data.T
    grid = np.linspace(alpha_min, alpha_max, steps)
    failures = (_close("scan-region alpha_a grid", a, np.repeat(grid, steps), 1e-12)
                + _close("scan-region alpha_b grid", b, np.tile(grid, steps), 1e-12)
                + _close("scan-region lhs vs 2 alpha_b hypot(alpha_a, 1/3)", lhs,
                         2.0 * b * np.sqrt(a * a + 1.0 / 9.0), 1e-12))
    q = (a * a + 1.0 / 9.0) * (b * b)
    wrong = (violated.astype(bool) != (q > 1.0)) & (np.abs(q - 1.0) > 1e-12)
    if wrong.any():
        failures.append(f"scan-region: violated wrong in {int(wrong.sum())} cells")
    return failures


def check_simulate(summary_path: Path, stdout_path: Path, events_path: Path, rc: int,
                   alpha_a: float, alpha_b: float, n_events: int) -> list[str]:
    if rc != 0:
        return [f"simulate: exit code {rc}, expected 0"]
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    failures = []
    if json.loads(stdout_path.read_text(encoding="utf-8")) != summary:
        failures.append("simulate: stdout JSON differs from summary.json")
    if (summary["alpha_a"], summary["alpha_b"], summary["n_events"]) != (alpha_a, alpha_b,
                                                                         n_events):
        failures.append("simulate: alphas or event count differ from the inputs")
    phi = summary["phi_rad"]
    peak = max_lhs(alpha_a, alpha_b)
    sigma = summary["std_error"]
    failures += _close("simulate phi at the optimum 2 atan2(1/3, |alpha_a|)", phi,
                       2.0 * math.atan2(1.0 / 3.0, abs(alpha_a)), 1e-12)
    failures += _close("simulate closed_form_lhs", summary["closed_form_lhs"], peak, 1e-12)
    if not abs(summary["lhs_hat"] - peak) <= 5.0 * sigma:
        failures.append(f"simulate: lhs_hat {summary['lhs_hat']!r} more than 5 std_error "
                        f"({sigma!r}) from {peak!r}")
    e_expected = -alpha_a * alpha_b * 2.0 * math.cos(0.5 * phi)
    for i, (e, err) in enumerate(zip(summary["e_sums"], summary["e_sum_errors"])):
        if not abs(e - e_expected) <= 5.0 * err:
            failures.append(f"simulate: e_sums[{i}] = {e!r} more than 5 sigma from "
                            f"{e_expected!r}")
    if summary["violation_observed"] is not True:
        failures.append("simulate: violation_observed is not true")

    text = events_path.read_text(encoding="utf-8")
    if f"# n_events {n_events}\n" not in text[:2000]:
        failures.append("simulate: events header does not state the event count")
    events = np.loadtxt(io.StringIO(text), comments="#", ndmin=2)
    if events.shape != (n_events, 6):
        return failures + [f"simulate: events file holds {events.shape}, "
                           f"expected ({n_events}, 6)"]
    n_a, n_b = events[:, :3], events[:, 3:]
    failures += _close("simulate event |n_A|^2", np.einsum("ij,ij->i", n_a, n_a), 1.0, 1e-12)
    failures += _close("simulate event |n_B|^2", np.einsum("ij,ij->i", n_b, n_b), 1.0, 1e-12)
    # The default settings have a_i along x, y, z and b_i + b_i' = 2 cos(phi/2) a_i,
    # so the i-th pair sum is 18 cos(phi/2) <n_A,i n_B,i>.
    from_events = 18.0 * math.cos(0.5 * phi) * np.mean(n_a * n_b, axis=0)
    failures += _close("simulate e_sums recomputed from events", from_events,
                       summary["e_sums"], 1e-9)
    return failures


def check_reanalyse(result_path: Path, rc: int, n_events: int, phi_deg: float) -> list[str]:
    """Null channel (alpha_a = alpha_b = 0): decays are isotropic and independent,
    so each pair sum 9 (n_A.a)(n_B.(b + b')) has mean 0 and spread 6|cos(phi/2)|."""
    if rc != 0:
        return [f"reanalyse: exit code {rc}, expected 0"]
    result = json.loads(result_path.read_text(encoding="utf-8"))
    failures = []
    if result["n_events"] != n_events:
        failures.append(f"reanalyse: {result['n_events']} events, expected {n_events}")
    phi = math.radians(phi_deg)
    failures += _close("reanalyse phi_rad", result["phi_rad"], phi, 1e-12)
    sigma = 6.0 * abs(math.cos(0.5 * phi)) / math.sqrt(n_events)
    for i, (e, err) in enumerate(zip(result["e_sums"], result["e_sum_errors"])):
        if not abs(err / sigma - 1.0) <= E_SUM_ERROR_REL_TOL:
            failures.append(f"reanalyse: e_sum_errors[{i}] = {err!r}, analytic {sigma!r}")
        if not abs(e) <= 5.0 * sigma:
            failures.append(f"reanalyse: e_sums[{i}] = {e!r} more than 5 sigma from 0")
    if not 0.0 <= result["lhs_hat"] <= 5.0 * sigma:
        failures.append(f"reanalyse: lhs_hat {result['lhs_hat']!r} outside [0, {5 * sigma!r}]")
    folded = sigma * math.sqrt(3.0 * (1.0 - 2.0 / math.pi)) / 3.0
    low, high = FOLDED_RATIO_RANGE
    if not low <= result["std_error"] / folded <= high:
        failures.append(f"reanalyse: std_error {result['std_error']!r} is "
                        f"{result['std_error'] / folded:.3f} x the folded-normal value "
                        f"{folded!r}, outside [{low}, {high}]")
    return failures

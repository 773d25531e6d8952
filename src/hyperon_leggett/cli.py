"""Command-line surface: predictions, scans, event simulation, and self-checks.

Angles on the command line are degrees; everything internal is radians.
Outputs are plot-ready CSV/JSON with full provenance (tool version, seed,
catalog hash, parameter echo) and no timestamps, so rerunning the echoed
command reproduces every byte.

Exit codes: 0 success (for ``simulate``: violation observed at or above the
significance threshold), 1 completed without a violation (``simulate``) or
with failed identities (``check``), 2 usage or runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .catalog import (CATALOG_ENV_VAR, MOTHERS, DecayMode, ProductionChannel,
                      catalog_sha256, default_catalog_path, load_catalog,
                      make_pair_channel)
from .correlations import (PAIR_STATES, a_side_inversion, correlation_via_operators,
                           joint_prob_matrix, joint_prob_singlet, pair_correlation,
                           pair_density_matrix, spin_correlation_diagonal)
from .floattext import Texts, format_block
from .geometry import build_settings, load_settings, settings_arrays
from .inequalities import (leggett_max_lhs, leggett_sum_curve, leggett_sum_lhs,
                           leggett_sum_value, optimal_phi, symmetric_alpha_threshold)
from .povm import MeasurementParams
from .quantum import _BLOCK_ROWS, PAULI, expectation, row_dot, singlet_state, tensor

TOOL = "hyperon-leggett"


@dataclass(frozen=True)
class ResolvedChannel:
    channel: ProductionChannel
    pa: MeasurementParams
    pb: MeasurementParams
    catalog_path: str
    catalog_sha: str

    def provenance(self) -> dict[str, Any]:
        return {"catalog": self.catalog_path, "catalog_sha256": self.catalog_sha,
                "channel": self.channel.label(), "spin_state": self.channel.spin_state,
                "eta_a": self.pa.eta, "alpha_a": self.pa.alpha,
                "eta_b": self.pb.eta, "alpha_b": self.pb.alpha}


def _resolve_channel(args: argparse.Namespace) -> ResolvedChannel:
    catalog_path = Path(args.catalog) if args.catalog else default_catalog_path()
    if args.channel:
        modes = load_catalog(catalog_path)
        sha = catalog_sha256(catalog_path)
        channel = make_pair_channel(modes, args.channel, mother=args.mother)
        mode_a, mode_b = channel.mode_a, channel.mode_b
        if args.alpha_a is not None:
            mode_a = replace(mode_a, alpha=args.alpha_a)
        if args.alpha_b is not None:
            mode_b = replace(mode_b, alpha=args.alpha_b)
        channel = ProductionChannel(mother=args.mother, mode_a=mode_a, mode_b=mode_b)
        catalog_str = str(catalog_path)
    else:
        if args.alpha_a is None or args.alpha_b is None:
            raise ValueError("provide --channel, or both --alpha-a and --alpha-b")
        mode_a = DecayMode("customA", "custom", args.alpha_a, 0.0)
        mode_b = DecayMode("customB", "custom", args.alpha_b, 0.0)
        channel = ProductionChannel(mother=args.mother, mode_a=mode_a, mode_b=mode_b)
        sha, catalog_str = "-", "-"
    pa = MeasurementParams(args.eta_a, channel.mode_a.alpha)
    pb = MeasurementParams(args.eta_b, channel.mode_b.alpha)
    return ResolvedChannel(channel=channel, pa=pa, pb=pb,
                           catalog_path=catalog_str, catalog_sha=sha)


def _closed_form_pairs(spin_state: str, pa: MeasurementParams, pb: MeasurementParams,
                       a: np.ndarray, b: np.ndarray, b_prime: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (E(a_i, b_i), E(a_i, b_i')) at (..., 3, 3) settings arrays, each of
    shape (..., 3); ``a`` is taken as inverted, as in catalog.channel_correlation."""
    return (pair_correlation(spin_state, pa, a, pb, b),
            pair_correlation(spin_state, pa, a, pb, b_prime))


def _resolve_settings(args: argparse.Namespace, alpha_a: float):
    """The command's settings, refused here if their construction found violations."""
    if args.settings_file:
        settings = load_settings(args.settings_file)
        prefix = f"{args.settings_file}: "
    else:
        phi = math.radians(args.phi_deg) if args.phi_deg is not None else optimal_phi(alpha_a)
        settings = build_settings(phi)
        prefix = "invalid triple settings: "
    if settings.violations:
        raise ValueError(prefix + "; ".join(settings.violations))
    return settings


def _metadata(argv: Sequence[str], extra: Mapping[str, Any]) -> dict[str, Any]:
    return {"tool": TOOL, "version": __version__, "command": " ".join([TOOL, *argv]),
            **extra}


def _emit_json(payload: Mapping[str, Any], out: str | None) -> None:
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_csv(out: str | None, metadata: Mapping[str, Any], header: Sequence[str],
              blocks: Iterator[Sequence[Any]]) -> None:
    """Write a scan as CSV, one floattext.format_block per block of rows, so the whole text
    is never held.  The bytes go to stdout's binary buffer (after its pending text), or,
    for a text stream without one, as text.  The first block is drawn before the output
    is opened, so a scan refused while computing writes nothing.  A block is released
    before the next is drawn, so a scan holds one block at a time if ``blocks`` keeps
    none that it has yielded, as a generator expression does."""
    block = next(blocks)
    head = "".join(f"# {key} {value}\n" for key, value in metadata.items())
    with open(out, "wb") if out else nullcontext(sys.stdout) as fh:
        if out:
            write = fh.write
        else:
            fh.flush()
            write = (fh.buffer.write if hasattr(fh, "buffer")
                     else lambda data: fh.write(str(data, "utf-8")))
        write(f"{head}{','.join(header)}\n".encode("utf-8"))
        while block is not None:
            for text in format_block(block):
                write(text)
            del block  # so that no two blocks are held at once
            block = next(blocks, None)


def cmd_predict(args: argparse.Namespace, argv: Sequence[str]) -> int:
    resolved = _resolve_channel(args)
    settings = _resolve_settings(args, resolved.pa.alpha)
    e, e_prime = _closed_form_pairs(resolved.channel.spin_state, resolved.pa, resolved.pb,
                                    settings.a, settings.b, settings.b_prime)
    report = leggett_sum_lhs(settings, list(zip(e.tolist(), e_prime.tolist())),
                             resolved.pb.alpha)
    phi_star = optimal_phi(resolved.pa.alpha)
    max_lhs = leggett_max_lhs(resolved.pa.alpha, resolved.pb.alpha)
    payload = _metadata(argv, {
        **resolved.provenance(),
        "phi_rad": settings.phi, "phi_deg": math.degrees(settings.phi),
        "report": report.to_dict(),
        "optimal_phi_rad": phi_star,
        "optimal_phi_deg": math.degrees(phi_star),
        "max_lhs": max_lhs,
        "max_violated": max_lhs > 2.0,
        "symmetric_alpha_threshold": symmetric_alpha_threshold(),
    })
    _emit_json(payload, args.out)
    return 0


def _linspace_rows(start: float, stop: float, num: int, first: int, last: int) -> np.ndarray:
    """np.linspace(start, stop, num)[first:last] for num >= 2, by np.linspace's own
    arithmetic, so that a grid made a block at a time has the bits of the whole one."""
    rows, div = np.arange(first, min(last, num), dtype=float), num - 1
    if (stop - start) / div == 0:  # a step that underflows: the grid divides first
        rows /= div
        rows *= stop - start
    else:
        rows *= (stop - start) / div
    rows += start
    if last >= num:
        rows[-1] = stop
    return rows


def cmd_scan_phi(args: argparse.Namespace, argv: Sequence[str]) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if not 0.0 < args.phi_min_deg < args.phi_max_deg <= 180.0:
        raise ValueError("need 0 < --phi-min-deg < --phi-max-deg <= 180")
    resolved = _resolve_channel(args)
    low, high = math.radians(args.phi_min_deg), math.radians(args.phi_max_deg)

    def columns(start: int) -> tuple[np.ndarray, ...]:
        # Row-wise, so a block at a time gives the same bits as the whole grid.
        block = _linspace_rows(low, high, args.steps, start, start + _BLOCK_ROWS)
        e, e_prime = _closed_form_pairs(resolved.channel.spin_state, resolved.pa,
                                        resolved.pb, *settings_arrays(block))
        lhs = leggett_sum_value(e + e_prime, resolved.pb.alpha, block)
        return np.degrees(block), block, lhs, bound, lhs - 2.0, lhs > 2.0

    bound = (Texts([b"%r," % 2.0]), 0)
    _emit_csv(args.out, _metadata(argv, resolved.provenance()),
              ("phi_deg", "phi_rad", "lhs", "bound", "margin", "violated"),
              (columns(start) for start in range(0, args.steps, _BLOCK_ROWS)))
    return 0


def cmd_scan_region(args: argparse.Namespace, argv: Sequence[str]) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if not 0.0 <= args.alpha_min < args.alpha_max <= 1.0:
        raise ValueError("need 0 <= --alpha-min < --alpha-max <= 1")
    grid = np.linspace(args.alpha_min, args.alpha_max, args.steps)
    if np.any(grid[1:] <= grid[:-1]):  # rows sorted by (alpha_a, alpha_b) need distinct values
        raise ValueError("--alpha-min and --alpha-max are too close for --steps distinct values")
    grid_text = Texts([b"%r," % v for v in grid.tolist()])
    rows = args.steps ** 2

    def columns(start: int) -> tuple[Any, ...]:
        # Row k is the cell (alpha_a, alpha_b) = grid[divmod(k, steps)]: alpha_a slow.
        i, j = np.divmod(np.arange(start, min(start + _BLOCK_ROWS, rows)), args.steps)
        lhs = leggett_max_lhs(grid[i], grid[j])
        return (grid_text, i), (grid_text, j), lhs, lhs > 2.0

    _emit_csv(args.out, _metadata(argv, {
        "bound": 2.0,
        "boundary": "(alpha_a^2 + 1/9) * alpha_b^2 = 1",
        "symmetric_alpha_threshold": symmetric_alpha_threshold(),
    }), ("alpha_a", "alpha_b", "lhs", "violated"),
        (columns(start) for start in range(0, rows, _BLOCK_ROWS)))
    return 0


def cmd_simulate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    # The event modules load here and in check only: the scans and predict never sample.
    from .simulation import GENERATOR, check_seed, leggett_lhs_from_moments, write_pair_events

    if args.events < 100:
        raise ValueError("--events must be at least 100 for the estimators")
    check_seed(args.seed, "--seed")
    # A threshold at or below 0 would report a violation for an lhs_hat at or below the bound.
    if not 0.0 < args.sigma_threshold < math.inf:
        raise ValueError(f"--sigma-threshold must be finite and positive, "
                         f"got {args.sigma_threshold!r}")
    resolved = _resolve_channel(args)
    if resolved.pa.eta != 0.0 or resolved.pb.eta != 0.0:
        raise ValueError("event simulation models unbiased decay measurements; "
                         "eta overrides are not supported here")
    settings = _resolve_settings(args, resolved.pa.alpha)
    channel = resolved.channel

    # The events stream to a partial file, renamed once the estimate is accepted; a
    # refused run removes it and the directories it made.
    out_dir = Path(args.out)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    events_path, partial_path = out_dir / "events.txt", out_dir / "events.txt.partial"
    try:
        with open(partial_path, "wb") as fh:
            moments = write_pair_events(fh, channel, args.events, args.seed,
                                        resolved.catalog_sha)
        estimate = leggett_lhs_from_moments(moments, settings, args.seed,
                                            float(channel.mode_b.alpha), channel.spin_state)
        # A few ulps of lhs_hat is rounding, as when b_i' = -b_i to rounding at alpha_a = 0.
        if estimate.std_error <= 8.0 * np.spacing(abs(estimate.lhs_hat)):
            raise ValueError("the estimate has zero standard error (every event gives the "
                             "same pair sums at these settings), so its significance is "
                             "undefined")
        partial_path.replace(events_path)
    except BaseException:
        partial_path.unlink(missing_ok=True)
        for directory in created:
            directory.rmdir()
        raise
    e, e_prime = _closed_form_pairs(channel.spin_state, resolved.pa, resolved.pb,
                                    settings.a, settings.b, settings.b_prime)

    significance = (estimate.lhs_hat - 2.0) / estimate.std_error
    violation = significance >= args.sigma_threshold
    # eta overrides are refused above, so the summary carries no eta keys.
    unbiased = {k: v for k, v in resolved.provenance().items() if not k.startswith("eta_")}
    payload = _metadata(argv, {
        **unbiased,
        "generator": GENERATOR,
        "seed": args.seed,
        "n_events": args.events,
        "phi_rad": settings.phi, "phi_deg": math.degrees(settings.phi),
        "events_file": str(events_path),
        "lhs_hat": estimate.lhs_hat,
        "std_error": estimate.std_error,
        "error_method": estimate.method,
        "e_sums": list(estimate.e_sums),
        "e_sum_errors": list(estimate.e_sum_errors),
        "bound": 2.0,
        "closed_form_lhs": leggett_sum_value(e + e_prime, resolved.pb.alpha, settings.phi),
        "significance": significance,
        "sigma_threshold": args.sigma_threshold,
        "violation_observed": violation,
    })
    summary_path = out_dir / "summary.json"
    _emit_json(payload, str(summary_path))
    _emit_json(payload, None)
    return 0 if violation else 1


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
    from .simulation import correlation_estimates, event_moments, pair_blocks

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


def cmd_check(args: argparse.Namespace, argv: Sequence[str]) -> int:
    from .simulation import check_seed

    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    check_seed(args.seed, "--seed")
    results = _run_checks(args.seed, args.trials, args.negative_control)
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, that takes every negative
    number float() reads for a value, not an option: the exponent form (-1e-05, as repr
    writes -0.00001) and -inf, -infinity and -nan in any letter case. argparse's own
    test in Python 3.10 to 3.12 knows only forms like -1 and -.5."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)\Z", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=TOOL,
        description="Nonlocal-realism and local-realism bound tests for entangled "
                    "hyperon pairs measured through their weak decays.")
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--channel", help="hyperon name from the catalog; the B side "
                                         "is its CP-conjugate link")
        p.add_argument("--mother", choices=MOTHERS, default="eta_c",
                       help="production channel mother (default: eta_c)")
        p.add_argument("--alpha-a", type=float, default=None,
                       help="override the A-side decay asymmetry")
        p.add_argument("--alpha-b", type=float, default=None,
                       help="override the B-side decay asymmetry")
        p.add_argument("--eta-a", type=float, default=0.0,
                       help="A-side measurement bias (default 0)")
        p.add_argument("--eta-b", type=float, default=0.0,
                       help="B-side measurement bias (default 0)")
        p.add_argument("--catalog", default=None,
                       help=f"decay catalog file (default: ${CATALOG_ENV_VAR} "
                            "or the packaged table)")

    def add_settings_args(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--phi-deg", type=float, default=None,
                           help="pair opening angle in degrees (default: the optimum)")
        group.add_argument("--settings-file", default=None,
                           help="settings file overriding the built-in construction")

    p_predict = sub.add_parser("predict", help="closed-form bound evaluation at one angle")
    add_channel_args(p_predict)
    add_settings_args(p_predict)
    p_predict.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_predict.set_defaults(func=cmd_predict)

    p_scan = sub.add_parser("scan-phi", help="left-hand side over an opening-angle grid (CSV)")
    add_channel_args(p_scan)
    p_scan.add_argument("--phi-min-deg", type=float, default=0.1)
    p_scan.add_argument("--phi-max-deg", type=float, default=180.0)
    p_scan.add_argument("--steps", type=int, default=1001)
    p_scan.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_scan.set_defaults(func=cmd_scan_phi)

    p_region = sub.add_parser("scan-region",
                              help="violation region over the (alpha_a, alpha_b) square (CSV)")
    p_region.add_argument("--alpha-min", type=float, default=0.0)
    p_region.add_argument("--alpha-max", type=float, default=1.0)
    p_region.add_argument("--steps", type=int, default=101, help="grid points per axis")
    p_region.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_region.set_defaults(func=cmd_scan_region)

    p_sim = sub.add_parser("simulate", help="generate decay events and estimate the bound")
    add_channel_args(p_sim)
    p_sim.add_argument("--events", type=int, required=True, help="number of pair events")
    p_sim.add_argument("--seed", type=int, default=1, help="64-bit generator seed")
    add_settings_args(p_sim)
    p_sim.add_argument("--sigma-threshold", type=float, default=3.0,
                       help="significance (in standard errors) required to report "
                            "a violation; finite and positive (default 3)")
    p_sim.add_argument("--out", default=".",
                       help="output directory for events.txt and summary.json")
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", help="run the oracle cross-check suite")
    p_check.add_argument("--seed", type=int, default=20250809)
    p_check.add_argument("--trials", type=int, default=200,
                         help="random trials per identity (default 200)")
    p_check.add_argument("--negative-control", action="store_true",
                         help="inject a sign flip to confirm the checks can fail")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())

"""The repository's benchmark: three workloads of hyperon_leggett, each run in
child processes from the root of a checkout.

    python3 perfbench/run.py --workload {simulate,scan,reanalyse} --seed N \
        --seconds S --trace {0,1}

A run sets the workload up several times, then starts timed operations (one
child process each) until S seconds have passed, checks every output against
values computed apart from the package, and prints as its last line one JSON
object with "correct", "attempted", "failed" and "metrics".  The run is pinned
to one CPU, and a fixed pure-Python probe is timed before and after every
child; each child's wall time is scaled by the probe's reference time over the
mean of those two probes, which takes out the host's speed drift.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the operations alternate
untraced and traced children and the metrics are the per-layer ones.  See
perfbench/README.md for the workloads, metrics and noise study.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

ROOT = Path.cwd()
PACKAGE = ROOT / "src" / "hyperon_leggett"
CATALOG = PACKAGE / "data" / "decay_modes.txt"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().with_name("child.py")
CHILD_TIMEOUT_S = 120.0
# The host-speed probe: PROBE_LOOPS pure-Python iterations take about
# PROBE_REFERENCE_S on an uncontended vCPU of the reference machine (README).
PROBE_LOOPS = 2_000_000
PROBE_REFERENCE_S = 0.25

SIMULATE_EVENTS = 500_000
SIMULATE_SIGMA_THRESHOLD = 2.0  # expected significance at 500k events is about 7.5
SCAN_PHI_STEPS = 20_000
SCAN_REGION_STEPS = 301
REANALYSE_EVENTS = 200_000
NULL_CATALOG = ("# columns: hyperon channel alpha alpha_uncertainty cp_conjugate\n"
                "Null     null  0.0  0.0  NullBar\n"
                "NullBar  null  0.0  0.0  Null\n")


@dataclass
class Child:
    """One finished child process: wall time from spawn to exit, its own peak RSS."""

    rc: int
    wall_s: float
    peak_rss_bytes: int
    t_spawn: float
    t_exit: float
    trace: dict | None = None
    corrected_s: float = 0.0  # wall_s at the probe's reference speed


def probe() -> float:
    """Seconds of a fixed pure-Python task (integer sums, float formatting,
    list appends): the host's speed right now, on the pinned CPU."""
    t0 = time.perf_counter()
    total, parts = 0, []
    for j in range(PROBE_LOOPS):
        total += j
        if j % 8 == 0:
            parts.append("%.17g" % (j * 0.37))
    return time.perf_counter() - t0


def corrected(wall_s: float, probe_before: float, probe_after: float) -> float:
    return wall_s * PROBE_REFERENCE_S / ((probe_before + probe_after) / 2)


def pin_to_one_cpu() -> None:
    """Run the parent, its probes and every child on the same CPU, so that the
    probes see the speed the children get."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HYPERON_LEGGETT_CATALOG", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(steps: list, log_stem: Path, trace: bool = False) -> Child:
    trace_path = log_stem.with_suffix(".trace.json")
    hwm_path = log_stem.with_suffix(".vmhwm")
    hwm_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), json.dumps(steps), str(hwm_path)]
    if trace:
        argv.append(str(trace_path))
    with open(log_stem.with_suffix(".stdout"), "wb") as out, \
            open(log_stem.with_suffix(".stderr"), "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        t_exit = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # The child's own VmHWM, not the rusage ru_maxrss: that one starts from
    # the parent's resident size at spawn, so it reads the parent's memory
    # whenever the parent is the larger.
    peak_rss = int(hwm_path.read_text()) if hwm_path.is_file() else 0
    result = Child(rc=proc.returncode, wall_s=t_exit - t_spawn,
                   peak_rss_bytes=peak_rss, t_spawn=t_spawn, t_exit=t_exit)
    if trace and result.rc == 0:
        result.trace = json.loads(trace_path.read_text(encoding="utf-8"))
    return result


def digest(paths: list[Path]) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


@dataclass
class Workload:
    items: int                      # events, or grid points, per operation
    op_steps: list                  # child steps of one timed operation
    repro_files: list[Path]         # outputs that repeat byte for byte
    io_files: list[Path]            # files one operation reads or writes
    check: Callable[[int], list[str]]  # independent checks, given the last exit code
    setup_steps: list
    setup_reps: int
    setup_ok: tuple[int, ...] = (0,)
    setup_repro: list[Path] = field(default_factory=list)
    setup_files: dict[Path, str] = field(default_factory=dict)  # written before each rep
    trace_setup: bool = False       # set-up runs program code the traced run reports


def simulate_workload(seed: int, out: Path) -> Workload:
    """simulate --channel SigmaPlus at the optimal angle: sampling, the
    delta-method estimator and writing the event text."""
    alpha_a, alpha_b = checks.pair_alphas(CATALOG, "SigmaPlus")
    run_dir = out / "run"
    argv = ["simulate", "--channel", "SigmaPlus", "--events", str(SIMULATE_EVENTS),
            "--seed", str(seed), "--sigma-threshold", repr(SIMULATE_SIGMA_THRESHOLD),
            "--out", str(run_dir)]
    warmup = ["simulate", "--channel", "SigmaPlus", "--events", "2000", "--seed", str(seed),
              "--out", str(out / "warmup")]
    events, summary, stdout = run_dir / "events.txt", run_dir / "summary.json", out / "op.stdout"
    return Workload(
        items=SIMULATE_EVENTS, op_steps=[["cli", *argv]],
        repro_files=[events, summary, stdout], io_files=[events, summary],
        check=lambda rc: checks.check_simulate(summary, stdout, events, rc, alpha_a,
                                               alpha_b, SIMULATE_EVENTS),
        # A 2000-event warm-up completes without a significant violation (exit 1).
        setup_steps=[["cli", *warmup]], setup_reps=7, setup_ok=(0, 1))


def scan_workload(seed: int, out: Path) -> Workload:
    """scan-phi on a fine phi grid, then scan-region on a fine alpha grid, in
    one process: per-point objects and per-cell CSV formatting."""
    rng = random.Random(seed)
    phi_min, phi_max = 0.1 + 0.1 * rng.random(), 180.0 - 0.5 * rng.random()
    alpha_min, alpha_max = 0.01 * rng.random(), 1.0 - 0.01 * rng.random()
    alpha_a, alpha_b = checks.pair_alphas(CATALOG, "SigmaPlus")
    phi_csv, region_csv = out / "phi.csv", out / "region.csv"
    steps = [["cli", "scan-phi", "--channel", "SigmaPlus", "--steps", str(SCAN_PHI_STEPS),
              "--phi-min-deg", repr(phi_min), "--phi-max-deg", repr(phi_max),
              "--out", str(phi_csv)],
             ["cli", "scan-region", "--steps", str(SCAN_REGION_STEPS),
              "--alpha-min", repr(alpha_min), "--alpha-max", repr(alpha_max),
              "--out", str(region_csv)]]
    warmup = [["cli", "scan-phi", "--channel", "SigmaPlus", "--steps", "200",
               "--out", str(out / "warmup_phi.csv")],
              ["cli", "scan-region", "--steps", "11", "--out", str(out / "warmup_region.csv")]]

    def check(rc: int) -> list[str]:
        if rc != 0:
            return [f"scan: exit code {rc}, expected 0"]
        return (checks.check_scan_phi(phi_csv, alpha_a, alpha_b, SCAN_PHI_STEPS,
                                      phi_min, phi_max)
                + checks.check_scan_region(region_csv, SCAN_REGION_STEPS, alpha_min,
                                           alpha_max))
    return Workload(
        items=SCAN_PHI_STEPS + SCAN_REGION_STEPS ** 2, op_steps=steps,
        repro_files=[phi_csv, region_csv], io_files=[phi_csv, region_csv], check=check,
        setup_steps=warmup, setup_reps=7)


def reanalyse_workload(seed: int, out: Path) -> Workload:
    """load_events on a recorded null-channel sample, then estimate_leggett_lhs
    away from phi = pi: the only workload that reads events, and the one whose
    vanishing pair sums send the estimator to its bootstrap."""
    phi_deg = random.Random(seed).uniform(60.0, 120.0)
    catalog, events, result = out / "null_catalog.txt", out / "null_events.txt", out / "result.json"
    return Workload(
        items=REANALYSE_EVENTS,
        op_steps=[["reanalyse", str(catalog), "Null", str(events), repr(phi_deg), str(result)]],
        repro_files=[result], io_files=[events, result],
        check=lambda rc: checks.check_reanalyse(result, rc, REANALYSE_EVENTS, phi_deg),
        setup_steps=[["make-sample", str(catalog), "Null", REANALYSE_EVENTS, seed, str(events)]],
        setup_reps=3, setup_repro=[catalog, events], setup_files={catalog: NULL_CATALOG},
        trace_setup=True)


WORKLOADS = {"simulate": simulate_workload, "scan": scan_workload,
             "reanalyse": reanalyse_workload}


def layer_figures(child: Child) -> dict[str, float]:
    """Additive per-layer figures of one traced child: self seconds, calls, counts."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for path, (n, _inclusive, self_time) in child.trace["paths"].items():
        name = path.rsplit("/", 1)[-1]
        self_s[name] = self_s.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + n
    cli_main = sum(inc for path, (_n, inc, _s) in child.trace["paths"].items()
                   if path.endswith("/cli.main"))
    counts = child.trace["counts"]
    return {
        "process.startup_s": child.trace["t_start"] - child.t_spawn,
        "process.import_s": self_s.get("process.import", 0.0),
        "process.exit_s": child.t_exit - child.trace["t_end"],
        "process.self_s": self_s["child"],
        "catalog.load_s": sum(self_s.get(f"catalog.{f}", 0.0) for f in
                              ("load_catalog", "catalog_sha256", "make_pair_channel")),
        "simulation.sample_pair_decay_s": self_s.get("simulation.sample_pair_decay", 0.0),
        "simulation.events": counts.get("simulation.events", 0),
        "simulation.estimate_leggett_lhs_s": self_s.get("simulation.estimate_leggett_lhs", 0.0),
        "simulation.save_events_s": self_s.get("simulation.save_events", 0.0),
        "simulation.save_events_mb": counts.get("simulation.save_events_bytes", 0) / 1e6,
        "simulation.load_events_s": self_s.get("simulation.load_events", 0.0),
        "simulation.load_events_mb": counts.get("simulation.load_events_bytes", 0) / 1e6,
        "geometry.build_settings_calls": calls.get("geometry.build_settings", 0),
        "geometry.build_settings_s": self_s.get("geometry.build_settings", 0.0),
        "geometry.validate_settings_calls": calls.get("geometry.validate_settings", 0),
        "geometry.validate_settings_s": self_s.get("geometry.validate_settings", 0.0),
        "correlations.correlation_calls": sum(calls.get(f"correlations.correlation_{k}", 0)
                                              for k in ("singlet", "triplet_m0")),
        "correlations.correlation_s": sum(self_s.get(f"correlations.correlation_{k}", 0.0)
                                          for k in ("singlet", "triplet_m0")),
        "inequalities.leggett_sum_lhs_calls": calls.get("inequalities.leggett_sum_lhs", 0),
        "inequalities.leggett_sum_lhs_s": self_s.get("inequalities.leggett_sum_lhs", 0.0),
        "quantum.direction_constructed": counts.get("quantum.direction_constructed", 0),
        "povm.measurement_params_constructed":
            counts.get("povm.measurement_params_constructed", 0),
        "cli.main_s": cli_main,
        "cli.self_s": self_s.get("cli.main", 0.0),
        "trace.span_coverage": (child.trace["t_end"] - child.trace["t_start"]) / child.wall_s,
    }


def per_layer_metrics(phases: list[list[Child]], untraced: list[Child],
                      probes: list[float]) -> dict:
    """Median over the traced children of each phase, summed over the phases
    (the traced set-up, where it runs program code, and the timed operation)."""
    totals: dict[str, float] = {}
    for children in phases:
        figures = [layer_figures(c) for c in children]
        for key in figures[0]:
            if key != "trace.span_coverage":
                totals[key] = totals.get(key, 0.0) + statistics.median(f[key] for f in figures)
    timed = phases[-1]
    totals["trace.span_coverage"] = statistics.median(layer_figures(c)["trace.span_coverage"]
                                                      for c in timed)
    traced_wall = statistics.median(c.corrected_s for c in timed)
    totals["trace.wall_s"] = traced_wall
    totals["trace.overhead_s"] = traced_wall - statistics.median(c.corrected_s
                                                                 for c in untraced)
    totals["host.probe_s"] = statistics.median(probes)
    for io in ("save", "load"):
        seconds = totals[f"simulation.{io}_events_s"]
        mb = totals.pop(f"simulation.{io}_events_mb")
        totals[f"simulation.{io}_events_mb_per_s"] = mb / seconds if seconds else 0.0
    units = {"_mb_per_s": "MB/s", "_s": "s", "_calls": "count", "_constructed": "count",
             "_coverage": "ratio", ".events": "count"}
    metrics = {}
    for key, value in sorted(totals.items()):
        unit = next(u for suffix, u in units.items() if key.endswith(suffix))
        metrics[key] = {"value": round(value) if unit == "count" else value, "unit": unit}
    return metrics


def run(workload: Workload, seconds: float, trace: bool, out: Path) -> dict:
    failures: list[str] = []
    setup_walls, setup_traced = [], []
    setup_digest = None
    probes = [probe()]
    for _ in range(workload.setup_reps):
        t0 = time.perf_counter()
        for path, text in workload.setup_files.items():
            path.write_text(text, encoding="utf-8")
        child = run_child(workload.setup_steps, out / "setup",
                          trace=trace and workload.trace_setup)
        wall = time.perf_counter() - t0
        probes.append(probe())
        setup_walls.append(corrected(wall, probes[-2], probes[-1]))
        if child.rc not in workload.setup_ok:
            failures.append(f"set-up exited with {child.rc}: "
                            + (out / "setup.stderr").read_text(errors="replace")[-500:])
            break
        if child.trace:
            setup_traced.append(child)
        this_digest = digest(workload.setup_repro)
        if setup_digest is None:
            setup_digest = this_digest
        elif this_digest != setup_digest:
            failures.append("set-up outputs differ between repetitions with the same seed")

    untraced, traced = [], []
    first_digest, last_rc = None, 0
    failed = 1 if failures else 0  # a failed set-up counts as one failed operation
    start = time.perf_counter()
    while not failures and (not untraced or time.perf_counter() - start < seconds):
        for tracing in ((False, True) if trace else (False,)):
            child = run_child(workload.op_steps, out / "op", trace=tracing)
            probes.append(probe())
            child.corrected_s = corrected(child.wall_s, probes[-2], probes[-1])
            last_rc = child.rc
            if child.rc != 0:
                failed += 1
                failures.append(f"operation exited with {child.rc}: "
                                + (out / "op.stderr").read_text(errors="replace")[-500:])
                continue
            (traced if tracing else untraced).append(child)
            this_digest = digest(workload.repro_files)
            if first_digest is None:
                first_digest = this_digest
            elif this_digest != first_digest:
                failures.append("outputs differ between operations with the same seed")
    attempted = len(untraced) + len(traced) + failed

    if untraced and not failed:
        failures += workload.check(last_rc)
    if trace:
        phases = ([setup_traced] if setup_traced else []) + [traced]
        metrics = per_layer_metrics(phases, untraced, probes) if traced and untraced else {}
    elif untraced:
        wall = statistics.median(c.corrected_s for c in untraced)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": workload.items / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(c.peak_rss_bytes for c in untraced) / 1e6,
                            "unit": "MB"},
            "io_mb": {"value": sum(p.stat().st_size for p in workload.io_files) / 1e6,
                      "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
        }
    else:
        metrics = {}
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    if untraced:
        print(f"uncorrected: median wall {statistics.median(c.wall_s for c in untraced):.4g} s "
              f"over {len(untraced)} operations; median probe {statistics.median(probes):.4g} s "
              f"(reference {PROBE_REFERENCE_S} s) over {len(probes)}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: {PACKAGE} not found; run from the root of a hyperon-leggett checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must lie in [0, 2**63)")
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    pin_to_one_cpu()
    result = run(WORKLOADS[args.workload](args.seed, out), args.seconds, bool(args.trace), out)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

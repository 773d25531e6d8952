"""One benchmark operation, run in its own process by perfbench/run.py.

Usage: python3 perfbench/child.py STEPS_JSON HWM_OUT [TRACE_OUT]

STEPS_JSON is a list of steps, run in order in this one process:

  ["cli", arg, ...]                        hyperon_leggett.cli.main(args)
  ["make-sample", catalog, hyperon, n_events, seed, events_path]
  ["reanalyse", catalog, hyperon, events_path, phi_deg, result_path]

The exit code is the first non-zero step exit code, else 0.  When the steps
end, the process's peak resident size (VmHWM, bytes) is written to HWM_OUT.

With TRACE_OUT the layer functions are wrapped where their callers import
them, spans are aggregated in memory by call path (calls, inclusive and self
seconds), and the aggregate is written to TRACE_OUT as JSON when the steps end.
Without it nothing is wrapped, so the untraced run executes the package as is.
"""

import time

T_START = time.perf_counter()  # CLOCK_MONOTONIC: comparable with the parent's clock

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# Public functions timed as spans, by defining module.  A wrapper replaces the
# function in every package module that imported it, so calls from cli,
# inequalities, simulation, ... and from the steps below all pass through it.
LAYER_FUNCTIONS = {
    "catalog": ("load_catalog", "catalog_sha256", "make_pair_channel"),
    "geometry": ("build_settings", "validate_settings"),
    "correlations": ("correlation_singlet", "correlation_triplet_m0"),
    "inequalities": ("leggett_sum_lhs",),
    "simulation": ("sample_pair_decay", "estimate_leggett_lhs", "save_events",
                   "load_events"),
    "cli": ("main",),
}
# Work counted from a wrapped call's positional arguments, after the call.
ARGUMENT_COUNTERS = {
    "simulation.sample_pair_decay": ("simulation.events", lambda args: int(args[1])),
    "simulation.save_events": ("simulation.save_events_bytes",
                               lambda args: os.path.getsize(args[0])),
    "simulation.load_events": ("simulation.load_events_bytes",
                               lambda args: os.path.getsize(args[0])),
}
PACKAGE_MODULES = ("quantum", "povm", "geometry", "correlations", "inequalities",
                   "catalog", "simulation", "cli")


class Tracer:
    """Nested spans aggregated by call path; counters for per-object work."""

    def __init__(self, start: float) -> None:
        self.stack = [["child", start, 0.0]]  # [path, start, time in child spans]
        self.paths: dict[str, list[float]] = {}  # path -> [calls, inclusive, self]
        self.counts: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self.stack.append([self.stack[-1][0] + "/" + name, time.perf_counter(), 0.0])

    def leave(self) -> None:
        end = time.perf_counter()
        path, start, in_children = self.stack.pop()
        duration = end - start
        self.stack[-1][2] += duration
        entry = self.paths.setdefault(path, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - in_children

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn):
        counter = ARGUMENT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if counter:
                self.count(counter[0], counter[1](args))
            return result
        return traced

    def install(self, package) -> None:
        modules = [getattr(package, m) for m in PACKAGE_MODULES] + [package]
        for module_name, functions in LAYER_FUNCTIONS.items():
            defining = getattr(package, module_name)
            for fn_name in functions:
                original = getattr(defining, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapper)
        self._count_constructions(package.quantum.Direction, "quantum.direction_constructed")
        self._count_constructions(package.povm.MeasurementParams,
                                  "povm.measurement_params_constructed")

    def _count_constructions(self, cls, name: str) -> None:
        post_init = cls.__post_init__

        def counted(obj) -> None:
            self.count(name)
            post_init(obj)
        cls.__post_init__ = counted

    def finish(self, out_path: str) -> None:
        end = time.perf_counter()
        path, start, in_children = self.stack.pop()
        self.paths[path] = [1, end - start, end - start - in_children]
        payload = {"t_start": start, "t_end": end, "paths": self.paths,
                   "counts": self.counts}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)


def resolve_channel(package, catalog_path: str, hyperon: str):
    modes = package.catalog.load_catalog(catalog_path)
    sha = package.catalog.catalog_sha256(catalog_path)
    return package.catalog.make_pair_channel(modes, hyperon), sha


def make_sample(package, catalog_path, hyperon, n_events, seed, events_path) -> int:
    channel, sha = resolve_channel(package, catalog_path, hyperon)
    sample = package.simulation.sample_pair_decay(channel, int(n_events), int(seed),
                                                  catalog_sha256=sha)
    package.simulation.save_events(events_path, sample)
    return 0


def reanalyse(package, catalog_path, hyperon, events_path, phi_deg, result_path) -> int:
    """Re-estimate the sum-form bound from recorded events after checking that
    the events were generated from the catalog entry they claim."""
    channel, sha = resolve_channel(package, catalog_path, hyperon)
    sample = package.simulation.load_events(events_path)
    recorded = (sample.catalog_sha256, sample.alpha_a, sample.alpha_b)
    if recorded != (sha, channel.mode_a.alpha, channel.mode_b.alpha):
        print(f"error: {events_path} does not match catalog {catalog_path}", file=sys.stderr)
        return 2
    settings = package.geometry.build_settings(math.radians(float(phi_deg)))
    estimate = package.simulation.estimate_leggett_lhs(sample, settings)
    result = {"n_events": sample.n_events, "phi_rad": settings.phi,
              "lhs_hat": estimate.lhs_hat, "std_error": estimate.std_error,
              "error_method": estimate.method, "e_sums": list(estimate.e_sums),
              "e_sum_errors": list(estimate.e_sum_errors)}
    with open(result_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
    return 0


def write_peak_rss(out_path: str) -> None:
    """This process's VmHWM in bytes.  It counts only the memory of this
    program image, unlike ru_maxrss, which carries over the parent's."""
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(f"{kib * 1024}\n")


def main() -> int:
    steps = json.loads(sys.argv[1])
    hwm_out = sys.argv[2]
    trace_out = sys.argv[3] if len(sys.argv) > 3 else None
    tracer = Tracer(T_START) if trace_out else None

    if tracer:
        tracer.enter("process.import")
    import hyperon_leggett
    import hyperon_leggett.cli  # noqa: F401  (loads every layer module)
    if tracer:
        tracer.leave()
        tracer.install(hyperon_leggett)

    rc = 0
    for kind, *args in steps:
        if kind == "cli":
            step_rc = hyperon_leggett.cli.main(args)
        elif kind == "make-sample":
            step_rc = make_sample(hyperon_leggett, *args)
        elif kind == "reanalyse":
            step_rc = reanalyse(hyperon_leggett, *args)
        else:
            raise ValueError(f"unknown step {kind!r}")
        rc = rc or step_rc
    if tracer:
        tracer.finish(trace_out)
    write_peak_rss(hwm_out)
    return rc


if __name__ == "__main__":
    sys.exit(main())

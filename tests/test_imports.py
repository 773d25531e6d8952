"""Which modules a command loads: the package resolves its exports and submodules on
first access, the scans, which never sample, load neither the event modules nor
OpenSSL (hashlib's _hashlib, or numpy.random, which maps it through secrets and hmac),
simulate loads the float-text kernel its writer runs but builds no reader table, and
a re-analysis of recorded events, bootstrap included, loads neither numpy.random nor
OpenSSL."""

import json
import os
import subprocess
import sys
from pathlib import Path

import hyperon_leggett
from hyperon_leggett import DecayMode, ProductionChannel, sample_pair_decay, save_events

SRC = str(Path(hyperon_leggett.__file__).resolve().parents[1])
# The event modules and the two ways to OpenSSL: a scan needs none of them.
EVENT_STACK = ("hyperon_leggett.simulation", "hyperon_leggett.eventtext", "_hashlib",
               "numpy.random")


def fresh(code: str) -> object:
    """The JSON that ``code`` prints, run in a new interpreter on this source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("HYPERON_LEGGETT_CATALOG", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return json.loads(proc.stdout)


def test_scans_load_neither_the_event_stack_nor_openssl(tmp_path):
    phi, region = str(tmp_path / "phi.csv"), str(tmp_path / "region.csv")
    result = fresh(f"""
import json, sys
import numpy
numpy_own = set(sys.modules)  # numpy 1.x itself imports numpy.random
from hyperon_leggett import cli
codes = [cli.main(["scan-phi", "--channel", "SigmaPlus", "--steps", "300", "--out", {phi!r}]),
         cli.main(["scan-region", "--steps", "21", "--out", {region!r}])]
loaded = set({EVENT_STACK!r}) & (set(sys.modules) - numpy_own)
print(json.dumps({{"codes": codes, "loaded": sorted(loaded),
                  "floattext": "hyperon_leggett.floattext" in sys.modules}}))
""")
    assert result == {"codes": [0, 0], "loaded": [], "floattext": True}
    assert len(Path(region).read_text().splitlines()) > 21 ** 2


def test_simulate_loads_the_writer_stack_and_no_reader_table(tmp_path):
    out = str(tmp_path / "sim")
    result = fresh(f"""
import contextlib, io, json, sys
from hyperon_leggett import cli
with contextlib.redirect_stdout(io.StringIO()):  # simulate prints its summary
    code = cli.main(["simulate", "--channel", "SigmaPlus", "--events", "5000", "--out", {out!r}])
from hyperon_leggett import eventtext
print(json.dumps({{"code": code, "reader_tables": eventtext._reader_tables.cache_info().currsize,
                  "loaded": sorted(m for m in sys.modules if m.startswith("hyperon_leggett."))}}))
""")
    assert result.pop("code") in (0, 1)  # 1: too few events to see the violation
    assert result == {"reader_tables": 0, "loaded": [
        "hyperon_leggett.catalog", "hyperon_leggett.cli", "hyperon_leggett.correlations",
        "hyperon_leggett.eventtext", "hyperon_leggett.floattext", "hyperon_leggett.geometry",
        "hyperon_leggett.inequalities", "hyperon_leggett.povm", "hyperon_leggett.quantum",
        "hyperon_leggett.simulation"]}


def test_reanalysis_on_the_bootstrap_path_loads_neither_numpy_random_nor_openssl(tmp_path):
    # alpha_b = 0 makes every pair sum vanish, so the estimate takes the bootstrap.
    events = str(tmp_path / "events.txt")
    channel = ProductionChannel("eta_c", DecayMode("A", "x_y", 0.9, 0.0),
                                DecayMode("B", "x_y", 0.0, 0.0))
    save_events(events, sample_pair_decay(channel, 5000, 43))
    result = fresh(f"""
import json, sys
import numpy
numpy_own = set(sys.modules)  # numpy 1.x itself imports numpy.random
from hyperon_leggett import build_settings, estimate_leggett_lhs, load_events
estimate = estimate_leggett_lhs(load_events({events!r}), build_settings(1.0))
loaded = {{"numpy.random", "_hashlib", "hmac"}} & (set(sys.modules) - numpy_own)
print(json.dumps({{"method": estimate.method, "loaded": sorted(loaded)}}))
""")
    assert result == {"method": "bootstrap", "loaded": []}


def test_package_loads_its_modules_on_first_access():
    result = fresh("""
import json, sys
import hyperon_leggett
alone = sorted(m for m in sys.modules if m.startswith("hyperon_leggett."))
simulation = hyperon_leggett.simulation
print(json.dumps({"alone": alone, "simulation": simulation.__name__,
                  "load_events": hyperon_leggett.load_events is simulation.load_events,
                  "unknown": hasattr(hyperon_leggett, "no_such_name")}))
""")
    assert result == {"alone": [], "simulation": "hyperon_leggett.simulation",
                      "load_events": True, "unknown": False}


def test_every_export_resolves():
    names = {}
    exec("from hyperon_leggett import *", names)
    names.pop("__builtins__")
    assert sorted(names) == sorted(hyperon_leggett.__all__)
    modules = [getattr(hyperon_leggett, module) for module in (
        "quantum", "povm", "geometry", "correlations", "inequalities", "catalog", "simulation")]
    for name in hyperon_leggett.__all__:
        assert any(getattr(module, name, None) is names[name] for module in modules), name


def test_only_check_loads_the_check_suite(tmp_path):
    phi, region = str(tmp_path / "phi.csv"), str(tmp_path / "region.csv")
    result = fresh(f"""
import contextlib, io, json, sys
from hyperon_leggett import cli
suite = "hyperon_leggett.selfcheck"
codes = [cli.main(["scan-phi", "--channel", "SigmaPlus", "--steps", "300", "--out", {phi!r}]),
         cli.main(["scan-region", "--steps", "21", "--out", {region!r}]),
         cli.main(["predict", "--channel", "SigmaPlus", "--out", {phi!r}])]
scans = suite in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["check", "--trials", "10"]))
print(json.dumps({{"codes": codes, "scans": scans, "check": suite in sys.modules}}))
""")
    assert result == {"codes": [0, 0, 0, 0], "scans": False, "check": True}


def test_check_suite_loads_no_cli_code():
    result = fresh("""
import json, sys
import hyperon_leggett.selfcheck
print(json.dumps({"cli": "hyperon_leggett.cli" in sys.modules}))
""")
    assert result == {"cli": False}

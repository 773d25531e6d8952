import argparse
import contextlib
import hashlib
import io
import json
import math
import shlex
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from hyperon_leggett import (cli, estimate_leggett_lhs, floattext, geometry, load_events,
                             sample_pair_decay, save_events)
from hyperon_leggett.catalog import (catalog_sha256, default_catalog_path, load_catalog,
                                     make_pair_channel)
from hyperon_leggett.cli import main
from hyperon_leggett.correlations import (a_side_inversion, correlation_via_operators,
                                          pair_correlation)
from hyperon_leggett.inequalities import (leggett_max_lhs, leggett_sum_value,
                                          leggett_violation_condition)
from hyperon_leggett.povm import MeasurementParams
from hyperon_leggett.quantum import triplet_m0_state
from hyperon_leggett.selfcheck import _oracle_residuals, _run_checks
from hyperon_leggett.simulation import _BLOCK_ROWS


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out):
    return [line for line in out.splitlines() if not line.startswith("#")][1:]


def region_rows(grid):
    """The scan-region rows of ``grid``, from whole arrays with repr per cell."""
    alpha_a, alpha_b = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    lhs = leggett_max_lhs(alpha_a, alpha_b)
    violated = leggett_violation_condition(alpha_a, alpha_b)
    return [",".join([repr(float(a)), repr(float(b)), repr(float(v)), str(int(f))])
            for a, b, v, f in zip(alpha_a, alpha_b, lhs, violated)]


def count_validations(monkeypatch):
    """Calls of geometry.validate_settings from any package module, appended to a list."""
    original, calls = geometry.validate_settings, []

    def counted(settings):
        calls.append(settings)
        return original(settings)
    for name, module in list(sys.modules.items()):
        if (name.startswith("hyperon_leggett")
                and getattr(module, "validate_settings", None) is original):
            monkeypatch.setattr(module, "validate_settings", counted)
    return calls


class TestPredict:
    def test_sigma_channel(self, capsys):
        code, out, _ = run(["predict", "--channel", "SigmaPlus"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_lhs"] == pytest.approx(2.0288708890524414, abs=1e-9)
        assert payload["max_violated"] is True
        assert payload["report"]["violated"] is True
        assert payload["report"]["bound"] == 2.0
        assert payload["catalog_sha256"] != "-"

    def test_custom_alphas_not_violating(self, capsys):
        code, out, _ = run(["predict", "--alpha-a", "0.75", "--alpha-b", "0.75"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_lhs"] == pytest.approx(1.2311072252245132, abs=1e-9)
        assert payload["max_violated"] is False

    def test_zero_alpha_b_never_violates(self, capsys):
        code, out, _ = run(["predict", "--channel", "SigmaPlus", "--alpha-b", "0.0"], capsys)
        payload = json.loads(out)
        assert payload["max_lhs"] <= 2.0
        assert payload["max_violated"] is False

    def test_explicit_angle(self, capsys):
        code, out, _ = run(["predict", "--channel", "SigmaPlus", "--phi-deg", "90"], capsys)
        payload = json.loads(out)
        assert payload["phi_rad"] == pytest.approx(math.pi / 2)

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run(["predict", "--channel", "SigmaPlus"], capsys)
        keys = list(json.loads(out).keys())
        assert keys == sorted(keys)

    def test_file_output_matches_stdout(self, capsys, tmp_path):
        out_file = tmp_path / "predict.json"
        run(["predict", "--channel", "SigmaPlus", "--out", str(out_file)], capsys)
        _, stdout, _ = run(["predict", "--channel", "SigmaPlus"], capsys)
        on_disk = json.loads(out_file.read_text(encoding="utf-8"))
        in_memory = json.loads(stdout)
        on_disk.pop("command")
        in_memory.pop("command")
        assert on_disk == in_memory

    def test_unknown_channel_is_an_error(self, capsys):
        code, _, err = run(["predict", "--channel", "Nonexistent"], capsys)
        assert code == 2
        assert "Nonexistent" in err

    def test_missing_channel_and_alphas(self, capsys):
        code, _, err = run(["predict"], capsys)
        assert code == 2
        assert "alpha" in err

    def test_settings_file(self, capsys, tmp_path):
        from hyperon_leggett import build_settings, save_settings
        path = tmp_path / "settings.txt"
        save_settings(path, build_settings(1.0))
        code, out, _ = run(["predict", "--channel", "SigmaPlus",
                            "--settings-file", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["phi_rad"] == pytest.approx(1.0)

    def test_settings_file_with_duplicate_key_rejected(self, capsys, tmp_path):
        from hyperon_leggett import build_settings
        from hyperon_leggett.geometry import settings_to_text
        text = settings_to_text(build_settings(1.0))
        path = tmp_path / "settings.txt"
        path.write_text(text + "b1 1.0 0.0 0.0\n", encoding="utf-8")
        code, out, err = run(["predict", "--channel", "SigmaPlus",
                              "--settings-file", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert f"{path}:12: duplicate key 'b1'" in err

    @pytest.mark.parametrize("uncertainty", ["nan", "inf", "-inf"])
    def test_non_finite_catalog_uncertainty_rejected(self, capsys, tmp_path, uncertainty):
        path = tmp_path / "catalog.txt"
        path.write_text(f"X p 0.5 {uncertainty} Y\nY p -0.5 0.01 X\n", encoding="utf-8")
        code, out, err = run(["predict", "--channel", "X", "--catalog", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert f"{path}:1: X: alpha uncertainty must be finite and >= 0" in err

    def test_biased_triplet_matches_operator_path(self, capsys):
        code, out, err = run(["predict", "--mother", "chi_c0", "--alpha-a", "0.5",
                              "--alpha-b", "-0.7", "--eta-a", "0.1", "--eta-b", "-0.2"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        settings = geometry.build_settings(payload["phi_rad"])
        pa, pb = MeasurementParams(0.1, 0.5), MeasurementParams(-0.2, -0.7)
        a = a_side_inversion("triplet_m0") * settings.a  # the settings' a is taken as inverted
        expected = [correlation_via_operators(triplet_m0_state(), pa, a, pb, b)
                    for b in (settings.b, settings.b_prime)]
        assert np.max(np.abs(np.array(payload["report"]["inputs"]["e_pairs"])
                             - np.transpose(expected))) < 1e-12

    def test_non_finite_eta_rejected(self, capsys):
        code, out, err = run(["predict", "--channel", "SigmaPlus", "--eta-a", "nan"], capsys)
        assert code == 2
        assert out == ""
        assert "invalid measurement parameters" in err

    def test_phi_and_settings_file_are_exclusive(self, capsys, tmp_path):
        from hyperon_leggett import build_settings, save_settings
        path = tmp_path / "settings.txt"
        save_settings(path, build_settings(1.0))
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--channel", "SigmaPlus", "--phi-deg", "30",
                  "--settings-file", str(path)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


def subparsers(parser):
    """The command parsers of build_parser(), by command name."""
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# Every float option, with what its command needs besides it.
FLOAT_OPTIONS = [(command, action.option_strings[0])
                 for command, sub in subparsers(cli.build_parser()).items()
                 for action in sub._actions if action.type is float]
REQUIRED = {"simulate": ["--events", "100"]}


class TestNegativeExponentValues:
    """A negative number in exponent form, as repr writes it, and -inf, -infinity and
    -nan in any letter case, as float() reads them, are values as a separate token, as
    they are after "=" (argparse's own test in Python 3.10 to 3.12 takes them for
    options)."""

    def test_every_float_option_is_covered(self):
        assert ("predict", "--alpha-a") in FLOAT_OPTIONS
        assert ("simulate", "--sigma-threshold") in FLOAT_OPTIONS
        assert ("scan-region", "--alpha-min") in FLOAT_OPTIONS
        assert len(FLOAT_OPTIONS) == 19

    @pytest.mark.parametrize("command, option", FLOAT_OPTIONS,
                             ids=[" ".join(pair) for pair in FLOAT_OPTIONS])
    @pytest.mark.parametrize("text", ["-1e-05", "-2.5E+300", "-.5e3", "-7e0", "-inf",
                                      "-INF", "-infinity", "-Infinity", "-nan", "-NaN"])
    def test_float_option_reads_a_separate_negative_exponent(self, command, option, text):
        args = cli.build_parser().parse_args([command, *REQUIRED.get(command, []),
                                              option, text])
        assert repr(getattr(args, option[2:].replace("-", "_"))) == repr(float(text))

    @pytest.mark.parametrize("argv, message", [
        (["predict", "--alpha-a", "-inf", "--alpha-b", "0.9"],
         "error: customA: |alpha| must not exceed 1, got -inf"),
        (["predict", "--channel", "SigmaPlus", "--phi-deg", "-inf"],
         "error: phi must lie in (0, pi], got -inf")])
    def test_separate_minus_inf_names_the_range(self, capsys, argv, message):
        assert run(argv, capsys) == (2, "", message + "\n")

    def test_echoed_command_reproduces_the_run(self, capsys):
        argv = ["predict", "--alpha-a", "-1e-05", "--alpha-b", "0.9", "--eta-b", "-1e-03"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["alpha_a"], payload["eta_b"]) == (-1e-05, -1e-03)
        tool, *echoed = shlex.split(payload["command"])
        assert tool == cli.TOOL and echoed == argv
        assert run(echoed, capsys) == (0, out, "")

    def test_help_and_usage_errors_are_argparse_own(self, monkeypatch, capsys):
        def outputs():
            parser = cli.build_parser()
            texts = [parser.format_help(), *(sub.format_help()
                                             for sub in subparsers(parser).values())]
            for argv in (["predict", "--alpha-a"], ["predict", "--alpha-a", "-info"],
                         ["predict", "--alpha-a", "x"], ["predict", "--nope", "-1"],
                         ["scan-phi", "--steps", "-1.5"], ["simulate"]):
                with pytest.raises(SystemExit) as exc:
                    cli.main(argv)
                texts += [exc.value.code, capsys.readouterr().err]
            return texts

        ours = outputs()
        monkeypatch.setattr(cli, "_Parser", argparse.ArgumentParser)
        assert ours == outputs()


class TestScanPhi:
    def test_violating_channel_curve(self, capsys):
        code, out, _ = run(["scan-phi", "--channel", "SigmaPlus", "--steps", "200"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("catalog_sha256" in l for l in meta)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "phi_deg,phi_rad,lhs,bound,margin,violated"
        rows = [l.split(",") for l in lines[header_idx + 1:]]
        assert len(rows) == 200
        violated = [r for r in rows if r[-1] == "1"]
        assert violated  # the Sigma pair crosses the bound
        lhs = np.array([float(r[2]) for r in rows])
        assert lhs.max() == pytest.approx(2.0288708890524414, abs=1e-4)

    def test_non_violating_channel(self, capsys):
        code, out, _ = run(["scan-phi", "--channel", "Lambda", "--steps", "300"], capsys)
        rows = [l.split(",") for l in out.strip().splitlines() if not l.startswith("#")][1:]
        assert all(r[-1] == "0" for r in rows)
        assert max(float(r[2]) for r in rows) < 2.0

    def test_endpoint_value(self, capsys):
        # at 180 degrees only the sine term survives: lhs = 2 alpha_b / 3
        _, out, _ = run(["scan-phi", "--alpha-a", "0.9", "--alpha-b", "0.9",
                         "--steps", "10", "--phi-max-deg", "180"], capsys)
        rows = [l.split(",") for l in out.strip().splitlines() if not l.startswith("#")][1:]
        last = rows[-1]
        assert float(last[0]) == pytest.approx(180.0)
        assert float(last[2]) == pytest.approx(2 * 0.9 / 3, abs=1e-12)

    def test_reproducible_output(self, tmp_path, capsys):
        f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run(["scan-phi", "--channel", "SigmaPlus", "--steps", "50", "--out", str(f1)], capsys)
        run(["scan-phi", "--channel", "SigmaPlus", "--steps", "50", "--out", str(f2)], capsys)
        assert f1.read_bytes().replace(b"s1.csv", b"X") == f2.read_bytes().replace(b"s2.csv", b"X")

    def test_bad_range_rejected(self, capsys):
        code, _, err = run(["scan-phi", "--channel", "SigmaPlus",
                            "--phi-min-deg", "0"], capsys)
        assert code == 2

    def test_non_finite_eta_rejected(self, capsys):
        code, out, err = run(["scan-phi", "--channel", "SigmaPlus", "--eta-a", "nan"], capsys)
        assert code == 2
        assert out == ""
        assert "invalid measurement parameters" in err

    def test_refused_scan_writes_nothing(self, capsys, tmp_path, monkeypatch):
        # A refusal while the first block is computed comes before any output is opened.
        def refuse(*args, **kwargs):
            raise ValueError("refused in the first block")
        monkeypatch.setattr(cli, "leggett_sum_value", refuse)
        args = ["scan-phi", "--channel", "Lambda", "--mother", "chi_c0", "--eta-a", "0.1"]
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert "error: refused in the first block" in err
        path = tmp_path / "refused.csv"
        code, out, _ = run([*args, "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert not path.exists()

    def test_csv_bytes_across_block_boundary(self, capsys):
        steps = 5000
        assert _BLOCK_ROWS < steps and steps % _BLOCK_ROWS
        code, out, _ = run(["scan-phi", "--alpha-a", "0.98", "--alpha-b", "-0.98",
                            "--steps", str(steps)], capsys)
        assert code == 0
        phis = np.linspace(math.radians(0.1), math.radians(180.0), steps)
        a, b, b_prime = geometry.settings_arrays(phis)
        pa, pb = MeasurementParams(0.0, 0.98), MeasurementParams(0.0, -0.98)
        lhs = leggett_sum_value(pair_correlation("singlet", pa, a, pb, b)
                                + pair_correlation("singlet", pa, a, pb, b_prime), -0.98, phis)
        assert lhs.min() < 2.0 < lhs.max()
        expected = [",".join([repr(d), repr(p), repr(v), repr(2.0), repr(v - 2.0),
                              str(int(v > 2.0))])
                    for d, p, v in zip(np.degrees(phis).tolist(), phis.tolist(), lhs.tolist())]
        assert data_rows(out) == expected

    def test_memory_does_not_grow_with_steps(self, capsys, tmp_path):
        # The angles are made a block at a time: 16 blocks of them are 0.5 MB as one grid.
        run(["scan-phi", "--channel", "SigmaPlus", "--steps", "200"], capsys)  # builds tables
        peaks = []
        for blocks in (2, 16):
            tracemalloc.start()
            try:
                main(["scan-phi", "--channel", "SigmaPlus", "--steps",
                      str(blocks * _BLOCK_ROWS), "--out", str(tmp_path / f"phi{blocks}.csv")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_one_block_is_held_at_a_time(self, capsys, monkeypatch, tmp_path):
        # Each block's columns are released before the next block is drawn.  Holding the
        # last block's columns and locals while drawing the next took the peak between
        # format_block calls from about 1.2 MB to 1.67 MB.
        live, peaks, held = [], [], []

        def format_block(block):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            live.append(sum(ref() is not None for ref in held))
            held[:] = [weakref.ref(column) for column in block if isinstance(column, np.ndarray)]
            return floattext.format_block(block)

        monkeypatch.setattr(cli, "format_block", format_block)
        run(["scan-phi", "--channel", "SigmaPlus", "--steps", "200"], capsys)  # builds tables
        live.clear()
        peaks.clear()
        tracemalloc.start()
        try:
            main(["scan-phi", "--channel", "SigmaPlus", "--steps", str(16 * _BLOCK_ROWS),
                  "--out", str(tmp_path / "phi.csv")])
        finally:
            tracemalloc.stop()
        assert live == [0] * 16
        assert max(peaks[1:]) <= 1.4e6

    def test_performance_budget(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(["scan-phi", "--channel", "SigmaPlus", "--steps", "10000"], capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0


class TestScanRegion:
    def test_mask_and_boundary(self, capsys):
        code, out, _ = run(["scan-region", "--steps", "51"], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 51 * 51
        table = {(float(r[0]), float(r[1])): r[3] == "1" for r in rows}
        assert table[(1.0, 1.0)] is True
        assert table[(0.98, 0.98)] is True
        assert table[(0.96, 0.96)] is False
        assert table[(0.0, 0.0)] is False

    def test_row_order_is_monotone(self, capsys):
        _, out, _ = run(["scan-region", "--steps", "11"], capsys)
        rows = [l.split(",") for l in out.strip().splitlines() if not l.startswith("#")][1:]
        pairs = [(float(r[0]), float(r[1])) for r in rows]
        assert pairs == sorted(pairs)

    def test_bad_grid_rejected(self, capsys):
        code, _, _ = run(["scan-region", "--alpha-min", "0.5", "--alpha-max", "0.2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("alpha_min, alpha_max", [("0.0", "5e-324"),
                                                      ("0.5", "0.5000000000000001")])
    def test_grid_with_repeated_values_rejected(self, capsys, tmp_path, alpha_min, alpha_max):
        # Three steps over one or two doubles repeat a grid value, so the rows could
        # not be sorted by (alpha_a, alpha_b).
        path = tmp_path / "region.csv"
        code, out, err = run(["scan-region", "--alpha-min", alpha_min, "--alpha-max",
                              alpha_max, "--steps", "3", "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "too close for --steps distinct values" in err
        assert not path.exists()

    @pytest.mark.parametrize("alpha_min, alpha_max", [
        ("0.9560930357785989", "0.9913851296910221"),
        ("0.9587782929432349", "0.9882941657107649")])
    def test_verdict_is_printed_lhs_above_bound_at_the_boundary(self, capsys,
                                                                alpha_min, alpha_max):
        # Each grid has a cell whose lhs rounds to 2.0 or 2.0000000000000004, where
        # the polynomial (alpha_a^2 + 1/9) alpha_b^2 > 1 gives the other verdict.
        code, out, _ = run(["scan-region", "--alpha-min", alpha_min, "--alpha-max",
                            alpha_max, "--steps", "2"], capsys)
        assert code == 0
        rows = [row.split(",") for row in data_rows(out)]
        assert [violated for *_, violated in rows] == [
            str(int(float(lhs) > 2.0)) for _, _, lhs, _ in rows]
        for alpha_a, alpha_b, _, violated in rows:
            code, out, _ = run(["predict", "--alpha-a", alpha_a, "--alpha-b", alpha_b], capsys)
            assert code == 0
            assert json.loads(out)["max_violated"] is (violated == "1")

    def test_csv_bytes_across_block_boundary(self, capsys):
        steps = 65
        assert _BLOCK_ROWS < steps * steps and (steps * steps) % _BLOCK_ROWS
        code, out, _ = run(["scan-region", "--steps", str(steps)], capsys)
        assert code == 0
        assert data_rows(out) == region_rows(np.linspace(0.0, 1.0, steps))

    def test_grid_text_at_signed_zero_and_endpoints(self, capsys):
        # Each grid value is formatted once and shared by its rows: the text must still
        # be repr's at -0.0 and at the exact endpoints.
        code, out, _ = run(["scan-region", "--alpha-min", "-0.0", "--alpha-max", "1.0",
                            "--steps", "65"], capsys)
        assert code == 0
        rows = data_rows(out)
        assert rows == region_rows(np.linspace(-0.0, 1.0, 65))
        assert rows[-1].startswith("1.0,1.0,")


# sha256 of scan CSVs as the per-cell %r writer printed them, with the command echoed
# without --out and the packaged catalog's path (it names the checkout) as CATALOG.
SCAN_DIGESTS = [
    (["scan-phi", "--channel", "SigmaPlus", "--steps", "20000"],
     "fb20d933ae7a5a4bd2e177f2f3f951e19c647915b87206b75ea5c66b358e4797"),
    (["scan-phi", "--channel", "SigmaPlus", "--steps", "100000"],
     "6c9431437ec0196effd1b5bb6918cff5560066c08bd49b25ba3a04318823525e"),
    (["scan-phi", "--channel", "Lambda", "--mother", "chi_c0", "--steps", "5001"],
     "47ed67775aa400bd92662989f7f8e0af0a633ed1960137beac8236041f1b6283"),
    (["scan-phi", "--channel", "Lambda", "--eta-a", "0.1", "--eta-b", "-0.2", "--steps", "4097"],
     "bf365d95798c89a09777e3b6ca8a15ca8b42d6b20d7b954033f84fb41a1c3e3b"),
    (["scan-region", "--steps", "101"],
     "8409e0547dd28b56ef9771aa380ce1acaf842570b14e74718a33b93202b4de8c"),
    (["scan-region", "--steps", "301"],
     "0e326fa7a0fcc65dc2c9cff476b19821a79de7e2f72fddb4438d774b07eb0588"),
    (["scan-region", "--steps", "1001"],
     "7536274a607981cdaad23e0923a2d696c80cac6b31b7fc3f2bf20d2ddda3bf22"),
    (["scan-region", "--steps", "65", "--alpha-min", "-0.0"],
     "76f2c5d8baf200826737c7ed714f41583a92fb7fc8366ce18f0b7acca0de7d9c"),
]


def scan_file_bytes(args, path):
    """The CSV a scan writes to ``path``, echoing its command without --out."""
    assert main([*args, "--out", str(path)]) == 0
    return path.read_bytes().replace(f" --out {path}".encode(), b"")


class TestScanBytes:
    @pytest.mark.parametrize("args, digest", SCAN_DIGESTS,
                             ids=[" ".join(args) for args, _ in SCAN_DIGESTS])
    def test_bytes_are_those_of_the_percent_writer(self, tmp_path, args, digest):
        text = scan_file_bytes(args, tmp_path / "scan.csv")
        text = text.replace(str(default_catalog_path()).encode(), b"CATALOG")
        assert hashlib.sha256(text).hexdigest() == digest

    @pytest.mark.parametrize("args", [
        ["scan-phi", "--channel", "SigmaPlus", "--steps", "4097"],
        ["scan-region", "--steps", "65", "--alpha-min", "-0.0"],
        ["scan-region", "--alpha-min", "1e-300", "--alpha-max", "1e-299", "--steps", "5"]])
    def test_out_file_stdout_and_text_stream_get_the_same_bytes(self, tmp_path, capsys, args):
        # stdout takes the bytes on its binary buffer; io.StringIO, which has none, as text.
        text = scan_file_bytes(args, tmp_path / "scan.csv")
        assert main(args) == 0
        assert capsys.readouterr().out.encode() == text
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(args) == 0
        assert out.getvalue().encode() == text

    def test_text_written_to_stdout_before_the_scan_comes_first(self, capsys):
        print("before")
        assert main(["scan-region", "--steps", "2"]) == 0
        print("after")
        out = capsys.readouterr().out
        assert out.startswith("before\n# tool ") and out.endswith(",1\nafter\n")


class TestSimulate:
    def test_violation_exit_code_and_files(self, capsys, tmp_path):
        out_dir = tmp_path / "run1"
        code, out, _ = run(["simulate", "--channel", "SigmaPlus", "--events", "100000",
                            "--seed", "7", "--out", str(out_dir)], capsys)
        assert code == 0  # Sigma pair at the optimum violates at > 3 sigma
        payload = json.loads(out)
        assert payload["violation_observed"] is True
        assert payload["lhs_hat"] == pytest.approx(2.0288708890524414, abs=0.05)
        assert (out_dir / "events.txt").exists()
        assert json.loads((out_dir / "summary.json").read_text(encoding="utf-8")) == payload

    @pytest.mark.parametrize("extra, method", [([], "delta"), (["--alpha-b", "0"], "bootstrap"),
                                               (["--mother", "chi_c0"], "delta")],
                             ids=["delta", "bootstrap", "chi_c0"])
    def test_reanalysis_reproduces_the_summary(self, capsys, tmp_path, extra, method):
        # The streamed estimate and the one from the loaded file share one kernel.
        out_dir = tmp_path / "run"
        run(["simulate", "--channel", "SigmaPlus", *extra, "--events", "20000", "--seed", "3",
             "--out", str(out_dir)], capsys)
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        estimate = estimate_leggett_lhs(load_events(out_dir / "events.txt"),
                                        geometry.build_settings(summary["phi_rad"]))
        assert summary["error_method"] == method
        assert (estimate.lhs_hat, estimate.std_error, list(estimate.e_sums),
                list(estimate.e_sum_errors), estimate.method) == (
            summary["lhs_hat"], summary["std_error"], summary["e_sums"],
            summary["e_sum_errors"], summary["error_method"])

    def test_no_violation_exit_code(self, capsys, tmp_path):
        code, out, _ = run(["simulate", "--channel", "Lambda", "--events", "5000",
                            "--seed", "8", "--out", str(tmp_path / "run2")], capsys)
        assert code == 1
        assert json.loads(out)["violation_observed"] is False

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_refused(self, capsys, tmp_path, seed):
        out_dir = tmp_path / "new" / "run"
        code, out, err = run(["simulate", "--channel", "SigmaPlus", "--events", "1000",
                              "--seed", seed, "--out", str(out_dir)], capsys)
        assert (code, out) == (2, "")
        assert f"error: --seed must be in [0, 2**64), got {seed}" in err
        assert not (tmp_path / "new").exists()

    def test_undersized_run_refused(self, capsys, tmp_path):
        code, _, err = run(["simulate", "--channel", "SigmaPlus", "--events", "10",
                            "--out", str(tmp_path / "run3")], capsys)
        assert code == 2
        assert "at least 100" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--channel", "SigmaPlus", "--events", "2000",
             "--seed", "99", "--out", str(d1)], capsys)
        run(["simulate", "--channel", "SigmaPlus", "--events", "2000",
             "--seed", "99", "--out", str(d2)], capsys)
        assert (d1 / "events.txt").read_bytes() == (d2 / "events.txt").read_bytes()
        s1 = (d1 / "summary.json").read_text(encoding="utf-8").replace(str(d1), "OUT")
        s2 = (d2 / "summary.json").read_text(encoding="utf-8").replace(str(d2), "OUT")
        assert s1 == s2

    def test_zero_standard_error_refused(self, capsys, tmp_path):
        # b_i = e_i and b_i' = -e_i (phi = pi) is a valid layout whose pair sums
        # vanish event by event, so the estimate has no spread at all.
        from hyperon_leggett import save_settings, validate_settings
        from hyperon_leggett.geometry import TripleSettings
        frame = np.eye(3)[[2, 0, 1]]  # e_1 = z, e_2 = x, e_3 = y
        settings = TripleSettings(math.pi, np.eye(3), frame, -frame)
        assert validate_settings(settings) == []
        path = tmp_path / "settings.txt"
        save_settings(path, settings)
        code, out, err = run(["simulate", "--channel", "SigmaPlus", "--events", "1000",
                              "--settings-file", str(path), "--out", str(tmp_path / "run")],
                             capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "zero standard error" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mother", ["chi_c0", "eta_c"])
    def test_rounding_level_standard_error_refused(self, capsys, tmp_path, mother):
        # At alpha_a = 0 the optimum is phi = pi, where b_i' = -b_i only to
        # rounding: the pair sums are rounding noise and std_error is one ulp
        # of lhs_hat, which would give a significance of about -1e16.
        code, out, err = run(["simulate", "--alpha-a", "0.0", "--alpha-b", "0.9",
                              "--mother", mother, "--events", "20000", "--seed", "7",
                              "--out", str(tmp_path / "run")], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "zero standard error" in err
        assert not (tmp_path / "run").exists()

    def test_refused_run_leaves_directories_as_found(self, capsys, tmp_path):
        # The events stream to a partial file: a refusal removes it and every
        # directory the run made, and leaves an existing directory's files alone.
        (tmp_path / "kept.txt").write_text("x", encoding="utf-8")
        for out_dir in (tmp_path / "new" / "deeper", tmp_path):
            code, _, err = run(["simulate", "--alpha-a", "0.0", "--alpha-b", "0.9",
                                "--events", "1000", "--out", str(out_dir)], capsys)
            assert code == 2 and "zero standard error" in err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt"]

    @pytest.mark.parametrize("mother", ["eta_c", "chi_c0"])
    @pytest.mark.parametrize("n", [100, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 3])
    def test_streamed_events_match_the_whole_sample(self, capsys, tmp_path, mother, n):
        # Partial last blocks, and stream offsets k * n that are not multiples of 4.
        out_dir = tmp_path / "run"
        run(["simulate", "--channel", "SigmaPlus", "--mother", mother, "--events", str(n),
             "--seed", "17", "--out", str(out_dir)], capsys)
        path = default_catalog_path()
        channel = make_pair_channel(load_catalog(path), "SigmaPlus", mother=mother)
        reference = tmp_path / "reference.txt"
        save_events(reference, sample_pair_decay(channel, n, 17,
                                                 catalog_sha256=catalog_sha256(path)))
        assert (out_dir / "events.txt").read_bytes() == reference.read_bytes()
        assert sorted(p.name for p in out_dir.iterdir()) == ["events.txt", "summary.json"]

    def test_memory_does_not_grow_with_events(self, capsys, tmp_path):
        # First use builds the text tables.
        run(["simulate", "--channel", "SigmaPlus", "--events", "200",
             "--out", str(tmp_path / "warm-up")], capsys)
        peaks = []
        for blocks in (2, 16):
            tracemalloc.start()
            try:
                main(["simulate", "--channel", "SigmaPlus", "--events",
                      str(blocks * _BLOCK_ROWS), "--out", str(tmp_path / f"run{blocks}")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            capsys.readouterr()
        # The stream's workspaces are about 2.2 MB; 16 blocks of events are 3 MB
        # as arrays and 8 MB as text, and none of them is held.
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("command", [
        ["predict", "--channel", "SigmaPlus"],
        ["simulate", "--channel", "SigmaPlus", "--events", "2000"]])
    def test_settings_file_validated_once(self, capsys, monkeypatch, tmp_path, command):
        from hyperon_leggett import build_settings, save_settings
        path = tmp_path / "settings.txt"
        save_settings(path, build_settings(1.1))
        out = ["--out", str(tmp_path / "run")] if command[0] == "simulate" else []
        calls = count_validations(monkeypatch)
        code, _, _ = run([*command, "--settings-file", str(path), *out], capsys)
        assert code in (0, 1)
        assert len(calls) == 1

    @pytest.mark.parametrize("command", [
        ["predict", "--channel", "SigmaPlus"],
        ["simulate", "--channel", "SigmaPlus", "--events", "2000"]])
    def test_default_settings_validated_once(self, capsys, monkeypatch, tmp_path, command):
        out = ["--out", str(tmp_path / "run")] if command[0] == "simulate" else []
        calls = count_validations(monkeypatch)
        code, _, _ = run([*command, *out], capsys)
        assert code in (0, 1)
        assert len(calls) == 1

    def test_small_alpha_a_still_estimated(self, capsys, tmp_path):
        code, out, _ = run(["simulate", "--alpha-a", "0.001", "--alpha-b", "0.9",
                            "--mother", "chi_c0", "--events", "20000", "--seed", "7",
                            "--out", str(tmp_path / "run")], capsys)
        assert code == 1
        assert json.loads(out)["std_error"] > 1e-6

    def test_sigma_threshold_is_configurable(self, capsys, tmp_path):
        code, out, _ = run(["simulate", "--channel", "SigmaPlus", "--events", "2000",
                            "--seed", "5", "--sigma-threshold", "1000",
                            "--out", str(tmp_path / "run4")], capsys)
        assert code == 1
        assert json.loads(out)["violation_observed"] is False

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_sigma_threshold_refused(self, capsys, tmp_path, threshold):
        out_dir = tmp_path / "run"
        code, out, err = run(["simulate", "--channel", "SigmaPlus", "--events", "2000",
                              f"--sigma-threshold={threshold}", "--out", str(out_dir)], capsys)
        assert code == 2
        assert out == ""
        assert "--sigma-threshold must be finite" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("threshold", ["-1000", "0", "-0.0", "-5e-324"])
    def test_non_positive_sigma_threshold_refused(self, capsys, tmp_path, threshold):
        # At -1000 this run (lhs_hat 0.18, significance -23.8) reported a violation.
        out_dir = tmp_path / "run"
        code, out, err = run(["simulate", "--channel", "SigmaPlus", "--alpha-b", "0",
                              "--events", "1000", f"--sigma-threshold={threshold}",
                              "--out", str(out_dir)], capsys)
        assert code == 2
        assert out == ""
        assert (f"error: --sigma-threshold must be finite and positive, "
                f"got {float(threshold)!r}") in err
        assert not out_dir.exists()

    def test_phi_and_settings_file_are_exclusive(self, capsys, tmp_path):
        from hyperon_leggett import build_settings, save_settings
        path = tmp_path / "settings.txt"
        save_settings(path, build_settings(1.0))
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--channel", "SigmaPlus", "--events", "2000", "--phi-deg", "30",
                  "--settings-file", str(path), "--out", str(out_dir)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out_dir.exists()


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        import subprocess
        import sys
        proc = subprocess.run([sys.executable, "-m", "hyperon_leggett", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "hyperon-leggett" in proc.stdout


class TestCheck:
    def test_all_pass(self, capsys):
        code, out, _ = run(["check"], capsys)
        assert code == 0
        assert "FAIL" not in out
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 8

    def test_zero_trials_rejected(self, capsys):
        code, out, err = run(["check", "--trials", "0"], capsys)
        assert code == 2
        assert "error: --trials must be at least 1" in err
        assert "checks passed" not in out

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_refused(self, capsys, seed):
        code, out, err = run(["check", "--seed", seed], capsys)
        assert (code, out) == (2, "")
        assert f"error: --seed must be in [0, 2**64), got {seed}" in err

    def test_oracle_residuals_do_not_depend_on_the_block_size(self):
        # check draws its trials _BLOCK_ROWS at a time; one call over every trial
        # from the same stream gives the same maxima.
        trials = _BLOCK_ROWS + 7
        whole = _oracle_residuals(np.random.default_rng(5), trials, False)
        blocked = _run_checks(5, trials, False)[:len(whole)]
        assert [(name, detail) for name, _, detail in blocked] == [
            (name, f"max residual {r:.3e} (tol 1e-12)") for name, r in whole.items()]

    def test_negative_control_fails_and_names_identity(self, capsys):
        code, out, _ = run(["check", "--negative-control"], capsys)
        assert code == 1
        assert "FAIL singlet correlation: closed form vs operator average" in out

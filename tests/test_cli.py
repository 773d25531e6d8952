import json
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from hyperon_leggett import geometry, sample_pair_decay, save_events
from hyperon_leggett.catalog import (catalog_sha256, default_catalog_path, load_catalog,
                                     make_pair_channel)
from hyperon_leggett.cli import ScanResult, main
from hyperon_leggett.inequalities import leggett_max_lhs, leggett_violation_condition
from hyperon_leggett.simulation import _BLOCK_ROWS


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_triplet_with_bias_rejected(self, capsys):
        code, _, err = run(["predict", "--channel", "SigmaPlus", "--mother", "chi_c0",
                            "--alpha-a", "0.5", "--eta-a", "0.1"], capsys)
        assert code == 2
        assert "unbiased" in err

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

    def test_csv_bytes_across_block_boundary(self, capsys):
        steps = 65
        assert _BLOCK_ROWS < steps * steps and (steps * steps) % _BLOCK_ROWS
        code, out, _ = run(["scan-region", "--steps", str(steps)], capsys)
        assert code == 0
        data_rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        grid = np.linspace(0.0, 1.0, steps)
        alpha_a, alpha_b = np.repeat(grid, steps), np.tile(grid, steps)
        lhs = leggett_max_lhs(alpha_a, alpha_b)
        violated = leggett_violation_condition(alpha_a, alpha_b)
        expected = [",".join([repr(float(a)), repr(float(b)), repr(float(v)), str(int(f))])
                    for a, b, v, f in zip(alpha_a, alpha_b, lhs, violated)]
        assert data_rows == expected


class TestScanResult:
    @staticmethod
    def make(first, second, lhs=None, violated=None):
        columns = {"x": np.array(first, dtype=float), "y": np.array(second, dtype=float)}
        if lhs is not None:
            columns["lhs"] = np.array(lhs, dtype=float)
            columns["violated"] = np.array(violated, dtype=bool)
        return ScanResult(axes=("x", "y"), columns=columns, bound=2.0, metadata={})

    def test_descending_first_axis_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            self.make([0.0, 1.0, 0.5], [0.0, 0.0, 0.0])

    def test_second_axis_descending_within_tie_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            self.make([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.5])

    def test_repeated_rows_and_resets_after_first_axis_step_accepted(self):
        self.make([0.0, 0.0, 0.0, 1.0, 1.0], [0.5, 0.5, 1.0, 0.0, 0.0])

    def test_violated_flag_without_lhs_above_bound_rejected(self):
        with pytest.raises(ValueError, match="violation mask"):
            self.make([0.0, 1.0], [0.0, 0.0], lhs=[2.5, 2.0], violated=[True, True])


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

    def test_no_violation_exit_code(self, capsys, tmp_path):
        code, out, _ = run(["simulate", "--channel", "Lambda", "--events", "5000",
                            "--seed", "8", "--out", str(tmp_path / "run2")], capsys)
        assert code == 1
        assert json.loads(out)["violation_observed"] is False

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
        # First use builds the text tables and frees the 8 MB heap-threshold buffer.
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
        # One block's text and scratch are about 4 MB; 16 blocks of events are 3 MB
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

    def test_negative_control_fails_and_names_identity(self, capsys):
        code, out, _ = run(["check", "--negative-control"], capsys)
        assert code == 1
        assert "FAIL singlet correlation: closed form vs operator average" in out

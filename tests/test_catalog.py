import hashlib
import importlib.util
import math
import sys

import numpy as np
import pytest

from hyperon_leggett import (DecayMode, ProductionChannel,
                             build_settings, catalog, channel_correlation,
                             default_catalog_path, leggett_sum_lhs, load_catalog,
                             make_pair_channel)
from hyperon_leggett.catalog import (CATALOG_ENV_VAR, catalog_sha256, find_mode,
                                     parse_catalog)
from hyperon_leggett.correlations import pair_density_matrix
from hyperon_leggett.quantum import Z_AXIS

from conftest import random_direction, serialize_catalog, setting_directions


@pytest.fixture
def modes():
    return load_catalog(default_catalog_path())


class TestDecayMode:
    def test_alpha_bound_enforced(self):
        with pytest.raises(ValueError, match="BadMode"):
            DecayMode("BadMode", "x_y", 1.2, 0.01)

    def test_negative_uncertainty_rejected(self):
        with pytest.raises(ValueError):
            DecayMode("BadMode", "x_y", 0.5, -0.01)

    @pytest.mark.parametrize("uncertainty", [math.nan, math.inf, -math.inf])
    def test_non_finite_uncertainty_rejected(self, uncertainty):
        with pytest.raises(ValueError, match="BadMode: alpha uncertainty must be finite"):
            DecayMode("BadMode", "x_y", 0.5, uncertainty)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_uncertainty_row_rejected(self, text):
        with pytest.raises(ValueError, match=":1: X: alpha uncertainty must be finite"):
            parse_catalog(f"X p 0.5 {text} -\n")


class TestShippedCatalog:
    def test_flagship_mode(self, modes):
        sigma = find_mode(modes, "SigmaPlus")
        assert abs(sigma.alpha) == pytest.approx(0.980)
        assert sigma.channel == "p_pi0"
        assert sigma.cp_conjugate == "SigmaBarMinus"

    def test_other_required_rows(self, modes):
        assert abs(find_mode(modes, "Lambda").alpha) < 0.97
        assert abs(find_mode(modes, "XiMinus").alpha) < 0.97

    def test_cp_partners_share_magnitude(self, modes):
        for mode in modes:
            if mode.cp_conjugate:
                partner = find_mode(modes, mode.cp_conjugate)
                assert abs(partner.alpha) == pytest.approx(abs(mode.alpha))
                assert partner.alpha == pytest.approx(-mode.alpha)

    def test_hash_is_stable(self):
        path = default_catalog_path()
        assert catalog_sha256(path) == catalog_sha256(path)

    @pytest.mark.parametrize("fallback", [False, True])
    def test_hash_is_hashlib_sha256(self, tmp_path, monkeypatch, fallback):
        digest = catalog_sha256
        if fallback:
            # With CPython's built-in SHA-256 modules hidden, a fresh copy of the module
            # takes hashlib's.
            for name in ("_sha2", "_sha256"):
                monkeypatch.setitem(sys.modules, name, None)
            spec = importlib.util.spec_from_file_location("hyperon_leggett._catalog_copy",
                                                          catalog.__file__)
            copy = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, spec.name, copy)
            spec.loader.exec_module(copy)
            assert copy._sha256 is hashlib.sha256
            digest = copy.catalog_sha256
        (tmp_path / "empty").write_bytes(b"")
        (tmp_path / "random").write_bytes(np.random.default_rng(22).bytes(1 << 20))
        for path in (default_catalog_path(), tmp_path / "empty", tmp_path / "random"):
            assert digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestParsing:
    def test_empty_file_gives_empty_catalog(self):
        assert parse_catalog("") == []
        assert parse_catalog("# only comments\n\n") == []

    def test_line_number_in_errors(self):
        text = "Good p_pi0 0.5 0.01\nBad p_pi0 0.5\n"
        with pytest.raises(ValueError, match=r"<string>:2"):
            parse_catalog(text)

    def test_bad_number_reported(self):
        with pytest.raises(ValueError, match="bad number"):
            parse_catalog("Mode p_pi0 zero 0.01\n")

    def test_invariant_violation_names_mode(self):
        with pytest.raises(ValueError, match="Huge"):
            parse_catalog("Huge p_pi0 1.2 0.01\n")

    def test_duplicate_rejected(self):
        text = "A x 0.1 0.0\nA y 0.2 0.0\n"
        with pytest.raises(ValueError, match="duplicate"):
            parse_catalog(text)

    def test_round_trip_is_canonical(self, modes):
        once = serialize_catalog(modes)
        again = serialize_catalog(parse_catalog(once))
        assert once == again
        assert parse_catalog(once) == modes

    def test_dash_means_no_cp_link(self):
        modes = parse_catalog("Lone x_y 0.5 0.01 -\n")
        assert modes[0].cp_conjugate is None


class TestChannels:
    def test_mother_fixes_spin_state(self, modes):
        assert make_pair_channel(modes, "SigmaPlus", "eta_c").spin_state == "singlet"
        assert make_pair_channel(modes, "SigmaPlus", "chi_c0").spin_state == "triplet_m0"

    def test_unknown_mother_rejected(self, modes):
        mode = find_mode(modes, "Lambda")
        with pytest.raises(ValueError, match="mother"):
            ProductionChannel("psi", mode, mode)

    def test_unknown_mode_lists_catalog(self, modes):
        with pytest.raises(KeyError, match="SigmaPlus"):
            find_mode(modes, "Nope")

    def test_missing_cp_link_rejected(self):
        modes = parse_catalog("Lone x_y 0.5 0.01\n")
        with pytest.raises(ValueError, match="CP-conjugate"):
            make_pair_channel(modes, "Lone")

    def test_spin_state_matrices(self, modes):
        eta_c = make_pair_channel(modes, "SigmaPlus", "eta_c")
        chi_c0 = make_pair_channel(modes, "SigmaPlus", "chi_c0")
        assert pair_density_matrix(eta_c.spin_state).purity() == pytest.approx(1.0, abs=1e-12)
        assert pair_density_matrix(chi_c0.spin_state).purity() == pytest.approx(1.0, abs=1e-12)


class TestChannelCorrelation:
    def test_sigma_pair_parallel_settings(self, modes):
        channel = make_pair_channel(modes, "SigmaPlus")
        value = channel_correlation(channel, Z_AXIS, Z_AXIS)
        # alpha_a * alpha_b = -0.9604, so E = -alpha_a alpha_b (a.b) = +0.9604
        assert abs(value) == pytest.approx(0.9604, abs=1e-12)
        assert value == pytest.approx(0.9604, abs=1e-12)

    def test_zero_alpha_channel_vanishes(self, rng):
        dead = DecayMode("Dead", "x_y", 0.0, 0.0, None)
        live = DecayMode("Live", "x_y", 0.9, 0.0, None)
        channel = ProductionChannel("eta_c", live, dead)
        for _ in range(20):
            assert channel_correlation(channel, random_direction(rng),
                                       random_direction(rng)) == 0.0

    def test_triplet_path_mirrors_singlet_magnitude(self, modes, rng):
        eta_c = make_pair_channel(modes, "SigmaPlus", "eta_c")
        chi_c0 = make_pair_channel(modes, "SigmaPlus", "chi_c0")
        for _ in range(100):
            a, b = random_direction(rng), random_direction(rng)
            e_singlet = channel_correlation(eta_c, a, b)
            e_triplet = channel_correlation(chi_c0, a, b)
            assert abs(abs(e_triplet) - abs(e_singlet)) < 1e-12

    def test_leggett_lhs_identical_between_mothers(self, modes):
        # the parity flip built into the triplet path makes both production
        # channels feed identical left-hand sides
        eta_c = make_pair_channel(modes, "SigmaPlus", "eta_c")
        chi_c0 = make_pair_channel(modes, "SigmaPlus", "chi_c0")
        alpha_b = abs(eta_c.mode_b.alpha)
        for phi in np.linspace(0.02, math.pi - 0.02, 50):
            settings = build_settings(float(phi))
            reports = []
            for channel in (eta_c, chi_c0):
                pairs = [(channel_correlation(channel, a, b), channel_correlation(channel, a, bp))
                         for a, b, bp in setting_directions(settings)]
                reports.append(leggett_sum_lhs(settings, pairs, alpha_b))
            assert abs(reports[0].lhs - reports[1].lhs) < 1e-12


class TestDefaultPath:
    def test_env_override(self, tmp_path, monkeypatch):
        custom = tmp_path / "cat.txt"
        custom.write_text("Only x_y 0.5 0.01 -\n", encoding="utf-8")
        monkeypatch.setenv(CATALOG_ENV_VAR, str(custom))
        assert default_catalog_path() == custom
        assert load_catalog(default_catalog_path())[0].hyperon == "Only"

    def test_packaged_default_exists(self, monkeypatch):
        monkeypatch.delenv(CATALOG_ENV_VAR, raising=False)
        path = default_catalog_path()
        assert path.exists()

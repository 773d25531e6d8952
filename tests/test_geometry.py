import math

import numpy as np
import pytest

from hyperon_leggett import (Direction, TripleSettings, X_AXIS, Y_AXIS, Z_AXIS,
                             build_settings, flip_b_prime, load_settings,
                             save_settings, validate_settings)
from hyperon_leggett.geometry import (DEFAULT_AXES, DEFAULT_FRAME, settings_arrays,
                                      settings_from_text, settings_to_text,
                                      validate_flipped_settings)
from hyperon_leggett.quantum import row_dot

from conftest import random_rotation, rotated


def _norm(v):
    return math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)


def _pair_vectors(settings, i, sign):
    return (settings.b[i] + sign * settings.b_prime[i]).tolist()


class TestTripleSettings:
    def test_arrays_are_read_only(self):
        s = build_settings(1.0)
        for rows in (s.a, s.b, s.b_prime):
            assert rows.shape == (3, 3)
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0

    def test_non_unit_row_rejected(self):
        s = build_settings(1.0)
        b = s.b.copy()
        b[1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="b2 must be unit length"):
            TripleSettings(s.phi, s.a, b, s.b_prime)

    def test_nan_row_rejected(self):
        # NaN fails every comparison, so a check written as "> tolerance" would
        # pass it, and every residual of validate_settings would be NaN too.
        s = build_settings(1.0)
        b = s.b.copy()
        b[0] = np.nan
        with pytest.raises(ValueError, match="b1 must be unit length"):
            TripleSettings(s.phi, s.a, b, s.b_prime)

    def test_wrong_shape_rejected(self):
        s = build_settings(1.0)
        with pytest.raises(ValueError, match=r"\(3, 3\)"):
            TripleSettings(s.phi, s.a[:2], s.b, s.b_prime)


class TestBuildSettings:
    def test_coincident_limit(self):
        s = build_settings(1e-9)
        for i in range(3):
            assert s.b[i].dot(s.b_prime[i]) == pytest.approx(1.0, abs=1e-12)
            assert s.b[i].dot(s.a[i]) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_limit(self):
        s = build_settings(math.pi)
        for i in range(3):
            assert Direction(*s.b[i]).dot(DEFAULT_FRAME[i]) == pytest.approx(1.0, abs=1e-12)
            assert Direction(*s.b_prime[i]).dot(DEFAULT_FRAME[i]) == pytest.approx(-1.0, abs=1e-12)

    def test_quarter_turn_example(self):
        # frozen from the construction formula at phi = pi/2
        s = build_settings(math.pi / 2)
        x, y, z = s.b[0]
        assert x == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert y == pytest.approx(0.0, abs=1e-15)
        assert z == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    @pytest.mark.parametrize("phi", [-0.1, 0.0, math.pi + 0.01])
    def test_phi_range_enforced(self, phi):
        with pytest.raises(ValueError):
            build_settings(phi)

    def test_degenerate_frame_rejected(self):
        tilted = Direction.normalized(1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="degenerate frame"):
            build_settings(1.0, frame=(Z_AXIS, tilted, Y_AXIS), axes=DEFAULT_AXES)

    def test_axis_not_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            build_settings(1.0, frame=DEFAULT_FRAME, axes=(Z_AXIS, Y_AXIS, Z_AXIS))

    def test_rotated_frames_accepted(self, rng):
        for _ in range(20):
            rot = random_rotation(rng)
            frame = tuple(rotated(rot, e) for e in DEFAULT_FRAME)
            axes = tuple(rotated(rot, a) for a in DEFAULT_AXES)
            s = build_settings(1.1, frame=frame, axes=axes)
            assert validate_settings(s) == []


class TestSettingsArrays:
    @staticmethod
    def reference(phi, e, a):
        """The construction written out row-major: b = unit(c a + s e), b' = unit(c a - s e)."""
        half = 0.5 * np.asarray(phi, dtype=float)[..., None, None]
        c, s = np.cos(half), np.sin(half)

        def unit(v):
            return v / np.sqrt(row_dot(v, v))[..., None]

        b = unit(c * a + s * e)
        return np.broadcast_to(a, b.shape), b, unit(c * a - s * e)

    def test_bit_identical_to_the_row_major_construction(self, rng):
        # The default frame is pinned by the scan digests; these frames and axes are not.
        for _ in range(20):
            e = random_rotation(rng)  # rows: an orthonormal frame
            a = rng.normal(size=(3, 3))
            a -= row_dot(a, e)[:, None] * e
            a /= np.sqrt(row_dot(a, a))[:, None]
            for phi in (rng.uniform(0.0, math.pi), math.pi, 1e-300, 0.0,
                        rng.uniform(0.0, math.pi, 17), rng.uniform(0.0, math.pi, (2, 5)),
                        np.array(2.5)):
                got, want = settings_arrays(phi, e, a), self.reference(phi, e, a)
                for rows, expected in zip(got, want):
                    assert rows.shape == np.shape(phi) + (3, 3)
                    assert (np.ascontiguousarray(rows).view(np.uint64)
                            == np.ascontiguousarray(expected).view(np.uint64)).all()

    def test_b_rows_are_views_of_one_component_major_array(self):
        _, b, b_prime = settings_arrays(np.linspace(0.1, 3.0, 4096))
        assert b.base is not None and b.base is b_prime.base
        assert b.strides == (8, 3 * 4096 * 8, 4096 * 8)


class TestInvariants:
    def test_grid_passes_validation(self):
        for phi in np.linspace(0.01, math.pi - 0.01, 100):
            assert validate_settings(build_settings(float(phi))) == []

    def test_difference_length(self):
        for phi in np.linspace(0.01, math.pi - 0.01, 100):
            s = build_settings(float(phi))
            for i in range(3):
                assert abs(_norm(_pair_vectors(s, i, -1)) - 2.0 * math.sin(phi / 2)) < 1e-12

    def test_sum_length(self):
        for phi in np.linspace(0.01, math.pi - 0.01, 100):
            s = build_settings(float(phi))
            for i in range(3):
                assert abs(_norm(_pair_vectors(s, i, +1)) - 2.0 * math.cos(phi / 2)) < 1e-12


class TestValidate:
    def test_perturbed_b_reports_bisection(self):
        s = build_settings(1.0)
        x, y, z = s.b[0]
        bad_b = Direction.normalized(x + 1e-3, y, z)
        tampered = TripleSettings(phi=s.phi, a=s.a, b=[np.asarray(bad_b), s.b[1], s.b[2]],
                                  b_prime=s.b_prime)
        messages = validate_settings(tampered)
        assert any(m.startswith("bisection[1]") for m in messages)

    def test_non_orthogonal_differences_reported(self):
        # same plane normal twice: differences 1 and 2 become parallel
        frame = (Z_AXIS, Z_AXIS, Y_AXIS)
        axes = (X_AXIS, Y_AXIS, Z_AXIS)
        phi = 1.0
        c, s_half = math.cos(phi / 2), math.sin(phi / 2)
        b = tuple(Direction.normalized(c * a.x + s_half * e.x, c * a.y + s_half * e.y,
                                       c * a.z + s_half * e.z)
                  for a, e in zip(axes, frame))
        b_prime = tuple(Direction.normalized(c * a.x - s_half * e.x, c * a.y - s_half * e.y,
                                             c * a.z - s_half * e.z)
                        for a, e in zip(axes, frame))
        tampered = TripleSettings(phi, *([np.asarray(d) for d in dirs]
                                         for dirs in (axes, b, b_prime)))
        messages = validate_settings(tampered)
        assert any(m.startswith("difference_orthogonality[1,2]") for m in messages)

    def test_wrong_phi_reports_pair_angle(self):
        s = build_settings(1.0)
        tampered = TripleSettings(phi=1.2, a=s.a, b=s.b, b_prime=s.b_prime)
        messages = validate_settings(tampered)
        assert any(m.startswith("pair_angle") for m in messages)


class TestViolationsAtConstruction:
    def test_kept_from_validate_settings(self):
        s = build_settings(1.0)
        tampered = TripleSettings(phi=1.3, a=s.a, b=s.b, b_prime=s.b_prime)
        flipped = flip_b_prime(s)
        for settings in (s, tampered, flipped):
            assert settings.violations == tuple(validate_settings(settings))
        assert s.violations == ()
        assert tampered.violations and flipped.violations

    def test_not_a_constructor_argument(self):
        s = build_settings(1.0)
        with pytest.raises(TypeError):
            TripleSettings(s.phi, s.a, s.b, s.b_prime, violations=())


class TestFlip:
    def test_involution(self):
        s = build_settings(0.8)
        back = flip_b_prime(flip_b_prime(s))
        assert back.phi == pytest.approx(s.phi, abs=1e-12)
        assert back.b_prime.tolist() == s.b_prime.tolist()

    def test_quarter_turn_flip(self):
        flipped = flip_b_prime(build_settings(math.pi / 2))
        assert flipped.b_prime[0][0] == pytest.approx(-math.sqrt(2) / 2, abs=1e-15)
        assert flipped.b_prime[0][2] == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_flip_updates_opening_angle(self):
        s = build_settings(0.6)
        flipped = flip_b_prime(s)
        assert flipped.phi == pytest.approx(math.pi - 0.6, abs=1e-12)
        for i in range(3):
            angle = math.acos(max(-1.0, min(1.0, flipped.b[i].dot(flipped.b_prime[i]))))
            assert angle == pytest.approx(flipped.phi, abs=1e-10)

    def test_flipped_sums_mutually_orthogonal(self):
        for phi in np.linspace(0.1, math.pi - 0.1, 20):
            flipped = flip_b_prime(build_settings(float(phi)))
            assert validate_flipped_settings(flipped) == []
            sums = [_pair_vectors(flipped, i, +1) for i in range(3)]
            for i in range(3):
                for j in range(i + 1, 3):
                    dot = sum(sums[i][k] * sums[j][k] for k in range(3))
                    assert abs(dot) < 1e-12

    def test_flipped_fails_bisection_validation(self):
        flipped = flip_b_prime(build_settings(1.0))
        assert any(m.startswith("bisection") for m in validate_settings(flipped))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        s = build_settings(1.2345)
        path = tmp_path / "settings.txt"
        save_settings(path, s)
        loaded = load_settings(path)
        assert loaded.phi == s.phi
        for name in ("a", "b", "b_prime"):
            assert getattr(loaded, name).tolist() == getattr(s, name).tolist()

    def test_text_round_trip_is_idempotent(self):
        s = build_settings(0.31)
        text = settings_to_text(s)
        assert settings_to_text(settings_from_text(text)) == text

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="phi"):
            settings_from_text("a1 1 0 0\n")

    def test_duplicate_key_rejected(self):
        text = settings_to_text(build_settings(1.0))
        b1 = next(line for line in text.splitlines() if line.startswith("b1 "))
        with pytest.raises(ValueError, match="<string>:12: duplicate key 'b1'"):
            settings_from_text(text + b1 + "\n")

    def test_unknown_key_rejected(self):
        text = settings_to_text(build_settings(1.0)) + "bogus 1 2 3\n"
        with pytest.raises(ValueError, match="<string>:12: unknown key 'bogus'"):
            settings_from_text(text)

    def test_non_unit_vector_names_source(self):
        text = settings_to_text(build_settings(1.0))
        b1 = next(line for line in text.splitlines() if line.startswith("b1 "))
        with pytest.raises(ValueError, match="f.txt: b1 must be unit length"):
            settings_from_text(text.replace(b1, "b1 1.0 1.0 0.0"), source="f.txt")

    def test_bad_number_rejected(self):
        text = settings_to_text(build_settings(1.0)).replace("phi 1.0", "phi x")
        with pytest.raises(ValueError, match="bad number"):
            settings_from_text(text)

    def test_numpy_built_settings_serialize_cleanly(self, rng):
        # rotated frames carry numpy scalars; the text format must stay plain
        rot = random_rotation(rng)
        s = build_settings(np.float64(1.0),
                           frame=tuple(rotated(rot, e) for e in DEFAULT_FRAME),
                           axes=tuple(rotated(rot, a) for a in DEFAULT_AXES))
        text = settings_to_text(s)
        assert "np.float64" not in text
        loaded = settings_from_text(text)
        assert loaded.b[0][0] == s.b[0][0]

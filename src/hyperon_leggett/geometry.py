"""Triple-measurement geometry: three setting pairs with mutually orthogonal differences.

Angle convention
----------------
``phi`` is the full opening angle between a pair ``(b_i, b_i')``, not the
half-angle measured from the bisector.  The construction is::

    b_i  = cos(phi/2) * a_i + sin(phi/2) * e_i
    b_i' = cos(phi/2) * a_i - sin(phi/2) * e_i

where the ``e_i`` form an orthonormal frame and each bisector ``a_i`` is
orthogonal to its ``e_i`` (the ``a_i`` need not be orthogonal to each other).
With this convention ``|b_i - b_i'| = 2 sin(phi/2)`` and
``|b_i + b_i'| = 2 cos(phi/2)``, the two lengths the nonlocal-realism bounds
are written in terms of, and the difference vectors ``b_i - b_i'`` are
mutually orthogonal because the ``e_i`` are.

The default frame/axes pair is fixed so command-line runs are reproducible
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .quantum import ATOL, X_AXIS, Y_AXIS, Z_AXIS, row_dot

GEOM_TOL = 1e-10

DEFAULT_FRAME = (Z_AXIS, X_AXIS, Y_AXIS)
DEFAULT_AXES = (X_AXIS, Y_AXIS, Z_AXIS)

_SETTINGS_FORMAT = "triple-settings 1"
_VECTOR_NAMES = ("a", "b", "b_prime")


@dataclass(frozen=True, eq=False)
class TripleSettings:
    """The pair opening angle phi (radians) and three read-only (3, 3) arrays
    a, b and b_prime, row i the unit vector a_i, b_i or b_i'.  ``violations`` holds
    validate_settings(self), computed once here: empty for a valid layout."""

    phi: float
    a: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    violations: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", float(self.phi))
        if not -GEOM_TOL <= self.phi <= math.pi + GEOM_TOL:
            raise ValueError(f"phi must lie in [0, pi], got {self.phi!r}")
        for name in _VECTOR_NAMES:
            rows = np.array(getattr(self, name), dtype=float)
            if rows.shape != (3, 3):
                raise ValueError(f"{name} must be a (3, 3) array, one unit vector per row")
            for i, norm_sq in enumerate(row_dot(rows, rows).tolist(), start=1):
                if not abs(norm_sq - 1.0) <= ATOL:  # also refuses NaN
                    raise ValueError(f"{name}{i} must be unit length, got |v|^2 = {norm_sq!r}")
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)
        object.__setattr__(self, "violations", tuple(validate_settings(self)))


def build_settings(phi: float, frame=DEFAULT_FRAME, axes=DEFAULT_AXES) -> TripleSettings:
    """Construct the triple-measurement settings for opening angle phi in (0, pi].

    ``frame`` holds the orthonormal plane normals e_i, ``axes`` the bisectors
    a_i, with a_i orthogonal to e_i: each three Directions or a (3, 3) array.
    """
    if not 0.0 < phi <= math.pi + GEOM_TOL:
        raise ValueError(f"phi must lie in (0, pi], got {phi!r}")
    e, a = (np.array(dirs, dtype=float) for dirs in (frame, axes))
    if e.shape != (3, 3) or a.shape != (3, 3):
        raise ValueError("frame and axes must each hold three directions")
    for pair, dot in zip(("e_1.e_2", "e_1.e_3", "e_2.e_3"), _pair_dots(e).tolist()):
        if dot > GEOM_TOL:
            raise ValueError(f"degenerate frame: |{pair}| = {dot:.3e}")
    for i, dot in enumerate(row_dot(a, e).tolist(), start=1):
        if abs(dot) > GEOM_TOL:
            raise ValueError(f"axis a_{i} must be orthogonal to e_{i}, got a.e = {dot:.3e}")
    return TripleSettings(phi, *settings_arrays(phi, e, a))


def settings_arrays(phi, frame=DEFAULT_FRAME, axes=DEFAULT_AXES,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, b') of the construction for a phi array of any shape, each of shape
    ``phi.shape + (3, 3)`` with row i the i-th direction (``a`` is a read-only
    view); frame and axes as in build_settings.  Nothing is checked here;
    build_settings checks its inputs.

    b and b' are views of one (2, 3, 3) + phi.shape array, component-major, so that
    each step is one operation on contiguous rows; each is v / sqrt(row_dot(v, v)) of
    v = c*a + s*e or c*a - s*e, c and s the cosine and sine of phi/2, bit for bit."""
    e, a = (np.array(dirs, dtype=float) for dirs in (frame, axes))
    phi = np.asarray(phi, dtype=float)
    half = 0.5 * phi
    c, s = np.cos(half), np.sin(half)
    rows, (norm, temp) = np.empty((2, 3, 3) + phi.shape), np.empty((2, 3) + phi.shape)
    tail = (...,) + (None,) * phi.ndim
    for i, (b_i, b_prime_i) in enumerate(rows.swapaxes(0, 1)):
        ca, se = np.multiply(a[i][tail], c, out=norm), np.multiply(e[i][tail], s, out=b_prime_i)
        np.add(ca, se, out=b_i)
        np.subtract(ca, se, out=b_prime_i)
    for v in rows:
        np.multiply(v[:, 0], v[:, 0], out=norm)
        norm += np.multiply(v[:, 1], v[:, 1], out=temp)
        norm += np.multiply(v[:, 2], v[:, 2], out=temp)
        v /= np.sqrt(norm, out=norm)[:, None]
    b, b_prime = (np.moveaxis(v, (0, 1), (-2, -1)) for v in rows)
    return np.broadcast_to(a, b.shape), b, b_prime


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(row_dot(v, v))


def _pair_dots(v: np.ndarray) -> np.ndarray:
    """|v_i . v_j| for the row pairs (1, 2), (1, 3) and (2, 3)."""
    return np.abs(row_dot(v[[0, 0, 1]], v[[1, 2, 2]]))


def _report(name: str, quantity: str, residuals: np.ndarray,
            pairwise: bool = False) -> list[str]:
    """One message per residual above GEOM_TOL, labelled by row or by row pair."""
    labels = ("1,2", "1,3", "2,3") if pairwise else ("1", "2", "3")
    return [f"{name}[{label}]: {quantity} residual {r:.3e}"
            for label, r in zip(labels, residuals.tolist()) if r > GEOM_TOL]


def validate_settings(settings: TripleSettings) -> list[str]:
    """Check every construction invariant; return one message per violation.

    An empty list means the settings form a valid triple-measurement layout.
    Each message names the invariant and quotes its residual.  Unit length is
    checked by TripleSettings itself, which keeps this list as ``violations``.
    """
    b, b_prime = settings.b, settings.b_prime
    angle = np.arctan2(_norm(np.cross(b, b_prime)), row_dot(b, b_prime))
    sums, diffs = b + b_prime, b - b_prime
    norm = _norm(sums)
    # An antipodal pair (|b + b'| < 1e-8) is bisected by every axis.
    bisection = np.where(norm < 1e-8, 0.0,
                         _norm(sums / np.maximum(norm, 1e-8)[:, None] - settings.a))
    return (_report("pair_angle", "|angle - phi|", np.abs(angle - settings.phi))
            + _report("bisection", "|(b+b')/|b+b'| - a|", bisection)
            + _report("difference_orthogonality", "|(b_i-b_i').(b_j-b_j')|",
                      _pair_dots(diffs), pairwise=True))


def validate_flipped_settings(settings: TripleSettings) -> list[str]:
    """Check the flipped layout used by the difference-form bound.

    Requires the sum vectors (b_i + b_i') to be mutually orthogonal with
    length 2 cos(phi/2), which is what flip_b_prime produces from a valid
    triple-measurement layout.
    """
    sums = settings.b + settings.b_prime
    expected = 2.0 * abs(math.cos(0.5 * settings.phi))
    return (_report("sum_length", "||b+b'| - 2cos(phi/2)|", np.abs(_norm(sums) - expected))
            + _report("sum_orthogonality", "|(b_i+b_i').(b_j+b_j')|",
                      _pair_dots(sums), pairwise=True))


def flip_b_prime(settings: TripleSettings) -> TripleSettings:
    """Replace each b_i' with -b_i'; used by the difference-form bound.

    The stored phi is updated to pi - phi so it remains the actual opening
    angle of each (b_i, b_i') pair.  The result no longer bisects around a_i
    (so validate_settings reports that), but its sum vectors b_i + b_i' are
    mutually orthogonal with length 2 cos(phi/2), which is the layout the
    difference-form bound needs; see validate_flipped_settings.  Applying the
    flip twice returns the original arrays.
    """
    return TripleSettings(math.pi - settings.phi, settings.a, settings.b, -settings.b_prime)


def settings_to_text(settings: TripleSettings) -> str:
    """Serialize to the plain-text settings format (round-trips exactly)."""
    lines = [f"# {_SETTINGS_FORMAT}", f"phi {settings.phi!r}"]
    for name in _VECTOR_NAMES:
        for i, (x, y, z) in enumerate(getattr(settings, name).tolist(), start=1):
            lines.append(f"{name}{i} {x!r} {y!r} {z!r}")
    return "\n".join(lines) + "\n"


def settings_from_text(text: str, source: str = "<string>") -> TripleSettings:
    keys = ("phi", *(f"{name}{i}" for name in _VECTOR_NAMES for i in (1, 2, 3)))
    fields: dict[str, tuple[float, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, values = parts[0], parts[1:]
        if key not in keys or key in fields:
            problem = "duplicate" if key in fields else "unknown"
            raise ValueError(f"{source}:{lineno}: {problem} key {key!r}")
        try:
            fields[key] = tuple(float(v) for v in values)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad number in {raw!r}") from exc

    for key in keys:
        if len(fields.get(key, ())) != (1 if key == "phi" else 3):
            raise ValueError(f"{source}: missing or malformed {key!r} entry")
    try:
        return TripleSettings(fields["phi"][0], *(
            [fields[f"{name}{i}"] for i in (1, 2, 3)] for name in _VECTOR_NAMES))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def save_settings(path: str | Path, settings: TripleSettings) -> None:
    Path(path).write_text(settings_to_text(settings), encoding="utf-8")


def load_settings(path: str | Path) -> TripleSettings:
    p = Path(path)
    return settings_from_text(p.read_text(encoding="utf-8"), source=str(p))

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .quantum import Direction, X_AXIS, Y_AXIS, Z_AXIS

GEOM_TOL = 1e-10

DEFAULT_FRAME = (Z_AXIS, X_AXIS, Y_AXIS)
DEFAULT_AXES = (X_AXIS, Y_AXIS, Z_AXIS)

_SETTINGS_FORMAT = "triple-settings 1"


@dataclass(frozen=True)
class TripleSettings:
    """Nine unit vectors (a_i, b_i, b_i') plus the pair opening angle phi (radians)."""

    phi: float
    a: tuple[Direction, Direction, Direction]
    b: tuple[Direction, Direction, Direction]
    b_prime: tuple[Direction, Direction, Direction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", float(self.phi))
        if not -GEOM_TOL <= self.phi <= math.pi + GEOM_TOL:
            raise ValueError(f"phi must lie in [0, pi], got {self.phi!r}")
        for name in ("a", "b", "b_prime"):
            vecs = tuple(getattr(self, name))
            if len(vecs) != 3 or not all(isinstance(v, Direction) for v in vecs):
                raise ValueError(f"{name} must be three Direction values")
            object.__setattr__(self, name, vecs)


def build_settings(phi: float,
                   frame: tuple[Direction, Direction, Direction] = DEFAULT_FRAME,
                   axes: tuple[Direction, Direction, Direction] = DEFAULT_AXES,
                   ) -> TripleSettings:
    """Construct the triple-measurement settings for opening angle phi in (0, pi].

    ``frame`` holds the orthonormal plane normals e_i, ``axes`` the bisectors
    a_i, with a_i orthogonal to e_i.
    """
    if not 0.0 < phi <= math.pi + GEOM_TOL:
        raise ValueError(f"phi must lie in (0, pi], got {phi!r}")
    frame = tuple(frame)
    axes = tuple(axes)
    if len(frame) != 3 or len(axes) != 3:
        raise ValueError("frame and axes must each hold three directions")
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(frame[i].dot(frame[j])) > GEOM_TOL:
                raise ValueError(
                    f"degenerate frame: |e_{i+1}.e_{j+1}| = {abs(frame[i].dot(frame[j])):.3e}")
    for i in range(3):
        if abs(axes[i].dot(frame[i])) > GEOM_TOL:
            raise ValueError(
                f"axis a_{i+1} must be orthogonal to e_{i+1}, got a.e = {axes[i].dot(frame[i]):.3e}")

    _, b, b_prime = settings_arrays(phi, frame, axes)
    return TripleSettings(phi=phi, a=axes,
                          b=tuple(Direction(*row) for row in b.tolist()),
                          b_prime=tuple(Direction(*row) for row in b_prime.tolist()))


def settings_arrays(phi, frame: tuple[Direction, Direction, Direction] = DEFAULT_FRAME,
                    axes: tuple[Direction, Direction, Direction] = DEFAULT_AXES,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, b') of the construction for a phi array of any shape, each of shape
    ``phi.shape + (3, 3)`` with row i the i-th direction (``a`` is a read-only
    view).  Nothing is checked here; build_settings checks its inputs."""
    e, a = (np.array([d.as_array() for d in dirs]) for dirs in (frame, axes))
    half = 0.5 * np.asarray(phi, dtype=float)[..., None, None]
    c, s = np.cos(half), np.sin(half)
    b, b_prime = _unit(c * a + s * e), _unit(c * a - s * e)
    return np.broadcast_to(a, b.shape), b, b_prime


def _unit(v: np.ndarray) -> np.ndarray:
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    v /= np.sqrt(x * x + y * y + z * z)[..., None]  # in place: callers pass a temporary
    return v


def _angle_between(u: Direction, v: Direction) -> float:
    cx = u.y * v.z - u.z * v.y
    cy = u.z * v.x - u.x * v.z
    cz = u.x * v.y - u.y * v.x
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), u.dot(v))


def validate_settings(settings: TripleSettings) -> list[str]:
    """Check every construction invariant; return one message per violation.

    An empty list means the settings form a valid triple-measurement layout.
    Each message names the invariant and quotes its residual.
    """
    violations: list[str] = []
    for name in ("a", "b", "b_prime"):
        for i, v in enumerate(getattr(settings, name), start=1):
            residual = abs(v.x * v.x + v.y * v.y + v.z * v.z - 1.0)
            if residual > 1e-12:
                violations.append(f"unit[{name}{i}]: |v|^2 - 1 residual {residual:.3e}")

    for i in range(3):
        angle = _angle_between(settings.b[i], settings.b_prime[i])
        residual = abs(angle - settings.phi)
        if residual > GEOM_TOL:
            violations.append(f"pair_angle[{i+1}]: |angle - phi| residual {residual:.3e}")

    for i in range(3):
        bi, bpi, ai = settings.b[i], settings.b_prime[i], settings.a[i]
        sx, sy, sz = bi.x + bpi.x, bi.y + bpi.y, bi.z + bpi.z
        norm = math.sqrt(sx * sx + sy * sy + sz * sz)
        if norm < 1e-8:
            continue  # antipodal pair: every axis bisects
        residual = math.sqrt((sx / norm - ai.x) ** 2
                             + (sy / norm - ai.y) ** 2
                             + (sz / norm - ai.z) ** 2)
        if residual > GEOM_TOL:
            violations.append(f"bisection[{i+1}]: |(b+b')/|b+b'| - a| residual {residual:.3e}")

    diffs = [(settings.b[i].x - settings.b_prime[i].x,
              settings.b[i].y - settings.b_prime[i].y,
              settings.b[i].z - settings.b_prime[i].z) for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            residual = abs(diffs[i][0] * diffs[j][0]
                           + diffs[i][1] * diffs[j][1]
                           + diffs[i][2] * diffs[j][2])
            if residual > GEOM_TOL:
                violations.append(
                    f"difference_orthogonality[{i+1},{j+1}]: |(b_i-b_i').(b_j-b_j')| "
                    f"residual {residual:.3e}")
    return violations


def validate_flipped_settings(settings: TripleSettings) -> list[str]:
    """Check the flipped layout used by the difference-form bound.

    Requires the sum vectors (b_i + b_i') to be mutually orthogonal with
    length 2 cos(phi/2), which is what flip_b_prime produces from a valid
    triple-measurement layout.
    """
    violations: list[str] = []
    sums = [(settings.b[i].x + settings.b_prime[i].x,
             settings.b[i].y + settings.b_prime[i].y,
             settings.b[i].z + settings.b_prime[i].z) for i in range(3)]
    expected = 2.0 * abs(math.cos(0.5 * settings.phi))
    for i in range(3):
        norm = math.sqrt(sums[i][0] ** 2 + sums[i][1] ** 2 + sums[i][2] ** 2)
        residual = abs(norm - expected)
        if residual > GEOM_TOL:
            violations.append(
                f"sum_length[{i+1}]: ||b+b'| - 2cos(phi/2)| residual {residual:.3e}")
    for i in range(3):
        for j in range(i + 1, 3):
            residual = abs(sums[i][0] * sums[j][0] + sums[i][1] * sums[j][1]
                           + sums[i][2] * sums[j][2])
            if residual > GEOM_TOL:
                violations.append(
                    f"sum_orthogonality[{i+1},{j+1}]: |(b_i+b_i').(b_j+b_j')| "
                    f"residual {residual:.3e}")
    return violations


def flip_b_prime(settings: TripleSettings) -> TripleSettings:
    """Replace each b_i' with -b_i'; used by the difference-form bound.

    The stored phi is updated to pi - phi so it remains the actual opening
    angle of each (b_i, b_i') pair.  The result no longer bisects around a_i
    (so validate_settings reports that), but its sum vectors b_i + b_i' are
    mutually orthogonal with length 2 cos(phi/2), which is the layout the
    difference-form bound needs; see validate_flipped_settings.  Applying the
    flip twice returns the original layout.
    """
    return TripleSettings(phi=math.pi - settings.phi,
                          a=settings.a,
                          b=settings.b,
                          b_prime=tuple(-bp for bp in settings.b_prime))


def settings_to_text(settings: TripleSettings) -> str:
    """Serialize to the plain-text settings format (round-trips exactly)."""
    lines = [f"# {_SETTINGS_FORMAT}", f"phi {settings.phi!r}"]
    for label, vecs in (("a", settings.a), ("b", settings.b), ("b_prime", settings.b_prime)):
        for i, v in enumerate(vecs, start=1):
            lines.append(f"{label}{i} {v.x!r} {v.y!r} {v.z!r}")
    return "\n".join(lines) + "\n"


def settings_from_text(text: str, source: str = "<string>") -> TripleSettings:
    fields: dict[str, tuple[float, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, values = parts[0], parts[1:]
        try:
            fields[key] = tuple(float(v) for v in values)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad number in {raw!r}") from exc

    if "phi" not in fields or len(fields["phi"]) != 1:
        raise ValueError(f"{source}: missing or malformed 'phi' entry")
    vectors: dict[str, list[Direction]] = {"a": [], "b": [], "b_prime": []}
    for label in ("a", "b", "b_prime"):
        for i in (1, 2, 3):
            key = f"{label}{i}"
            if key not in fields or len(fields[key]) != 3:
                raise ValueError(f"{source}: missing or malformed '{key}' entry")
            vectors[label].append(Direction(*fields[key]))
    return TripleSettings(phi=fields["phi"][0],
                          a=tuple(vectors["a"]),
                          b=tuple(vectors["b"]),
                          b_prime=tuple(vectors["b_prime"]))


def save_settings(path: str | Path, settings: TripleSettings) -> None:
    Path(path).write_text(settings_to_text(settings), encoding="utf-8")


def load_settings(path: str | Path) -> TripleSettings:
    p = Path(path)
    return settings_from_text(p.read_text(encoding="utf-8"), source=str(p))

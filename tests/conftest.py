"""Helpers shared by the tests, and the reference models that only tests use: the
product-form local model, the coplanar Tsirelson/CH settings and single-decay
sampling from one stream."""

import math

import numpy as np
import pytest

from hyperon_leggett import DecayMode, Direction, MeasurementParams, mean_polarization
from hyperon_leggett.povm import _check_outcome
from hyperon_leggett.eventtext import _Workspace, _format_rows
from hyperon_leggett.simulation import _flip_rows, _generator, _unit_rows


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


def random_direction(rng) -> Direction:
    v = rng.normal(size=3)
    return Direction.normalized(*v)


def random_params(rng) -> MeasurementParams:
    """Valid (eta, alpha) pair: |eta| + |alpha| <= 1 by construction."""
    eta = rng.uniform(-1.0, 1.0)
    alpha = rng.uniform(-1.0, 1.0) * (1.0 - abs(eta))
    return MeasurementParams(eta, alpha)


def random_rotation(rng) -> np.ndarray:
    """Haar-ish random rotation matrix via QR of a Gaussian matrix."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotated(rotation: np.ndarray, d: Direction) -> Direction:
    x, y, z = rotation @ np.asarray(d)
    return Direction.normalized(x, y, z)


def setting_directions(settings) -> list[tuple[Direction, Direction, Direction]]:
    """(a_i, b_i, b_i') for each row i of the settings arrays, as Directions."""
    return [tuple(Direction(*rows[i]) for rows in (settings.a, settings.b, settings.b_prime))
            for i in range(3)]


def format_rows(rows: np.ndarray) -> bytes:
    """The text _format_rows writes for the rows of a (k, 6) array, in a workspace of its own."""
    return bytes(_format_rows(rows, _Workspace(len(rows))))


def percent_rows(rows: np.ndarray) -> bytes:
    """The "%.17g" text of the rows of a (k, 6) array, as np.savetxt writes it."""
    return (("%.17g " * 5 + "%.17g\n") * len(rows) % tuple(rows.ravel().tolist())).encode()


def serialize_catalog(modes: list[DecayMode]) -> str:
    """Canonical text form: one mode per line, fixed column order."""
    lines = ["# columns: hyperon channel alpha alpha_uncertainty cp_conjugate"]
    for m in modes:
        cp = m.cp_conjugate if m.cp_conjugate is not None else "-"
        lines.append(f"{m.hyperon} {m.channel} {m.alpha!r} {m.alpha_uncertainty!r} {cp}")
    return "\n".join(lines) + "\n"


def _random_unit(n: int, rng: np.random.Generator) -> np.ndarray:
    """n isotropic unit vectors from 2n uniforms of rng: the n cosines, then the n
    azimuths."""
    rows = np.empty((3, n))
    _unit_rows(rng.random(n), rng.random(n), rows)
    return rows.T


def _sample_about_axes(axes: np.ndarray, alpha: float,
                       rng: np.random.Generator) -> np.ndarray:
    """One direction per axis row with density (1 + alpha axis.n)/(4 pi), from 3n
    uniforms of rng: the isotropic w, then the flips.  After n_A = _random_unit(n, rng)
    this takes the uniforms in pair_blocks' order (cos theta_A, psi_A, cos theta_w,
    psi_w, flip), so it is the whole-array draw that pair_blocks makes block by block."""
    n = axes.shape[0]
    w = _random_unit(n, rng).T
    _flip_rows(axes.T, np.ones(3), alpha, w, rng.random(n), np.empty((2, n)))
    return w.T


def sample_single_decays(u: Direction, alpha: float, n_events: int, seed: int) -> np.ndarray:
    """(n_events, 3) array of daughter directions from a polarized decay."""
    if not -1.0 <= alpha <= 1.0:
        raise ValueError(f"|alpha| must not exceed 1, got {alpha!r}")
    if n_events < 1:
        raise ValueError("n_events must be at least 1")
    axes = np.broadcast_to(np.asarray(u), (n_events, 3))
    return _sample_about_axes(axes, alpha, _generator(seed))


def _coplanar(theta_deg: float) -> Direction:
    t = math.radians(theta_deg)
    return Direction.normalized(math.sin(t), 0.0, math.cos(t))


def tsirelson_settings() -> tuple[Direction, Direction, Direction, Direction]:
    """Co-planar directions (x-z plane at 0, 90, 45, 135 degrees) maximizing the
    correlation-function combination for the anticorrelated pair state."""
    return (_coplanar(0.0), _coplanar(90.0), _coplanar(45.0), _coplanar(135.0))


def ch_optimal_settings() -> tuple[Direction, Direction, Direction, Direction, int, int]:
    """Co-planar optimum (a, a', b, b', j, k) of the joint-probability bound.

    Uses the same 0/90/45/135-degree directions as tsirelson_settings.  The
    anticorrelated pair state peaks there for the mixed outcome pair
    (j, k) = (+1, -1); picking (+1, +1) instead would need b and b' negated.
    """
    a, ap, b, bp = tsirelson_settings()
    return (a, ap, b, bp, 1, -1)


def local_model_correlation(u: Direction, v: Direction,
                            pa: MeasurementParams, pb: MeasurementParams,
                            a: Direction, b: Direction) -> float:
    """Correlation of the reference local model with definite polarizations (u, v).

    Each side responds independently with mean eta + alpha cos (the
    generalized cosine law), so the correlation is the product of the two
    means.  Mixtures of such models satisfy all three bounds of
    hyperon_leggett.inequalities; the negative-control tests rely on that.
    """
    return mean_polarization(u, pa, a) * mean_polarization(v, pb, b)


def local_model_joint_probability(u: Direction, v: Direction,
                                  pa: MeasurementParams, pb: MeasurementParams,
                                  a: Direction, b: Direction,
                                  j: int, k: int) -> float:
    """Joint outcome probability of the reference local model (product form)."""
    _check_outcome("j", j)
    _check_outcome("k", k)
    p_j = 0.5 * (1.0 + j * mean_polarization(u, pa, a))
    p_k = 0.5 * (1.0 + k * mean_polarization(v, pb, b))
    return p_j * p_k

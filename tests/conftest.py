import numpy as np
import pytest

from hyperon_leggett import Direction, MeasurementParams


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
    x, y, z = rotation @ d.as_array()
    return Direction.normalized(x, y, z)


def setting_directions(settings) -> list[tuple[Direction, Direction, Direction]]:
    """(a_i, b_i, b_i') for each row i of the settings arrays, as Directions."""
    return [tuple(Direction(*rows[i]) for rows in (settings.a, settings.b, settings.b_prime))
            for i in range(3)]

"""Monte Carlo decay events and the estimators that rebuild correlations from them.

Sampling contract
-----------------
A polarized decay emits the daughter direction n with density
``(1 + alpha u.n) / (4 pi)`` about the polarization u.  The cosine relative
to u has a linear density, so it is drawn by closed-form inverse CDF; the
azimuth is uniform.  For an entangled pair the joint density is

    W(n_A, n_B) = (1/(4 pi)^2) * (1 + alpha_a alpha_b n_A^T C n_B)

with C the 3x3 spin-correlation matrix of the pair state (diagonal; its
diagonal per state is tabulated in correlations.PAIR_STATES).  n_A is drawn
uniformly (its marginal is isotropic) and n_B from the conditional density
about the axis C^T n_A, which is again linear in the cosine.  C is recomputed
from the density matrix and checked before any event is drawn.

Generation uses numpy's counter-based Philox stream ("philox4x64") keyed by a
64-bit seed; a fixed seed reproduces samples bit for bit.

Estimator
---------
The sphere average of (n.a)(n.u) equals (a.u)/3; that moment identity applies
once per side, so ``9 <(n_A.a)(n_B.b)>`` is an unbiased estimator of the
channel correlation at raw directions (a, b).  It is w.x with w = 9 vec(a b^T)
and x = vec(n_A n_B^T), so the count, mean and centred sum of squares of x
(event_moments) determine every estimate and its error, for any settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .catalog import ProductionChannel, channel_spin_state
from .correlations import a_side_inversion, spin_correlation_diagonal
from .geometry import TripleSettings, validate_settings
from .inequalities import leggett_sum_value
from .quantum import PAULI, Direction, expectation, tensor

GENERATOR = "philox4x64"

_EVENTS_FORMAT = "hyperon-leggett-events 1"
_EVENT_ROW_FORMAT = " ".join(["%.17g"] * 6) + "\n"
# Rows per block when writing text and when accumulating moments.
_BLOCK_ROWS = 4096
# Provenance fields of an events file, in header order; each is an EventSample field.
_PROVENANCE_FIELDS = ("generator", "seed", "mother", "hyperon_a", "hyperon_b",
                      "alpha_a", "alpha_b", "spin_state", "catalog_sha256")
_BOOTSTRAP_REPLICAS = 200


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def spin_correlation_matrix(channel: ProductionChannel) -> np.ndarray:
    """3x3 matrix <sigma_i (x) sigma_j> of the channel's pair state.

    Computed from the density matrix and checked against the tabulated
    diagonal, whose exact entries are returned so the sampler sees clean ones.
    """
    state = channel_spin_state(channel)
    computed = np.array([[expectation(state, tensor(si, sj)) for sj in PAULI]
                         for si in PAULI])
    expected = np.diag(spin_correlation_diagonal(channel.spin_state))
    residual = float(np.max(np.abs(computed - expected)))
    if residual > 1e-12:
        raise ArithmeticError(
            f"spin-correlation matrix residual {residual:.3e} for {channel.spin_state}")
    return expected


def _sample_cosines(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draw from the linear density (1 + alpha*c)/2 on [-1, 1]."""
    r = rng.random(n)
    # (sqrt(D) - 1)/alpha with D = (1-alpha)^2 + 4 alpha r, rationalised so no
    # digits cancel as alpha -> 0; at alpha = 0 it is exactly 2r - 1.
    return (4.0 * r - 2.0 + alpha) / (np.sqrt((1.0 - alpha) ** 2 + 4.0 * alpha * r) + 1.0)


def _orthonormal_complement(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    helper = np.zeros_like(axes)
    use_x = np.abs(axes[:, 0]) < 0.9
    helper[use_x, 0] = 1.0
    helper[~use_x, 1] = 1.0
    t1 = np.cross(axes, helper)
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(axes, t1)
    return t1, t2


def _sample_about_axes(axes: np.ndarray, alpha: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Directions with density (1 + alpha * axis.n)/(4 pi), one per axis row."""
    n = axes.shape[0]
    c = _sample_cosines(alpha, n, rng)
    psi = 2.0 * math.pi * rng.random(n)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    t1, t2 = _orthonormal_complement(axes)
    return (c[:, None] * axes
            + (s * np.cos(psi))[:, None] * t1
            + (s * np.sin(psi))[:, None] * t2)


def _random_unit(n: int, rng: np.random.Generator) -> np.ndarray:
    """Isotropic unit vectors: uniform cosine and azimuth, inverse-CDF style."""
    c = 2.0 * rng.random(n) - 1.0
    psi = 2.0 * math.pi * rng.random(n)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    return np.column_stack([s * np.cos(psi), s * np.sin(psi), c])


def sample_single_decays(u: Direction, alpha: float, n_events: int, seed: int) -> np.ndarray:
    """(n_events, 3) array of daughter directions from a polarized decay."""
    if not -1.0 <= alpha <= 1.0:
        raise ValueError(f"|alpha| must not exceed 1, got {alpha!r}")
    if n_events < 1:
        raise ValueError("n_events must be at least 1")
    axes = np.broadcast_to(u.as_array(), (n_events, 3)).copy()
    return _sample_about_axes(axes, alpha, _generator(seed))


@dataclass(frozen=True)
class EventSample:
    """Joint decay events (n_A, n_B) with full provenance for reproducibility."""

    n_a: np.ndarray
    n_b: np.ndarray
    seed: int
    mother: str
    hyperon_a: str
    hyperon_b: str
    alpha_a: float
    alpha_b: float
    spin_state: str
    generator: str = GENERATOR
    catalog_sha256: str = "-"

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "alpha_a", float(self.alpha_a))
        object.__setattr__(self, "alpha_b", float(self.alpha_b))
        spin_correlation_diagonal(self.spin_state)  # refuses an unknown pair state
        for name in ("n_a", "n_b"):
            # A read-only view: float input (a loaded file's rows) is not copied.
            arr = np.asarray(getattr(self, name), dtype=float).view()
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"{name} must have shape (N, 3)")
            worst = float(np.max(np.abs(np.einsum("ij,ij->i", arr, arr) - 1.0)))
            if worst > 1e-12:
                raise ValueError(f"{name} holds non-unit directions (residual {worst:.3e})")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.n_a.shape != self.n_b.shape:
            raise ValueError("n_a and n_b must hold the same number of events")

    @property
    def n_events(self) -> int:
        return self.n_a.shape[0]


def sample_pair_decay(channel: ProductionChannel, n_events: int, seed: int,
                      catalog_sha256: str = "-") -> EventSample:
    """Joint decay events for an entangled pair channel; see the module docstring."""
    if n_events < 1:
        raise ValueError("n_events must be at least 1")
    c_matrix = spin_correlation_matrix(channel)
    alpha_ab = channel.mode_a.alpha * channel.mode_b.alpha
    rng = _generator(seed)
    n_a = _random_unit(n_events, rng)
    # C is +-diagonal (checked above), so n_a C needs no matrix product.
    n_b = _sample_about_axes(n_a * np.diag(c_matrix), alpha_ab, rng)
    return EventSample(n_a=n_a, n_b=n_b, seed=seed, mother=channel.mother,
                       hyperon_a=channel.mode_a.hyperon, hyperon_b=channel.mode_b.hyperon,
                       alpha_a=channel.mode_a.alpha, alpha_b=channel.mode_b.alpha,
                       spin_state=channel.spin_state, catalog_sha256=catalog_sha256)


def event_moments(sample: EventSample) -> tuple[int, np.ndarray, np.ndarray]:
    """Count, mean and centred sum of squares sum (x - mean)(x - mean)^T of the
    per-event 9-vectors x = vec(n_A n_B^T), over blocks of a fixed size, each
    centred on its own mean and merged in order (Chan, Golub & LeVeque,
    "Algorithms for computing the sample variance", 1983): raw second moments
    never cancel."""
    count, mean, scatter = 0, np.zeros(9), np.zeros((9, 9))
    for start in range(0, sample.n_events, _BLOCK_ROWS):
        n_a = sample.n_a[start:start + _BLOCK_ROWS].T
        n_b = sample.n_b[start:start + _BLOCK_ROWS].T
        # One row of x per component, so the reductions run over contiguous rows.
        x = np.multiply(n_a[:, None, :], n_b[None, :, :], order="C").reshape(9, -1)
        rows = x.shape[1]
        block_mean = x.mean(axis=1)
        x -= block_mean[:, None]
        delta = block_mean - mean
        total = count + rows
        scatter += x @ x.T + np.outer(delta, delta) * (count * rows / total)
        mean += delta * (rows / total)
        count = total
    return count, mean, scatter


@dataclass(frozen=True)
class EstimatedCorrelation:
    e_hat: float
    std_error: float
    n_used: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")


def estimate_correlation(sample: EventSample, a: Direction, b: Direction) -> EstimatedCorrelation:
    """Moment estimator 9 <(n_A.a)(n_B.b)> = w.mean(x), unbiased for the channel
    correlation at raw directions (a, b); standard error from the event spread."""
    if sample.n_events < 100:
        raise ValueError(f"sample too small: {sample.n_events} events, need at least 100")
    count, mean, scatter = event_moments(sample)
    w = 9.0 * np.outer(a.as_array(), b.as_array()).ravel()
    return EstimatedCorrelation(e_hat=float(w @ mean),
                                std_error=math.sqrt(w @ scatter @ w / ((count - 1) * count)),
                                n_used=count)


@dataclass(frozen=True)
class LeggettEstimate:
    lhs_hat: float
    std_error: float
    e_sums: tuple[float, float, float]
    e_sum_errors: tuple[float, float, float]
    method: str


def estimate_leggett_lhs(sample: EventSample, settings: TripleSettings) -> LeggettEstimate:
    """Sum-form left-hand side estimated from events, with its standard error.

    Pair sum i is 9 (n_A.F a_i)(n_B.(b_i + b'_i)) = W_i.x, W_i = 9 vec((F a_i)(b_i + b'_i)^T),
    F from correlations.a_side_inversion (the z flip for triplet samples), so the
    means are W mean(x) and their covariance W S W^T / ((n-1) n), S the scatter of
    event_moments.  Errors propagate by the delta method through the absolute
    values; when any pair sum sits within two standard errors of zero (where the
    delta method degenerates) a seeded parametric bootstrap draws 200 replicas of
    the means from the normal law with that covariance instead.
    """
    if sample.n_events < 100:
        raise ValueError(f"sample too small: {sample.n_events} events, need at least 100")
    violations = validate_settings(settings)
    if violations:
        raise ValueError("invalid triple settings: " + "; ".join(violations))
    count, mean, scatter = event_moments(sample)

    a = settings.a * a_side_inversion(sample.spin_state)
    weights = 9.0 * (a[:, :, None] * (settings.b + settings.b_prime)[:, None, :]).reshape(3, 9)
    means = weights @ mean
    cov = weights @ scatter @ weights.T / ((count - 1) * count)
    se_means = np.sqrt(np.diag(cov))

    lhs_hat = leggett_sum_value(means, sample.alpha_b, settings.phi)

    if np.all(np.abs(means) > 2.0 * se_means):
        grad = np.sign(means) / 3.0
        std_error = float(math.sqrt(grad @ cov @ grad))
        method = "delta"
    else:
        # Keyed off the sample seed so reruns match exactly; "eigh" also takes a
        # singular covariance, such as the zero one when every b_i + b'_i vanishes.
        rng = _generator(sample.seed ^ 0x626F6F74)
        replica_means = rng.multivariate_normal(means, cov, _BOOTSTRAP_REPLICAS, method="eigh")
        replicas = leggett_sum_value(replica_means, sample.alpha_b, settings.phi)
        std_error = float(replicas.std(ddof=1))
        method = "bootstrap"

    return LeggettEstimate(lhs_hat=lhs_hat, std_error=std_error,
                           e_sums=tuple(float(m) for m in means),
                           e_sum_errors=tuple(float(s) for s in se_means),
                           method=method)


def save_events(path: str | Path, sample: EventSample) -> None:
    """Versioned columnar text file: provenance header, then six floats per event."""
    header = [_EVENTS_FORMAT, *(f"{key} {getattr(sample, key)}" for key in _PROVENANCE_FIELDS),
              f"n_events {sample.n_events}", "columns nax nay naz nbx nby nbz"]
    # The same bytes as np.savetxt(fmt="%.17g", comments="# ").
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"# {line}\n" for line in header))
        write_row_blocks(fh, _EVENT_ROW_FORMAT, [sample.n_a, sample.n_b])


def write_row_blocks(fh: TextIO, row_format: str, columns: Sequence[np.ndarray]) -> None:
    """Write the rows of ``columns`` ((N,) or (N, k) arrays, stacked as floats)
    as ``row_format % row``, one ``%`` per block, never holding the whole text."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([col[start:start + _BLOCK_ROWS] for col in columns])
        fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


def load_events(path: str | Path) -> EventSample:
    p = Path(path)
    meta: dict[str, str] = {}
    with p.open(encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != f"# {_EVENTS_FORMAT}":
            raise ValueError(f"{p}: unrecognized events file (header {first!r})")
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].strip().partition(" ")
            meta[key] = value
    missing = [key for key in (*_PROVENANCE_FIELDS, "n_events") if key not in meta]
    if missing:
        raise ValueError(f"{p}: missing header fields {missing}")
    data = np.loadtxt(p, comments="#", ndmin=2)
    if data.shape != (int(meta["n_events"]), 6):
        raise ValueError(f"{p}: expected {meta['n_events']} rows of 6 columns, "
                         f"got {data.shape}")
    return EventSample(n_a=data[:, :3], n_b=data[:, 3:],
                       **{key: meta[key] for key in _PROVENANCE_FIELDS})

"""Monte Carlo decay events and the estimators that rebuild correlations from them.

Sampling contract
-----------------
A polarized decay emits the daughter direction n with density
``(1 + alpha u.n) / (4 pi)`` about the polarization u.  It is drawn exactly by a
sign flip: an isotropic w is kept with probability p(w) = (1 + alpha u.w)/2 and
reversed otherwise, so n has density [p(n) + 1 - p(-n)] / (4 pi), which is
``(1 + alpha u.n) / (4 pi)``.  For an entangled pair the joint density is

    W(n_A, n_B) = (1/(4 pi)^2) * (1 + alpha_a alpha_b n_A^T C n_B)

with C the 3x3 spin-correlation matrix of the pair state (diagonal; its
diagonal per state is tabulated in correlations.PAIR_STATES).  n_A is drawn
uniformly (its marginal is isotropic) and n_B by the same flip about the axis
C^T n_A with alpha_a alpha_b in place of alpha.  `check` holds the table against
the density matrices.

Generation uses numpy's counter-based Philox stream ("philox4x64") keyed by a
64-bit seed; a fixed seed reproduces samples bit for bit.  Pair events are drawn
in blocks (pair_blocks) at fixed stream offsets, so the bytes do not depend on
how many events are held at once.

Estimator
---------
The sphere average of (n.a)(n.u) equals (a.u)/3; that moment identity applies
once per side, so ``9 <(n_A.a)(n_B.b)>`` is an unbiased estimator of the
channel correlation at raw directions (a, b).  It is w.x with w = 9 vec(a b^T)
and x = vec(n_A n_B^T), so the count, mean and centred sum of squares of x
(event_moments) determine every estimate and its error (correlation_estimates).
"""

from __future__ import annotations

import math
import operator
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from .catalog import DecayMode, ProductionChannel, _check_one_line
from .correlations import a_side_inversion, spin_correlation_diagonal
from .eventtext import _Workspace, _format_rows, _read_rows
from .geometry import TripleSettings
from .inequalities import leggett_sum_value
from .quantum import _BLOCK_ROWS

GENERATOR = "philox4x64"

_EVENTS_FORMAT = "hyperon-leggett-events 1"
# Provenance fields of an events file, in header order; each is an EventSample field.
_PROVENANCE_FIELDS = ("generator", "seed", "mother", "hyperon_a", "hyperon_b",
                      "alpha_a", "alpha_b", "spin_state", "catalog_sha256")
_HEADER_FIELDS = (*_PROVENANCE_FIELDS, "n_events", "columns")
_COLUMNS = "nax nay naz nbx nby nbz"
_BOOTSTRAP_REPLICAS = 200
# Event rows formatted at a time: half a block, whose text workspace (1.4 MB) fits a 2 MiB
# L2 cache.  Warm, 2048 rows format as fast a row as 4096 (within 2 %) and 1024 rows
# about 11 % slower.
_TEXT_ROWS = _BLOCK_ROWS // 2

# Count, mean and centred sum of squares of x = vec(n_A n_B^T); see event_moments.
Moments = tuple[int, np.ndarray, np.ndarray]
# The (3, rows) component rows of n_a and of n_b for a block of events.
Block = tuple[np.ndarray, np.ndarray]


def check_seed(seed: Any, name: str = "seed") -> int:
    """The seed as an int, refused (message led by ``name``) outside [0, 2**64)."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {seed!r}") from None
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return value


def _generator(seed: int, offset: int = 0) -> np.random.Generator:
    """The Philox stream keyed by ``seed``, after its first ``offset`` doubles."""
    bit_generator = np.random.Philox(key=np.uint64(check_seed(seed)))
    bit_generator.advance(offset // 4)  # one counter step gives four 64-bit words
    rng = np.random.Generator(bit_generator)
    rng.random(offset % 4)
    return rng


def _unit_rows(u_cos: np.ndarray, u_psi: np.ndarray, out: np.ndarray) -> None:
    """Isotropic unit vectors, as the (3, n) component rows ``out``, from uniform
    cosines and azimuths, inverse-CDF style; u_cos and u_psi are overwritten."""
    x, y, z = out
    np.multiply(u_cos, 2.0, out=z)
    z -= 1.0
    s = np.multiply(z, z, out=u_cos)
    np.subtract(1.0, s, out=s)
    np.sqrt(np.clip(s, 0.0, None, out=s), out=s)
    psi = np.multiply(u_psi, 2.0 * math.pi, out=u_psi)
    np.multiply(np.cos(psi, out=x), s, out=x)
    np.multiply(np.sin(psi, out=y), s, out=y)


def _flip_rows(axes: np.ndarray, scale: np.ndarray, alpha: float, w: np.ndarray,
               u_flip: np.ndarray, scratch: np.ndarray) -> None:
    """Turn the isotropic (3, n) rows w, in place, into directions with density
    (1 + alpha * axis.n)/(4 pi) about the axes ``axes * scale[:, None]``: w is kept
    where u_flip falls below (1 + alpha * axis.w)/2 and reversed elsewhere.  The
    (2, n) ``scratch`` is overwritten."""
    dot, term = scratch
    np.multiply(axes[0], scale[0], out=dot)
    dot *= w[0]
    for k in (1, 2):
        np.multiply(axes[k], scale[k], out=term)
        term *= w[k]
        dot += term
    dot *= alpha
    dot += 1.0
    dot *= 0.5
    flip = np.greater_equal(u_flip, dot, out=term.view(np.bool_)[:dot.size])
    np.copyto(dot, flip)
    dot *= -2.0
    dot += 1.0  # 1 - 2 flip
    w *= dot


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
        object.__setattr__(self, "seed", check_seed(self.seed))
        # The channel types' rules: each alpha in [-1, 1], a known mother.
        modes = (DecayMode(self.hyperon_a, "-", self.alpha_a, 0.0),
                 DecayMode(self.hyperon_b, "-", self.alpha_b, 0.0))
        channel = ProductionChannel(self.mother, *modes)
        object.__setattr__(self, "alpha_a", channel.mode_a.alpha)
        object.__setattr__(self, "alpha_b", channel.mode_b.alpha)
        spin_correlation_diagonal(self.spin_state)  # refuses an unknown pair state
        if self.spin_state != channel.spin_state:
            raise ValueError(f"spin_state {self.spin_state!r} does not match mother "
                             f"{self.mother!r}, whose pair state is {channel.spin_state!r}")
        if self.generator != GENERATOR:
            raise ValueError(f"generator {self.generator!r} is not {GENERATOR!r}")
        _check_one_line("catalog_sha256", self.catalog_sha256)
        for name in ("n_a", "n_b"):
            # A read-only view: float input (a loaded file's rows) is not copied.
            arr = np.asarray(getattr(self, name), dtype=float).view()
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"{name} must have shape (N, 3)")
            if len(arr) == 0:
                raise ValueError(f"{name} holds no events")
            scratch = np.empty((2, min(len(arr), _BLOCK_ROWS)))
            for start in range(0, len(arr), _BLOCK_ROWS):
                _check_unit_rows(name, arr[start:start + _BLOCK_ROWS].T, scratch)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.n_a.shape != self.n_b.shape:
            raise ValueError("n_a and n_b must hold the same number of events")

    @property
    def n_events(self) -> int:
        return self.n_a.shape[0]

    def __iter__(self) -> Iterator[Block]:
        """The events as blocks of _BLOCK_ROWS events (the last may be shorter): for
        each, the (3, rows) component rows of n_a and of n_b, transposed views of the
        sample's arrays."""
        for start in range(0, self.n_events, _BLOCK_ROWS):
            yield self.n_a[start:start + _BLOCK_ROWS].T, self.n_b[start:start + _BLOCK_ROWS].T


def _check_unit_rows(name: str, rows: np.ndarray, scratch: np.ndarray) -> None:
    """Refuse (3, k) component rows with a direction off unit length by more than 1e-12,
    or NaN; the first k columns of the (2, >= k) ``scratch`` are overwritten."""
    norm, term = scratch[:, :rows.shape[1]]
    np.multiply(rows[0], rows[0], out=norm)
    for k in (1, 2):
        norm += np.multiply(rows[k], rows[k], out=term)
    norm -= 1.0
    worst = float(np.max(np.abs(norm, out=norm)))
    if not worst <= 1e-12:  # also refuses NaN, which np.max propagates
        raise ValueError(f"{name} holds non-unit directions (residual {worst:.3e})")


def _pair_provenance(channel: ProductionChannel, seed: int,
                     catalog_sha256: str) -> dict[str, Any]:
    return {"generator": GENERATOR, "seed": int(seed), "mother": channel.mother,
            "hyperon_a": channel.mode_a.hyperon, "hyperon_b": channel.mode_b.hyperon,
            "alpha_a": float(channel.mode_a.alpha), "alpha_b": float(channel.mode_b.alpha),
            "spin_state": channel.spin_state, "catalog_sha256": catalog_sha256}


def pair_blocks(channel: ProductionChannel, n_events: int, seed: int) -> Iterator[Block]:
    """Joint decay events for an entangled pair channel (see the module docstring), in
    blocks of _BLOCK_ROWS events (the last may be shorter), drawn one block at a time:
    for each, the (3, rows) component rows of n_a and of n_b.  A block is a view of one
    workspace that the next block overwrites: it is valid until the next is drawn.

    An event takes five uniforms: the cosine and azimuth of n_A, those of the
    isotropic w, and the flip.  Uniform k of event i is double k * n_events + i of
    the seed's Philox stream, so the events do not depend on the block size: each
    kind has its own generator, started at its offset.
    """
    if n_events < 1:
        raise ValueError("n_events must be at least 1")
    # C is diagonal, so n_a C needs no matrix product.
    c_diag = spin_correlation_diagonal(channel.spin_state)
    alpha_ab = channel.mode_a.alpha * channel.mode_b.alpha
    streams = [_generator(seed, kind * n_events) for kind in range(5)]
    return _pair_blocks(streams, n_events, c_diag, alpha_ab)


def _pair_blocks(streams: list[np.random.Generator], n_events: int, c_diag: np.ndarray,
                 alpha_ab: float) -> Iterator[Block]:
    # Each block's uniforms, one row per kind: a row is scratch once it is consumed.
    uniforms = np.empty((5, min(_BLOCK_ROWS, n_events)))
    events = np.empty((6, uniforms.shape[1]))
    for start in range(0, n_events, _BLOCK_ROWS):
        u = uniforms[:, :min(_BLOCK_ROWS, n_events - start)]
        for rng, row in zip(streams, u):
            rng.random(out=row)
        n_a, n_b = events[:3, :u.shape[1]], events[3:, :u.shape[1]]
        _unit_rows(u[0], u[1], n_a)
        _unit_rows(u[2], u[3], n_b)
        _flip_rows(n_a, c_diag, alpha_ab, n_b, u[4], u[:2])
        yield n_a, n_b


def sample_pair_decay(channel: ProductionChannel, n_events: int, seed: int,
                      catalog_sha256: str = "-") -> EventSample:
    """The blocks of pair_blocks(channel, n_events, seed) in one sample."""
    n_a, n_b = np.empty((n_events, 3)), np.empty((n_events, 3))
    for start, (block_a, block_b) in zip(range(0, n_events, _BLOCK_ROWS),
                                         pair_blocks(channel, n_events, seed)):
        n_a[start:start + block_a.shape[1]] = block_a.T
        n_b[start:start + block_b.shape[1]] = block_b.T
    return EventSample(n_a=n_a, n_b=n_b, **_pair_provenance(channel, seed, catalog_sha256))


def event_moments(blocks: Iterable[Block]) -> Moments:
    """Count, mean and centred sum of squares sum (x - mean)(x - mean)^T of the
    per-event 9-vectors x = vec(n_A n_B^T), over blocks (n_a, n_b) of (3, rows)
    component rows such as pair_blocks' and an EventSample's, each centred on its own
    mean and merged in order (Chan, Golub & LeVeque, "Algorithms for computing the
    sample variance", 1983): raw second moments never cancel."""
    count, mean, scatter, work = 0, np.zeros(9), np.zeros((9, 9)), np.empty(0)
    for n_a, n_b in blocks:
        rows = n_a.shape[1]
        # One buffer for every block's x: a new 295 KB one per block may be mmapped anew.
        if work.size < 9 * rows:
            work = np.empty(9 * rows)
        # One row of x per component, so the reductions run over contiguous rows.
        x = np.multiply(n_a[:, None, :], n_b[None, :, :],
                        out=work[:9 * rows].reshape(3, 3, rows)).reshape(9, rows)
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


def correlation_estimates(moments: Moments, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Means w_k.mean(x) of 9 <(n_A.a_k)(n_B.b_k)>, w_k = 9 vec(a_k b_k^T), over the rows
    of (k, 3) arrays a, b, and their covariance W S W^T / ((n-1) n), from the
    event_moments (count n, scatter S) of a sample of at least 100 events."""
    count, mean, scatter = moments
    if count < 100:
        raise ValueError(f"sample too small: {count} events, need at least 100")
    weights = 9.0 * (a[:, :, None] * b[:, None, :]).reshape(len(a), 9)
    return weights @ mean, weights @ scatter @ weights.T / ((count - 1) * count)


def estimate_correlation(sample: EventSample, a, b) -> EstimatedCorrelation:
    """Moment estimator 9 <(n_A.a)(n_B.b)> = w.mean(x), unbiased for the channel
    correlation at raw directions (a, b), each a Direction or a (3,) array; standard
    error from the event spread."""
    means, cov = correlation_estimates(event_moments(sample), np.array([a]), np.array([b]))
    return EstimatedCorrelation(e_hat=float(means[0]), std_error=math.sqrt(cov[0, 0]),
                                n_used=sample.n_events)


@dataclass(frozen=True)
class LeggettEstimate:
    lhs_hat: float
    std_error: float
    e_sums: tuple[float, float, float]
    e_sum_errors: tuple[float, float, float]
    method: str


def estimate_leggett_lhs(sample: EventSample, settings: TripleSettings) -> LeggettEstimate:
    """Sum-form left-hand side estimated from events, with its standard error.

    Pair sum i is 9 <(n_A.F a_i)(n_B.(b_i + b'_i))>, F from correlations.a_side_inversion
    (the z flip for triplet samples); correlation_estimates at the rows F a_i and
    b_i + b'_i gives their means and covariance.  Errors propagate by the delta method
    through the absolute values; when any pair sum sits within two standard errors of
    zero (where the delta method degenerates) a seeded parametric bootstrap draws 200
    replicas of the means from the normal law with that covariance instead, through a
    closed-form L D L^T factor and the stdlib's normal stream keyed off the seed
    (_bootstrap_replicas), so it loads neither numpy.random nor OpenSSL and calls no
    LAPACK.
    """
    return leggett_lhs_from_moments(event_moments(sample), settings, sample.seed,
                                    sample.alpha_b, sample.spin_state)


def _ldl(cov: list[list[float]]) -> tuple[np.ndarray, np.ndarray]:
    """Unit lower-triangular L and pivots d with L diag(d) L^T = cov for a symmetric
    positive semi-definite 3x3 ``cov``, in closed form.  A pivot at or below zero (a
    singular cov, or rounding) is clamped to zero and its column of L below the
    diagonal to zero, so a singular or all-zero cov gives a factor, never NaN."""
    lower = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    pivots = [0.0, 0.0, 0.0]
    for j in range(3):
        pivot = cov[j][j]
        for k in range(j):
            pivot -= lower[j][k] * lower[j][k] * pivots[k]
        if pivot <= 0.0:
            continue
        pivots[j] = pivot
        for i in range(j + 1, 3):
            entry = cov[i][j]
            for k in range(j):
                entry -= lower[i][k] * lower[j][k] * pivots[k]
            lower[i][j] = entry / pivot
    return np.array(lower), np.array(pivots)


def _bootstrap_replicas(means: np.ndarray, cov: np.ndarray, seed: int) -> np.ndarray:
    """_BOOTSTRAP_REPLICAS draws, one row each, from the normal law of the 3 ``means``
    with covariance ``cov``: means + L sqrt(d) z, with L diag(d) L^T = cov from _ldl and
    z three at a time from the stdlib stream random.Random(seed ^ 0x626F6F74), whose
    normalvariate is Kinderman & Monahan's ratio of uniforms.  Keyed off the sample
    seed, so reruns match exactly; only elementwise IEEE arithmetic, so no BLAS or
    LAPACK kernel moves the bits."""
    lower, pivots = _ldl(cov.tolist())
    normal = random.Random(seed ^ 0x626F6F74).normalvariate
    z = np.array([normal(0.0, 1.0) for _ in range(3 * _BOOTSTRAP_REPLICAS)]).reshape(-1, 3)
    z *= np.sqrt(pivots)
    replicas = means + z[:, :1] * lower[:, 0]
    for j in (1, 2):
        replicas += z[:, j:j + 1] * lower[:, j]
    return replicas


def leggett_lhs_from_moments(moments: Moments, settings: TripleSettings, seed: int,
                             alpha_b: float, spin_state: str) -> LeggettEstimate:
    """estimate_leggett_lhs from the event_moments of a sample and its seed, alpha_b
    and spin_state; ``settings`` with any ``violations`` are refused."""
    if settings.violations:
        raise ValueError("invalid triple settings: " + "; ".join(settings.violations))
    means, cov = correlation_estimates(moments, settings.a * a_side_inversion(spin_state),
                                       settings.b + settings.b_prime)
    se_means = np.sqrt(np.diag(cov))

    lhs_hat = leggett_sum_value(means, alpha_b, settings.phi)

    if np.all(np.abs(means) > 2.0 * se_means):
        grad = np.sign(means) / 3.0
        std_error = float(math.sqrt(grad @ cov @ grad))
        method = "delta"
    else:
        replicas = leggett_sum_value(_bootstrap_replicas(means, cov, seed), alpha_b,
                                     settings.phi)
        std_error = float(replicas.std(ddof=1))
        method = "bootstrap"

    return LeggettEstimate(lhs_hat=lhs_hat, std_error=std_error,
                           e_sums=tuple(float(m) for m in means),
                           e_sum_errors=tuple(float(s) for s in se_means),
                           method=method)


def _events_header(provenance: Mapping[str, Any], n_events: int) -> bytes:
    """The header lines, as written for these values.  Each value a file takes is
    refused where it is made if the header could not hold it: in DecayMode,
    EventSample and write_pair_events."""
    values = {**provenance, "n_events": n_events, "columns": _COLUMNS}
    lines = [_EVENTS_FORMAT, *(f"{key} {values[key]}" for key in _HEADER_FIELDS)]
    return "".join(f"# {line}\n" for line in lines).encode("utf-8")


def _written(fh: BinaryIO, provenance: Mapping[str, Any], n_events: int,
             blocks: Iterable[Block]) -> Iterator[Block]:
    """Write the events file of ``blocks`` to ``fh``, checking each block as
    EventSample checks its rows, and pass each block on once it is written.

    A block's events are interleaved into rows and formatted _TEXT_ROWS at a time, in
    one row buffer and one eventtext._Workspace for the stream; the row buffer is the
    unit check's scratch before that."""
    fh.write(_events_header(provenance, n_events))
    rows, work = np.empty((_TEXT_ROWS, 6)), _Workspace(_TEXT_ROWS)
    scratch = rows.reshape(2, -1)
    for n_a, n_b in blocks:
        _check_unit_rows("n_a", n_a, scratch)
        _check_unit_rows("n_b", n_b, scratch)
        for start in range(0, n_a.shape[1], _TEXT_ROWS):
            stop = min(start + _TEXT_ROWS, n_a.shape[1])
            part = np.concatenate((n_a[:, start:stop], n_b[:, start:stop]),
                                  out=rows[:stop - start].T)
            fh.write(_format_rows(part.T, work))
        yield n_a, n_b


def save_events(path: str | Path, sample: EventSample) -> None:
    """Versioned columnar text file: provenance header, then six floats per event,
    the same bytes as np.savetxt(fmt="%.17g", comments="# ")."""
    provenance = {key: getattr(sample, key) for key in _PROVENANCE_FIELDS}
    with open(path, "wb") as fh:
        for _ in _written(fh, provenance, sample.n_events, sample):
            pass


def write_pair_events(fh: BinaryIO, channel: ProductionChannel, n_events: int, seed: int,
                      catalog_sha256: str) -> Moments:
    """Write to ``fh`` the bytes save_events writes for sample_pair_decay(channel,
    n_events, seed, catalog_sha256) and return their event_moments, in one pass:
    each block is drawn, checked, written and accumulated before the next, so
    nothing of size n_events is held."""
    _check_one_line("catalog_sha256", catalog_sha256)
    provenance = _pair_provenance(channel, seed, catalog_sha256)
    return event_moments(_written(fh, provenance, n_events, pair_blocks(channel, n_events, seed)))


def load_events(path: str | Path) -> EventSample:
    """The EventSample of an events file that save_events wrote.  The header is the
    lines _events_header writes, one "# key value" line per field of _HEADER_FIELDS
    in that order, each exactly as written for the values read from it; the body is six
    numbers per line, separated by single spaces, each line ended by "\\n".  Anything
    else, and provenance that EventSample refuses, is refused with the file named, and
    the line where there is one."""
    p = Path(path)
    fields: dict[str, Any] = {}
    with p.open("rb") as fh:
        lines = [fh.readline().decode("utf-8", errors="replace")]
        if lines[0].strip() != f"# {_EVENTS_FORMAT}":
            raise ValueError(f"{p}: unrecognized events file (header {lines[0].strip()!r})")
        for line_number, key in enumerate(_HEADER_FIELDS, start=2):
            try:
                line = fh.readline().decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{p}: line {line_number}: header is not UTF-8 text") from None
            prefix = f"# {key} "
            if not (line.startswith(prefix) and line.endswith("\n")) or (
                    key == "columns" and line != f"{prefix}{_COLUMNS}\n"):
                raise ValueError(f"{p}: line {line_number}: expected the header field "
                                 f"{key}, got {line!r}")
            lines.append(line)
            fields[key] = line[len(prefix):-1].strip()
        for key, kind, noun in (("n_events", int, "an integer"), ("seed", int, "an integer"),
                                ("alpha_a", float, "a number"), ("alpha_b", float, "a number")):
            try:
                fields[key] = kind(fields[key])
            except ValueError:
                raise ValueError(f"{p}: header field {key} is not {noun}: "
                                 f"{fields[key]!r}") from None
        written = _events_header(fields, fields["n_events"]).decode("utf-8")
        for line_number, (line, expected) in enumerate(
                zip(lines, written.splitlines(keepends=True)), start=1):
            if line != expected:
                raise ValueError(f"{p}: line {line_number}: expected {expected!r} as "
                                 f"written for its value, got {line!r}")
        check_seed(fields["seed"], f"{p}: header field seed")
        n_events = fields["n_events"]
        if n_events < 1:
            raise ValueError(f"{p}: holds no events (n_events {n_events})")
        # A row takes at least 12 bytes ("0 0 0 0 0 0\n"): refuse a count the body
        # cannot hold before allocating for it.
        body_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if 12 * n_events > body_bytes:
            raise ValueError(f"{p}: expected {n_events} rows of 6 columns, got "
                             f"{body_bytes} bytes of rows")
        data = _read_rows(fh, p, len(_HEADER_FIELDS) + 2, n_events)
    try:
        return EventSample(n_a=data[:, :3], n_b=data[:, 3:],
                           **{key: fields[key] for key in _PROVENANCE_FIELDS})
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from .catalog import DecayMode, ProductionChannel, _check_one_line
from .correlations import a_side_inversion, spin_correlation_diagonal
from .eventtext import _Workspace, _format_rows, _read_rows
from .geometry import TripleSettings
from .inequalities import leggett_sum_value
from .quantum import _BLOCK_ROWS, row_dot

GENERATOR = "philox4x64"

_EVENTS_FORMAT = "hyperon-leggett-events 1"
# Provenance fields of an events file, in header order; each is an EventSample field.
_PROVENANCE_FIELDS = ("generator", "seed", "mother", "hyperon_a", "hyperon_b",
                      "alpha_a", "alpha_b", "spin_state", "catalog_sha256")
_HEADER_FIELDS = (*_PROVENANCE_FIELDS, "n_events", "columns")
_COLUMNS = "nax nay naz nbx nby nbz"
_BOOTSTRAP_REPLICAS = 200

# Count, mean and centred sum of squares of x = vec(n_A n_B^T); see event_moments.
Moments = tuple[int, np.ndarray, np.ndarray]
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


def _unit_from_uniforms(u_cos: np.ndarray, u_psi: np.ndarray) -> np.ndarray:
    """Isotropic unit vectors: uniform cosine and azimuth, inverse-CDF style."""
    c = 2.0 * u_cos - 1.0
    psi = 2.0 * math.pi * u_psi
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    return np.column_stack([s * np.cos(psi), s * np.sin(psi), c])


def _flip_about_axes(axes: np.ndarray, alpha: float, w: np.ndarray,
                     u_flip: np.ndarray) -> np.ndarray:
    """Directions with density (1 + alpha * axis.n)/(4 pi), one per axis row, from
    isotropic w: w is kept where u_flip falls below (1 + alpha * axis.w)/2 and
    reversed elsewhere, in place."""
    flip = u_flip >= 0.5 * (1.0 + alpha * row_dot(axes, w))
    w *= (1.0 - 2.0 * flip)[:, None]
    return w


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
            _check_unit_rows(name, arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.n_a.shape != self.n_b.shape:
            raise ValueError("n_a and n_b must hold the same number of events")

    @property
    def n_events(self) -> int:
        return self.n_a.shape[0]

    def __iter__(self) -> Iterator[Block]:
        """The events as (n_a, n_b) views of _BLOCK_ROWS rows (the last may be shorter)."""
        for start in range(0, self.n_events, _BLOCK_ROWS):
            yield self.n_a[start:start + _BLOCK_ROWS], self.n_b[start:start + _BLOCK_ROWS]


def _check_unit_rows(name: str, arr: np.ndarray) -> None:
    """Refuse an (N, 3) array with a row off unit length by more than 1e-12, or NaN,
    _BLOCK_ROWS rows at a time so no temporary grows with N."""
    for start in range(0, len(arr), _BLOCK_ROWS):
        block = arr[start:start + _BLOCK_ROWS]
        worst = float(np.max(np.abs(row_dot(block, block) - 1.0)))
        if not worst <= 1e-12:  # also refuses NaN, which np.max propagates
            raise ValueError(f"{name} holds non-unit directions (residual {worst:.3e})")


def _pair_provenance(channel: ProductionChannel, seed: int,
                     catalog_sha256: str) -> dict[str, Any]:
    return {"generator": GENERATOR, "seed": int(seed), "mother": channel.mother,
            "hyperon_a": channel.mode_a.hyperon, "hyperon_b": channel.mode_b.hyperon,
            "alpha_a": float(channel.mode_a.alpha), "alpha_b": float(channel.mode_b.alpha),
            "spin_state": channel.spin_state, "catalog_sha256": catalog_sha256}


def pair_blocks(channel: ProductionChannel, n_events: int, seed: int) -> Iterator[Block]:
    """Joint decay events for an entangled pair channel (see the module docstring), as
    (n_a, n_b) blocks of _BLOCK_ROWS rows (the last may be shorter), drawn one block
    at a time.

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
    return (_pair_block(streams, min(_BLOCK_ROWS, n_events - start), c_diag, alpha_ab)
            for start in range(0, n_events, _BLOCK_ROWS))


def _pair_block(streams: list[np.random.Generator], rows: int, c_diag: np.ndarray,
                alpha_ab: float) -> Block:
    u_cos_a, u_psi_a, u_cos_w, u_psi_w, u_flip = (rng.random(rows) for rng in streams)
    n_a = _unit_from_uniforms(u_cos_a, u_psi_a)
    w = _unit_from_uniforms(u_cos_w, u_psi_w)
    return n_a, _flip_about_axes(n_a * c_diag, alpha_ab, w, u_flip)


def sample_pair_decay(channel: ProductionChannel, n_events: int, seed: int,
                      catalog_sha256: str = "-") -> EventSample:
    """The blocks of pair_blocks(channel, n_events, seed) in one sample."""
    blocks = pair_blocks(channel, n_events, seed)
    n_a, n_b = np.empty((n_events, 3)), np.empty((n_events, 3))
    for start, (block_a, block_b) in zip(range(0, n_events, _BLOCK_ROWS), blocks):
        n_a[start:start + len(block_a)] = block_a
        n_b[start:start + len(block_b)] = block_b
    return EventSample(n_a=n_a, n_b=n_b, **_pair_provenance(channel, seed, catalog_sha256))


def event_moments(blocks: Iterable[Block]) -> Moments:
    """Count, mean and centred sum of squares sum (x - mean)(x - mean)^T of the
    per-event 9-vectors x = vec(n_A n_B^T), over (n_a, n_b) blocks such as an
    EventSample's, each centred on its own mean and merged in order (Chan, Golub &
    LeVeque, "Algorithms for computing the sample variance", 1983): raw second
    moments never cancel."""
    count, mean, scatter, work = 0, np.zeros(9), np.zeros((9, 9)), np.empty(0)
    for n_a, n_b in blocks:
        n_a, n_b = n_a.T, n_b.T
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
    replicas of the means from the normal law with that covariance instead.
    """
    return leggett_lhs_from_moments(event_moments(sample), settings, sample.seed,
                                    sample.alpha_b, sample.spin_state)


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
        # Keyed off the sample seed so reruns match exactly; "eigh" also takes a
        # singular covariance, such as the zero one when every b_i + b'_i vanishes.
        rng = _generator(seed ^ 0x626F6F74)
        replica_means = rng.multivariate_normal(means, cov, _BOOTSTRAP_REPLICAS, method="eigh")
        replicas = leggett_sum_value(replica_means, alpha_b, settings.phi)
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
    EventSample checks its rows, and pass each block on once it is written."""
    fh.write(_events_header(provenance, n_events))
    rows, work = np.empty((_BLOCK_ROWS, 6)), _Workspace(_BLOCK_ROWS)
    for n_a, n_b in blocks:
        _check_unit_rows("n_a", n_a)
        _check_unit_rows("n_b", n_b)
        fh.write(_format_rows(np.concatenate((n_a, n_b), axis=1, out=rows[:len(n_a)]), work))
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

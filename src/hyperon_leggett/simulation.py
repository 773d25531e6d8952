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
C^T n_A with alpha_a alpha_b in place of alpha.  C is recomputed from the
density matrix and checked before any event is drawn.

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
(event_moments) determine every estimate and its error, for any settings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from .catalog import ProductionChannel, channel_spin_state
from .correlations import a_side_inversion, spin_correlation_diagonal
from .geometry import TripleSettings, validate_settings
from .inequalities import leggett_sum_value
from .quantum import PAULI, Direction, expectation, row_dot, tensor

GENERATOR = "philox4x64"

_EVENTS_FORMAT = "hyperon-leggett-events 1"
# Rows per block when writing text and when accumulating moments.
_BLOCK_ROWS = 4096
# Provenance fields of an events file, in header order; each is an EventSample field.
_PROVENANCE_FIELDS = ("generator", "seed", "mother", "hyperon_a", "hyperon_b",
                      "alpha_a", "alpha_b", "spin_state", "catalog_sha256")
_BOOTSTRAP_REPLICAS = 200

# Count, mean and centred sum of squares of x = vec(n_A n_B^T); see event_moments.
Moments = tuple[int, np.ndarray, np.ndarray]
Block = tuple[np.ndarray, np.ndarray]


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _generator_at(seed: int, offset: int) -> np.random.Generator:
    """The stream of _generator(seed) after its first ``offset`` doubles."""
    bit_generator = np.random.Philox(key=np.uint64(seed))
    bit_generator.advance(offset // 4)  # one counter step gives four 64-bit words
    rng = np.random.Generator(bit_generator)
    rng.random(offset % 4)
    return rng


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
    return np.negative(w, out=w, where=flip[:, None])


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
    """Refuse an (N, 3) array with a row off unit length by more than 1e-12, or NaN."""
    worst = float(np.max(np.abs(np.einsum("ij,ij->i", arr, arr) - 1.0)))
    if not worst <= 1e-12:
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
    # C is +-diagonal (checked here), so n_a C needs no matrix product.
    c_diag = np.diag(spin_correlation_matrix(channel))
    alpha_ab = channel.mode_a.alpha * channel.mode_b.alpha
    streams = [_generator_at(seed, kind * n_events) for kind in range(5)]
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
    count, mean, scatter = 0, np.zeros(9), np.zeros((9, 9))
    for n_a, n_b in blocks:
        n_a, n_b = n_a.T, n_b.T
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
    return leggett_lhs_from_moments(event_moments(sample), settings, sample.seed,
                                    sample.alpha_b, sample.spin_state)


def leggett_lhs_from_moments(moments: Moments, settings: TripleSettings, seed: int,
                             alpha_b: float, spin_state: str) -> LeggettEstimate:
    """estimate_leggett_lhs from the event_moments of a sample and its seed, alpha_b
    and spin_state; ``settings`` must pass validate_settings."""
    count, mean, scatter = moments
    a = settings.a * a_side_inversion(spin_state)
    weights = 9.0 * (a[:, :, None] * (settings.b + settings.b_prime)[:, None, :]).reshape(3, 9)
    means = weights @ mean
    cov = weights @ scatter @ weights.T / ((count - 1) * count)
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


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: v = hi + lo exactly, each half with at most 26 significant bits."""
    t = v * 134217729.0  # 2**27 + 1
    hi = t - (t - v)
    return hi, v - hi


# 10**(17 + z) for z zeros after "0.": exact doubles.
_SCALES = np.array([1e17, 1e18, 1e19, 1e20])


@functools.cache
def _group_words() -> np.ndarray:
    """The "%04d" text of each 4-digit group, then the same with trailing zeros as NUL
    bytes (0 is all NUL) for the last groups of a number: one native uint32 word each.
    Built on first use, so commands that write no events neither build it nor hold it."""
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (np.arange(10000, dtype=np.uint16)[:, None] // place % 10
              + ord("0")).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    stripped = np.where(trailing, 0, digits).astype(np.uint8)
    words = np.concatenate([digits, stripped]).view(np.uint32).ravel()
    words.setflags(write=False)
    return words


# Sign, "0.", z zeros and the leading digit, at index 40 sign + 10 z + digit: two words.
_HEAD_WORDS = np.frombuffer(b"".join(
    (b"-" if negative else b"\0") + b"0." + (b"0" * z).ljust(3, b"\0") + b"%d\0" % digit
    for negative in (0, 1) for z in range(4) for digit in range(10)),
    dtype=np.uint32).reshape(-1, 2)
_SEPARATOR_WORDS = np.frombuffer(b" \0\0\0" * 5 + b"\n\0\0\0", dtype=np.uint32)


def _significant_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The zeros z after "0." and D = round-half-even(a 10**(17 + z)), the 17
    significant digits as an int64, of each a in [1e-4, 1), exactly.

    The decade comparisons are exact, as each of 0.1, 0.01, 0.001 and 1e-4 as a
    double lies just above its power of ten.  Dekker's two-product (Numer. Math. 18,
    1971) gives a 10**(17 + z) = p + e exactly, with p an even integer >= 2**53, so
    p + np.rint(e) rounds a tie to even.
    """
    z = ((a < 0.1).view(np.int8) + (a < 0.01).view(np.int8)
         + (a < 0.001).view(np.int8)).astype(np.intp)
    scale = _SCALES[z]
    p = a * scale
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _split(scale)
    e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    return z, p.astype(np.int64) + np.rint(e).astype(np.int64)


def _format_rows(rows: np.ndarray) -> bytes:
    """The bytes of ``"%.17g %.17g %.17g %.17g %.17g %.17g\\n" % row`` for each row
    of a (k, 6) float array, formatted in whole-array operations.

    A value x with |x| in [1e-4, 1) is written as its sign, "0.", z zeros and the 17
    digits of _significant_digits without trailing zeros, in seven words with NUL
    for the bytes it does not use; the NULs are removed at the end.  Other values
    (0, +-1, the exponent form, non-finite) take "%.17g" itself, at most 24 bytes.
    """
    x = rows.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1.0)
    a[~fast] = 0.5
    z, digits = _significant_digits(a)
    fast &= (digits >= 10 ** 16) & (digits < 10 ** 17)
    # 1 + 16 digits: lead, then the groups g1 g2 (of hi) and g3 g4 (of lo).
    hi = digits // 10 ** 8
    lo = (digits - hi * 10 ** 8).astype(np.int32)
    lead = hi // 10 ** 8
    hi = (hi - lead * 10 ** 8).astype(np.int32)
    g1 = hi // 10 ** 4
    g2 = hi - g1 * 10 ** 4
    g3 = lo // 10 ** 4
    g4 = lo - g3 * 10 ** 4
    words = np.empty((x.size, 7), dtype=np.uint32)
    words[:, :2] = _HEAD_WORDS[lead + 10 * z + 40 * (x < 0)]
    # A group followed by zero groups only takes its stripped form.
    groups = _group_words()
    lo_zero = lo == 0
    words[:, 2] = groups[g1 + 10000 * (lo_zero & (g2 == 0))]
    words[:, 3] = groups[g2 + 10000 * lo_zero]
    words[:, 4] = groups[g3 + 10000 * (g4 == 0)]
    words[:, 5] = groups[g4 + 10000]
    words.reshape(-1, 6, 7)[:, :, 6] = _SEPARATOR_WORDS
    text = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    text[slow, :24] = np.array([b"%.17g" % v for v in x[slow].tolist()],
                               dtype="S24").view(np.uint8).reshape(-1, 24)
    return text.tobytes().translate(None, b"\0")


def _events_header(provenance: Mapping[str, Any], n_events: int) -> bytes:
    lines = [_EVENTS_FORMAT, *(f"{key} {provenance[key]}" for key in _PROVENANCE_FIELDS),
             f"n_events {n_events}", "columns nax nay naz nbx nby nbz"]
    return "".join(f"# {line}\n" for line in lines).encode("utf-8")


@functools.cache
def _raise_heap_thresholds() -> None:
    """Free one untouched 8 MB buffer, once per process.

    glibc's malloc serves a request below its mmap threshold from the heap and
    trims the heap top once more than its trim threshold lies free there.  Both
    thresholds start at 128 KiB and rise for good, up to 32 MiB, to the size of a
    freed mmapped chunk and twice that.  _format_rows frees some MB per block, so
    unless a larger chunk has been freed before, the heap is trimmed and faulted
    back in on every block (with glibc 2.36 a 4 MB buffer avoids that and a 2 MB one
    does not).  Under other allocators this is one allocation and nothing more.
    """
    np.empty(8 << 20, dtype=np.uint8)


def _written(fh: BinaryIO, provenance: Mapping[str, Any], n_events: int,
             blocks: Iterable[Block]) -> Iterator[Block]:
    """Write the events file of ``blocks`` to ``fh``, checking each block as
    EventSample checks its rows, and pass each block on once it is written."""
    fh.write(_events_header(provenance, n_events))
    _raise_heap_thresholds()
    for n_a, n_b in blocks:
        _check_unit_rows("n_a", n_a)
        _check_unit_rows("n_b", n_b)
        fh.write(_format_rows(np.hstack([n_a, n_b])))
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
    provenance = _pair_provenance(channel, seed, catalog_sha256)
    return event_moments(_written(fh, provenance, n_events, pair_blocks(channel, n_events, seed)))


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
    if int(meta["n_events"]) < 1:
        raise ValueError(f"{p}: holds no events (n_events {meta['n_events']})")
    data = np.loadtxt(p, comments="#", ndmin=2)
    if data.shape != (int(meta["n_events"]), 6):
        raise ValueError(f"{p}: expected {meta['n_events']} rows of 6 columns, "
                         f"got {data.shape}")
    return EventSample(n_a=data[:, :3], n_b=data[:, 3:],
                       **{key: meta[key] for key in _PROVENANCE_FIELDS})

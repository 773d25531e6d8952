"""Property tests: the array path that the scans use against the scalar path, the
closed forms against the 4x4 matrix path, the invariances of the settings layout,
exact text round trips of the catalog and of event files, the event-text digit
reader against int(), the scan CSV against per-row ``%r`` formatting and its float
kernel against repr, the row order and verdicts of both scans, and the exit codes
and strict JSON of simulate and of predict on hostile values."""

import contextlib
import dataclasses
import io
import json
import math
import string
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from hyperon_leggett import (DecayMode, Direction, MeasurementParams, ProductionChannel,
                             build_settings, leggett_sum_lhs, load_events,
                             sample_pair_decay, save_events)
from hyperon_leggett.catalog import (MOTHERS, channel_correlation, default_catalog_path,
                                     load_catalog, parse_catalog)
from hyperon_leggett.cli import _emit_csv, _linspace_rows, main
from hyperon_leggett.floattext import _CELLS, _VALUES, Texts, format_block
from hyperon_leggett.correlations import (correlation_singlet, correlation_triplet_m0,
                                          correlation_via_operators, joint_prob_matrix,
                                          joint_prob_singlet, pair_correlation)
from hyperon_leggett.geometry import (DEFAULT_AXES, DEFAULT_FRAME, flip_b_prime,
                                      settings_arrays, settings_from_text, settings_to_text)
from hyperon_leggett.inequalities import leggett_sum_value
from hyperon_leggett.quantum import singlet_state, triplet_m0_state
from hyperon_leggett.eventtext import _READ_BYTES, _read_rows, _token_digits
from hyperon_leggett.simulation import _BLOCK_ROWS, _PROVENANCE_FIELDS

from conftest import (format_rows, percent_rows, random_rotation, rotated, serialize_catalog,
                      setting_directions)

phis = st.floats(min_value=0.0, max_value=math.pi, exclude_min=True)
alphas = st.floats(min_value=-1.0, max_value=1.0)
# Whitespace-free tokens without "#", as the catalog and events headers need.
tokens = st.text(alphabet=string.ascii_letters + string.digits + "_+-",
                 min_size=1, max_size=12)
directions = st.tuples(alphas, alphas, alphas).filter(
    lambda v: math.hypot(*v) >= 0.1).map(lambda v: Direction.normalized(*v))


@st.composite
def measurement_params(draw, biased: bool) -> MeasurementParams:
    """Valid (eta, alpha): |eta + alpha| <= 1 and |eta - alpha| <= 1."""
    eta = draw(st.floats(min_value=-1.0, max_value=1.0)) if biased else 0.0
    reach = 1.0 - abs(eta)
    return MeasurementParams(eta, draw(st.floats(min_value=-reach, max_value=reach)))


@st.composite
def channels(draw):
    """A mother's spin state with params for both sides (unbiased for the triplet)."""
    spin_state = draw(st.sampled_from(["singlet", "triplet_m0"]))
    biased = spin_state == "singlet"
    return spin_state, draw(measurement_params(biased)), draw(measurement_params(biased))


@st.composite
def frames(draw):
    """The default (frame, axes) pair under a random rotation: generic directions,
    so every term of every dot product counts."""
    rotation = random_rotation(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return (tuple(rotated(rotation, d) for d in DEFAULT_FRAME),
            tuple(rotated(rotation, d) for d in DEFAULT_AXES))


def scalar_lhs(phi, frame, axes, spin_state, pa, pb):
    """leggett_sum_lhs on build_settings, with the closed-form correlations
    written out in Python floats (the triplet A side pre-inverted along z)."""
    def correlation(a, b):
        e = pa.alpha * pb.alpha * a.dot(b)
        return pa.eta * pb.eta - e if spin_state == "singlet" else e

    s = build_settings(phi, frame, axes)
    pairs = [(correlation(a, b), correlation(a, bp)) for a, b, bp in setting_directions(s)]
    return leggett_sum_lhs(s, pairs, alpha_b=pb.alpha).lhs


@settings(max_examples=300, deadline=None)
@given(st.lists(phis, min_size=1, max_size=8), frames(), channels())
def test_array_path_matches_scalar_path_exactly(phi_list, frame_axes, channel):
    spin_state, pa, pb = channel
    phi = np.array(phi_list)
    a, b, b_prime = settings_arrays(phi, *frame_axes)
    lhs = leggett_sum_value(pair_correlation(spin_state, pa, a, pb, b)
                            + pair_correlation(spin_state, pa, a, pb, b_prime),
                            pb.alpha, phi)
    assert lhs.tolist() == [scalar_lhs(p, *frame_axes, spin_state, pa, pb) for p in phi_list]


@settings(max_examples=200, deadline=None)
@given(phis, frames())
def test_settings_text_round_trip_is_exact(phi, frame_axes):
    s = build_settings(phi, *frame_axes)
    loaded = settings_from_text(settings_to_text(s))
    assert loaded.phi == s.phi
    for name in ("a", "b", "b_prime"):
        assert (getattr(loaded, name) == getattr(s, name)).all()


@settings(max_examples=200, deadline=None)
@given(phis, frames())
def test_flip_twice_is_the_identity(phi, frame_axes):
    s = build_settings(phi, *frame_axes)
    back = flip_b_prime(flip_b_prime(s))
    for name in ("a", "b", "b_prime"):
        assert (getattr(back, name) == getattr(s, name)).all()
    # pi - (pi - phi) rounds twice, so phi comes back to within an ulp of pi.
    assert abs(back.phi - s.phi) <= np.spacing(math.pi)


@settings(max_examples=300, deadline=None)
@given(phis, frames(), channels())
def test_sum_form_lhs_invariant_under_rotation(phi, frame_axes, channel):
    spin_state, pa, pb = channel
    rotated_lhs = scalar_lhs(phi, *frame_axes, spin_state, pa, pb)
    default_lhs = scalar_lhs(phi, DEFAULT_FRAME, DEFAULT_AXES, spin_state, pa, pb)
    assert abs(rotated_lhs - default_lhs) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(measurement_params(True), directions, measurement_params(True), directions)
def test_singlet_closed_forms_match_matrix_path(pa, a, pb, b):
    closed = joint_prob_singlet(pa, a, pb, b)
    matrix = joint_prob_matrix(singlet_state(), pa, a, pb, b)
    assert np.max(np.abs(closed - matrix)) <= 1e-12
    assert abs(correlation_singlet(pa, a, pb, b)
               - correlation_via_operators(singlet_state(), pa, a, pb, b)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(measurement_params(False), directions, measurement_params(False), directions)
def test_triplet_closed_form_matches_matrix_path(pa, a, pb, b):
    assert abs(correlation_triplet_m0(pa, a, pb, b)
               - correlation_via_operators(triplet_m0_state(), pa, a, pb, b)) <= 1e-12


def batched(trials):
    """Trials of (pa, a, pb, b) as one call's arguments: MeasurementParams of arrays
    and (n, 3) direction arrays."""
    pa, a, pb, b = zip(*trials)
    params = [MeasurementParams(np.array([p.eta for p in ps]), np.array([p.alpha for p in ps]))
              for ps in (pa, pb)]
    return params[0], np.array(a), params[1], np.array(b)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(measurement_params(True), directions, measurement_params(True),
                          directions), min_size=1, max_size=50),
       st.lists(st.tuples(measurement_params(False), directions, measurement_params(False),
                          directions), min_size=1, max_size=50),
       st.sampled_from(sorted(MOTHERS)))
def test_batched_calls_equal_per_trial_calls_bit_for_bit(biased, unbiased, mother):
    first = unbiased[0]
    channel = ProductionChannel(mother, DecayMode("A", "x", first[0].alpha, 0.0),
                                DecayMode("B", "x", first[2].alpha, 0.0))
    cases = [
        (biased, lambda pa, a, pb, b: joint_prob_matrix(singlet_state(), pa, a, pb, b)),
        (unbiased, lambda pa, a, pb, b: joint_prob_matrix(triplet_m0_state(), pa, a, pb, b)),
        (biased, joint_prob_singlet),
        (biased, lambda pa, a, pb, b: correlation_via_operators(singlet_state(), pa, a, pb, b)),
        (unbiased,
         lambda pa, a, pb, b: correlation_via_operators(triplet_m0_state(), pa, a, pb, b)),
        (biased, correlation_singlet),
        (unbiased, correlation_triplet_m0),
        (unbiased, lambda pa, a, pb, b: channel_correlation(channel, a, b)),
    ]
    for trials, function in cases:
        batch = np.asarray(function(*batched(trials)))
        loop = np.array([function(*trial) for trial in trials])
        assert batch.shape == loop.shape
        assert (batch.view(np.uint64) == loop.view(np.uint64)).all()


@st.composite
def decay_modes(draw):
    """Catalog rows with distinct hyperon names and arbitrary finite numbers."""
    names = draw(st.lists(tokens, max_size=6, unique=True))
    return [DecayMode(name, draw(tokens), draw(alphas),
                      draw(st.floats(min_value=0.0, allow_infinity=False)),
                      draw(st.none() | tokens.filter(lambda t: t != "-")))
            for name in names]


@settings(max_examples=200, deadline=None)
@given(decay_modes())
def test_catalog_text_round_trip_is_exact(modes):
    assert parse_catalog(serialize_catalog(modes)) == modes


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(MOTHERS)), tokens, alphas, tokens, alphas,
       st.integers(0, 2**64 - 1), st.integers(1, 50),
       st.just("-") | st.text(alphabet="0123456789abcdef", min_size=1, max_size=64))
def test_events_text_round_trip_is_exact(mother, name_a, alpha_a, name_b, alpha_b,
                                         seed, n_events, sha):
    channel = ProductionChannel(mother, DecayMode(name_a, "x_y", alpha_a, 0.0),
                                DecayMode(name_b, "x_y", alpha_b, 0.0))
    sample = sample_pair_decay(channel, n_events, seed, catalog_sha256=sha)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.txt"
        save_events(path, sample)
        loaded = load_events(path)
    assert (loaded.n_a == sample.n_a).all() and (loaded.n_b == sample.n_b).all()
    for key in _PROVENANCE_FIELDS:
        assert getattr(loaded, key) == getattr(sample, key), key


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-1.0, 1.0) | st.floats()] * 6), min_size=1, max_size=20))
def test_event_text_matches_percent_format(rows):
    rows = np.array(rows, dtype=float)
    assert format_rows(rows) == percent_rows(rows)


# Bytes that bound a digit run without being digits: "/" (0x2F) and ":" (0x3A) sit
# on either side of "0"-"9", as a word-wide "- 0x30" that borrows across bytes misses.
NOT_DIGITS = [b"/", b":", b".", b"-", b" ", b"\n"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.text(alphabet=string.digits, min_size=1, max_size=22),
                          st.sampled_from(NOT_DIGITS), st.sampled_from(NOT_DIGITS),
                          st.none() | st.tuples(st.integers(0, 21), st.sampled_from(NOT_DIGITS))),
                min_size=1, max_size=20))
def test_token_digits_match_int(tokens):
    # The value check of load_events compares a candidate with these digits, so it
    # cannot see digits read wrongly; they are checked here against int().  Bytes
    # before the "0." are 9s, which the reader must not count.
    text, ends, lengths, expected = bytearray(b"9" * 32), [], [], []
    for digits, before, after, spoil in tokens:
        digits = digits.encode()
        if spoil and spoil[0] < len(digits):
            digits = digits[:spoil[0]] + spoil[1] + digits[spoil[0] + 1:]
        text += before + b"0." + digits
        ends.append(len(text))
        lengths.append(2 + len(digits))
        text += after
        # "0." and at most 20 digits, of which only the last 17 may be other than 0.
        expected.append(int(digits) if digits.isdigit() and len(digits) <= 20
                        and int(digits) < 10 ** 17 else None)
    buf = np.frombuffer(bytes(text), dtype=np.uint8)
    windows = np.ndarray((buf.size - 31,), dtype="V32", buffer=buf, strides=(1,))
    bad, m = _token_digits(windows, np.array(ends) - 32, np.minimum(np.array(lengths), 23),
                           np.empty((14, len(ends)), dtype=np.uint64))
    assert [None if wrong else int(v) for wrong, v in zip(bad, m)] == expected


# Tokens of the form the reader parses itself, "0." and digits, with digits other
# than "%.17g" writes too (trailing zeros, more than 17, more zeros after the point),
# and tokens in other forms.
body_tokens = (st.tuples(st.sampled_from(["", "-"]), st.text(string.digits, min_size=1,
                                                              max_size=24)).map("0.".join)
               | st.floats(allow_nan=False, allow_infinity=False).map(repr))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(body_tokens, min_size=6, max_size=6), min_size=1, max_size=30))
def test_body_tokens_read_as_float(rows):
    body = "".join(" ".join(row) + "\n" for row in rows).encode()
    data = _read_rows(io.BytesIO(body), Path("body"), 1, len(rows))
    expected = np.array([[float(token) for token in row] for row in rows])
    assert np.array_equal(data.view(np.uint64), expected.view(np.uint64))


# Direction components for the events text.  In every decade of [1e-4, 1), where
# load_events parses the text itself: any value, and the "%.17g" rounding ties, odd
# multiples of 2**-m with 18 significant digits.  Outside it, left to float():
# signed zeros, +-1, exponent forms and subnormals.
decade_values = st.integers(1, 4).flatmap(
    lambda k: st.floats(10.0 ** -k, 10.0 ** (1 - k), exclude_max=True))
rounding_ties = st.sampled_from([(18, 0.1), (19, 0.01), (20, 1e-3), (21, 1e-4)]).flatmap(
    lambda m_low: st.integers(math.ceil(m_low[1] * 2 ** (m_low[0] - 1)),
                              math.floor(10 * m_low[1] * 2 ** (m_low[0] - 1)) - 1).map(
        lambda k: (2 * k + 1) / 2 ** m_low[0]))
components = ((decade_values | rounding_ties).flatmap(lambda x: st.sampled_from([x, -x]))
              | st.floats(-1e-4, 1e-4)
              | st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 2.2250738585072009e-308,
                                 1e-5, -9.9999999999999991e-05, 0.99999999999999989]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(components, components), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_events_text_reads_back_bit_for_bit(values, seed):
    # More rows than one read of the body (a row takes under 150 bytes); the drawn
    # values go into rows on both sides of where the first read ends, and one row
    # straddles it.
    channel = ProductionChannel("eta_c", DecayMode("A", "x_y", 0.9, 0.0),
                                DecayMode("B", "x_y", -0.9, 0.0))
    sample = sample_pair_decay(channel, _READ_BYTES // 50, seed)
    n_a, n_b = sample.n_a.copy(), sample.n_b.copy()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.txt"
        save_events(path, sample)
        text = path.read_bytes()
        body = text.index(b"# columns")
        body = text.index(b"\n", body) + 1
        first = text.count(b"\n", body, body + _READ_BYTES) - len(values) // 2
        for row, (x, y) in enumerate(values, start=first):
            n_a[row] = (x, -0.0 if row % 2 else 0.0, math.sqrt(1.0 - x * x))
            n_b[row] = (0.0, y, -math.sqrt(1.0 - y * y))
        save_events(path, dataclasses.replace(sample, n_a=n_a, n_b=n_b))
        text = path.read_bytes()
        assume(text[body + _READ_BYTES - 1] != ord("\n"))
        loaded = load_events(path)
    assert np.array_equal(loaded.n_a.view(np.uint64), n_a.view(np.uint64))
    assert np.array_equal(loaded.n_b.view(np.uint64), n_b.view(np.uint64))


# Finite doubles with the signed zeros and the subnormal and normal extremes drawn often.
finite_cells = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
     1.7976931348623157e308])


def slot_texts(values: np.ndarray) -> np.ndarray:
    """``values`` for a text column: each whose repr and separator overflow a 24-byte
    slot (a 24-character negative exponent form) replaced by its magnitude, whose repr
    has at most 23 characters, as a scan's non-negative grid values do."""
    return np.array([abs(v) if len(repr(v)) > 23 else v for v in values.tolist()])


@settings(max_examples=40, deadline=None)
@given(st.lists(finite_cells, min_size=1, max_size=12),
       st.sampled_from([1, 7, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                        2 * _BLOCK_ROWS + 3]),
       st.integers(0, 2**32 - 1))
def test_scan_csv_matches_percent_format(pool, n_rows, seed):
    # Columns draw their cells from a small pool, so values repeat, as scan grids do;
    # one is written through its formatted-once text.
    rng = np.random.default_rng(seed)
    values = np.array(pool)
    x, y = values[rng.integers(len(values), size=(2, n_rows))]
    codes = rng.integers(len(values), size=n_rows)
    flags = rng.random(n_rows) < 0.5
    index = np.arange(n_rows, dtype=float)
    texts = slot_texts(values)
    picked = Texts([b"%r," % v for v in texts.tolist()])
    blocks = (tuple(col[start:start + _BLOCK_ROWS] for col in (index, x)) + (
                  (picked, codes[start:start + _BLOCK_ROWS]),
                  *(col[start:start + _BLOCK_ROWS] for col in (y, flags)))
              for start in range(0, n_rows, _BLOCK_ROWS))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit_csv(None, {}, ("row", "x", "picked", "y", "flag"), blocks)
    expected = ["row,x,picked,y,flag\n", *("%r,%r,%r,%r,%d\n" % row for row in zip(
        index.tolist(), x.tolist(), texts[codes].tolist(), y.tolist(), flags.tolist()))]
    assert out.getvalue().splitlines(keepends=True) == expected


def float_text(values) -> list[str]:
    """The cells format_block writes for a column of floats (each text it yields is
    released when the next is drawn)."""
    return b"".join(bytes(text) for text in format_block([np.array(values, dtype=float)])
                    ).decode().splitlines()


def nudged(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


# The decades the scans print, [1e-4, 1e3), where the kernel works; each drawn from its
# own decade so that every one is covered.
decade_floats = st.integers(-4, 2).flatmap(
    lambda e: st.floats(10.0 ** e, 10.0 ** (e + 1), exclude_max=True))
# Powers of two (an asymmetric rounding interval) and of ten, and up to 2 ulps off them.
near_powers = st.builds(nudged, st.sampled_from([2.0 ** k for k in range(-15, 11)]
                                                + [10.0 ** e for e in range(-5, 4)]),
                        st.integers(-2, 2))
# m / 2**b has b decimal places, the last 5: with 17 or 18 significant digits, the nearest
# 16 or 17-digit decimals tie.
decimal_ties = st.integers(1, 20).flatmap(
    lambda b: st.integers(1, 1000 * 2 ** b).map(lambda m: m / 2.0 ** b))
# The doubles nearest decimals of d significant digits: repr has at most d of them.
short_decimals = st.builds(lambda d, m, e: float(f"{m % 10 ** d}e{e}"),
                           st.integers(13, 17), st.integers(10 ** 16, 10 ** 17 - 1),
                           st.integers(-20, 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(decade_floats | near_powers | decimal_ties | short_decimals
                          | finite_cells, st.booleans()), min_size=1, max_size=40))
def test_float_kernel_text_is_repr(cells):
    values = [-v if negative else v for v, negative in cells]
    assert float_text(values) == [repr(v) for v in values]


def test_float_kernel_text_is_repr_over_each_decade_and_at_ties():
    rng = np.random.default_rng(20261019)
    # Exact 17-digit decimals ending in 5 where half an ulp exceeds 5 units of the 17th
    # digit, so both 16-digit neighbours read back: repr takes the even one.
    odd = 2 * np.arange(1000) + 1
    ties = [low + odd / 2.0 ** b for low, b in ((512, 14), (64, 15), (8, 16), (0.5, 17))]
    values = np.concatenate([rng.uniform(10.0 ** e, 10.0 ** (e + 1), 20000)
                             for e in range(-4, 3)] + [10 ** rng.uniform(-4, 3, 20000), *ties])
    values[::3] *= -1
    assert float_text(values) == [repr(v) for v in values.tolist()]


# Cells that repr writes itself, not the kernel: zero, +-tiny, the exponent forms (one
# longer than a slot with its separator), and texts under 15 digits.
FALLBACK_CELLS = [0.0, -0.0, 5e-324, -2.5e-7, 9.5e-05, 1e3, -1.5e300, 1e22,
                  -2.2250738585072014e-308, 0.5, -2.0, 0.1, 123.25]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from("ftb"), min_size=1, max_size=7).filter(
           lambda kinds: set(kinds) != {"t"}),
       st.lists(decade_floats | finite_cells, min_size=1, max_size=8),
       st.sampled_from([(0, 1), (0, 7), (1, -1), (1, 0), (1, 1), (2, 3)]),
       st.integers(0, 2**32 - 1))
@example(list("tffb"), [0.25], (1, 1), 0)  # floats side by side, between a text and flags
@example(list("btff"), [0.25], (2, 3), 0)  # floats last: a newline ends their pattern
@example(list("f"), [0.25], (1, 1), 0)  # one float column: 4096 rows a pass
def test_block_passes_match_percent_format(kinds, pool, rows, seed):
    # Columns of floats ("f"), texts ("t") and flags ("b"), at least one an array, on
    # both sides of a pass boundary and past the second.  Each float column draws from
    # the pool after a turn of the fallbacks; texts alternate indexed and constant, over
    # the values as slot_texts makes them fit.
    width, k = len(kinds), kinds.count("f")
    n_rows = max(rows[0] * min(_VALUES // max(k, 1), _CELLS // width) + rows[1], 1)
    rng = np.random.default_rng(seed)
    values = np.array(pool + FALLBACK_CELLS)
    texts = slot_texts(values)
    columns, cells = [], []
    for j, kind in enumerate(kinds):
        if kind == "f":
            columns.append(values[rng.integers(len(values), size=n_rows)])
            columns[-1][:len(FALLBACK_CELLS)] = np.roll(FALLBACK_CELLS, j)[:n_rows]
        elif kind == "b":
            columns.append(rng.random(n_rows) < 0.5)
        else:
            end = b"\n" if j == width - 1 else b","
            index = rng.integers(len(values), size=n_rows) if j % 2 else j % len(values)
            columns.append((Texts([b"%r%s" % (v, end) for v in texts.tolist()]), index))
        column = texts[np.broadcast_to(columns[-1][1], n_rows)] if kind == "t" else columns[-1]
        cells.append([(b"%d" if kind == "b" else b"%r") % v for v in column.tolist()])
    text = b"".join(bytes(text) for text in format_block(columns))
    assert text == b"".join(b",".join(row) + b"\n" for row in zip(*cells))


# Grids of up to three blocks, their ends anywhere, a tiny step or a step that underflows
# to 0 (np.linspace then divides before it multiplies), cut into blocks of any size.
grid_ends = (st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
             | st.floats(-4.0, 4.0).map(lambda v: (v, math.nextafter(v, 5.0)))
             | st.sampled_from([(0.0, 5e-324), (0.0, 2e-323), (-5e-324, 5e-324), (1e-310, 0.0)]))


@settings(max_examples=200, deadline=None)
@given(grid_ends, st.integers(2, 3 * _BLOCK_ROWS), st.sampled_from([_BLOCK_ROWS, 1, 3, 1000]))
def test_linspace_rows_are_the_grid_a_block_at_a_time(ends, num, rows):
    blocks = [_linspace_rows(*ends, num, first, first + rows) for first in range(0, num, rows)]
    assert [len(block) for block in blocks] == [min(rows, num - first)
                                                for first in range(0, num, rows)]
    assert np.concatenate(blocks).tobytes() == np.linspace(*ends, num).tobytes()


def scan_rows(args):
    """The data rows of a scan run through main, split into cells."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(args) == 0
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(2, 80))
def test_scan_region_rows_sorted_and_verdict_is_lhs_above_bound(lo, hi, steps):
    grid = np.linspace(lo, hi, steps)
    assume(lo < hi and np.all(grid[1:] > grid[:-1]))
    rows = scan_rows(["scan-region", "--alpha-min", repr(lo), "--alpha-max", repr(hi),
                      "--steps", str(steps)])
    assert len(rows) == steps * steps
    cells = [(float(alpha_a), float(alpha_b)) for alpha_a, alpha_b, _, _ in rows]
    assert cells == sorted(cells)
    assert all(violated == str(int(float(lhs) > 2.0)) for _, _, lhs, violated in rows)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 180.0, exclude_min=True), st.floats(0.0, 180.0, exclude_min=True),
       st.integers(2, 2 * _BLOCK_ROWS + 3), alphas, alphas)
def test_scan_phi_rows_sorted_and_verdict_is_lhs_above_bound(lo, hi, steps, alpha_a,
                                                              alpha_b):
    assume(lo < hi)
    rows = scan_rows(["scan-phi", f"--alpha-a={alpha_a!r}", f"--alpha-b={alpha_b!r}",
                      "--phi-min-deg", repr(lo), "--phi-max-deg", repr(hi),
                      "--steps", str(steps)])
    assert len(rows) == steps
    phi_rad = [float(row[1]) for row in rows]
    assert phi_rad == sorted(phi_rad)
    assert all(bound == "2.0" and violated == str(int(float(lhs) > 2.0))
               for _, _, lhs, bound, _, violated in rows)


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# Custom alphas near 0 and near 1, of either sign.
alpha_edges = st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from(
    [0.0, 5e-324, 1e-300, 1e-12, 1.0 - 2.0 ** -53, 1.0]) | st.floats(0.0, 1e-3)
    | st.floats(1.0 - 1e-3, 1.0)).map(lambda signed: signed[0] * signed[1])


@st.composite
def simulate_argv(draw):
    """simulate arguments: a catalog channel or none, custom alphas (both without a
    channel), 100 to 2000 events, the extreme seeds and a finite positive threshold;
    values in the "--option=value" form, which argparse takes for any float text."""
    channel = draw(st.sampled_from([None, *(mode.hyperon for mode in load_catalog(
        default_catalog_path()))]))
    argv = ["simulate", f"--mother={draw(st.sampled_from(sorted(MOTHERS)))}"]
    if channel:
        argv.append(f"--channel={channel}")
    for side in ("a", "b"):
        if channel is None or draw(st.booleans()):
            argv.append(f"--alpha-{side}={draw(alpha_edges)!r}")
    threshold = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return [*argv, f"--events={draw(st.integers(100, 2000))}",
            f"--seed={draw(st.sampled_from([0, 2 ** 64 - 1]))}",
            f"--sigma-threshold={threshold!r}"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(simulate_argv())
def test_simulate_exit_code_is_the_verdict_in_a_strict_json_summary(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, f"--out={out}"])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert not out.exists()
            return
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                             parse_constant=refuse_constant)
    assert (code == 0) == summary["violation_observed"]
    if summary["violation_observed"]:
        assert summary["lhs_hat"] > summary["bound"]


# Hostile float values: signed zeros, 1 and its neighbours, the extremes, the
# non-finite ones, and negative numbers in exponent form.
hostile_floats = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53),
    5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan, -1e-05, -2.5e-300,
    0.5, -0.5, 90.0, 180.0])


@st.composite
def predict_argv(draw):
    """predict arguments: a catalog channel or custom alphas (both without a channel),
    and hostile values, each a separate token as repr writes it, for the alphas, the
    biases and the angle."""
    channel = draw(st.booleans())
    argv = ["predict", "--channel", "SigmaPlus"] if channel else ["predict"]
    for option in ("--alpha-a", "--alpha-b", "--eta-a", "--eta-b", "--phi-deg"):
        if (not channel and option.startswith("--alpha")) or draw(st.booleans()):
            argv += [option, repr(draw(hostile_floats))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(predict_argv())
def test_predict_exits_0_with_strict_json_or_2_with_an_error(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)  # -inf as its own token is a value, not argparse's usage error
    assert code in (0, 2)
    if code == 2:
        assert "error:" in err.getvalue()
        return
    payload = json.loads(out.getvalue(), parse_constant=refuse_constant)
    assert payload["max_violated"] == (payload["max_lhs"] > 2.0)


# Each scan option's values: the hostile ones, 180 and its neighbours, or any in a
# range that the option mostly takes, so that many scans run to the end.
scan_values = {option: hostile_floats | st.sampled_from(
    [math.nextafter(180.0, 0.0), math.nextafter(180.0, math.inf)]) | st.floats(low, high)
    for option, (low, high) in {"--phi-min-deg": (0.0, 180.0), "--phi-max-deg": (0.0, 180.0),
                                "--alpha-a": (-1.0, 1.0), "--alpha-b": (-1.0, 1.0),
                                "--eta-a": (-0.5, 0.5), "--eta-b": (-0.5, 0.5),
                                "--alpha-min": (0.0, 1.0), "--alpha-max": (0.0, 1.0)}.items()}


@st.composite
def scan_argv(draw):
    """scan-phi or scan-region arguments: values of scan_values, each a separate token
    as repr writes it, for the range ends and, for scan-phi, the alphas (both without a
    channel) and the biases of either mother; 0 to 50 steps for scan-phi and 0 to 44
    for scan-region, whose rows are its steps squared, so at most 2000 rows."""
    if draw(st.booleans()):
        channel = draw(st.booleans())
        argv = ["scan-phi", "--mother", draw(st.sampled_from(sorted(MOTHERS)))]
        argv += ["--channel", "SigmaPlus"] if channel else []
        options = ("--phi-min-deg", "--phi-max-deg", "--alpha-a", "--alpha-b",
                   "--eta-a", "--eta-b")
        most = 50
    else:
        argv, options, most, channel = ["scan-region"], ("--alpha-min", "--alpha-max"), 44, True
    for option in options:  # each given a third of the time, or always for a custom alpha
        if (not channel and option.startswith("--alpha-")) or draw(st.integers(0, 2)) == 0:
            argv += [option, repr(draw(scan_values[option]))]
    fewest = draw(st.sampled_from([0, 2, 2, 2]))  # 0 and 1 steps are refused
    return [*argv, "--steps", str(draw(st.integers(fewest, most)))]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scan_argv())
@example(["scan-phi", "--mother", "chi_c0", "--alpha-a", "0.5", "--alpha-b", "-0.5",
          "--eta-a", "-0.5", "--eta-b", "0.5", "--steps", "50"])
def test_scans_exit_0_with_repr_cells_and_verdicts_or_2_writing_nothing(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.csv"
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--out", str(path)])
        assert code in (0, 2)
        assert out.getvalue() == ""
        if code == 2:
            assert "error:" in err.getvalue()
            assert not path.exists()
            return
        text = path.read_text(encoding="utf-8")
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
    steps = int(argv[-1])
    assert len(rows) == (steps if argv[0] == "scan-phi" else steps ** 2)
    for row in rows:
        assert row[-1] == str(int(float(row[2]) > 2.0))
        assert all(repr(float(cell)) == cell for cell in row[:-1])

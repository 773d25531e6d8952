"""Scan rows as CSV text: an exact vectorised repr of floats and the block writer.

repr of a float is the shortest decimal that reads back to the same double, and of the
shortest ones the nearest (Steele & White; Gay, 1990).  For |x| in [1e-4, 1e3), where repr
writes no exponent, _shortest_floats finds it in whole-array operations; other values, and
those it cannot prove, go to repr itself.  format_block lays each cell of a block of rows in
a 24-byte slot and stores the slots at their offsets in one scatter, as eventtext does.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace
from typing import Iterator, Sequence

import numpy as np

# Rows formatted at a time: their scratch, up to about 1 KB a row, stays under 1 MB.
_ROWS = 1024


class Texts:
    """Cell texts, each ending with its separator: their first 24 bytes as slots, their
    lengths, and the texts themselves if one is longer than a slot."""

    def __init__(self, cells: Sequence[bytes]) -> None:
        self.slots = np.frombuffer(b"".join(cell[:24].ljust(24, b"\0") for cell in cells),
                                   dtype="V24")
        self.lengths = np.array([len(cell) for cell in cells])
        self.overlong = cells if self.lengths.max() > 24 else ()


def _store_slots(text: memoryview, slots: np.ndarray, lengths: np.ndarray, slow: np.ndarray,
                 tokens: list[bytes], starts: np.ndarray | None = None) -> int:
    """Store the 24-byte ``slots`` in ``text`` (the total length and 23 bytes more) at
    offsets from ``lengths``, in index order, each over the previous one past that one's
    length, then the ``tokens`` of the indices ``slow``; return the total length."""
    starts = np.cumsum(lengths, out=starts)
    total = int(starts[-1])
    starts -= lengths
    np.ndarray((total + 1,), "V24", text, strides=(1,))[starts] = slots
    for start, token in zip(starts[slow].tolist(), tokens):
        text[start:start + len(token)] = token
    return total


@functools.cache
def _flags(separator: bytes) -> Texts:
    return Texts([b"0" + separator, b"1" + separator])


@functools.cache
def _tables() -> SimpleNamespace:
    """Tables of _shortest_floats, built on first use.

    By the biased exponent of |x|, less 1009 (2**-14 < 1e-4 <= |x| < 1e3 < 2**10): the
    decade e of the binade's low end, plus 4 (``low``), and the power of ten (as a double:
    exact, or just above it) at or above which |x| is in the next decade (``above``).  By
    e + 4: 10**(16 - e) and its Veltkamp split (``scales``).  The "%04d" text of 0 to 9999
    as native words, then a zero word (``groups``).  By 1000 sign + int(abs(x)): the head
    (sign, integer part and point) as a word and its length (``heads``)."""
    binades = [2 ** (b - 14) for b in range(24)]  # exact, as Python floats
    low = [len(str(int(10 ** 20 * v))) - 21 for v in binades]  # floor(log10(v))
    scales = np.array([float(10 ** (16 - e)) for e in range(-4, 3)]) * np.array(
        [[1.0], [134217729.0], [1.0]])
    scales[1] -= scales[1] - scales[0]  # at most 26 significant bits
    scales[2] -= scales[1]
    digit = np.arange(48, 58, dtype=np.uint32)  # b"0" to b"9"
    groups = np.zeros(10001, dtype=np.uint32)
    groups[:10000] = (digit[:, None, None, None] | digit[:, None, None] << 8
                      | digit[:, None] << 16 | digit << 24).ravel()
    # "%d." % i for i < 1000: its "%04d" word less the leading zeros, then the point.
    i = np.arange(1000)
    places = 1 + (i >= 10) + (i >= 100)
    heads = groups[i].astype(np.uint64) >> (32 - 8 * places).astype(np.uint64)
    heads |= np.uint64(ord(".")) << (8 * places).astype(np.uint64)
    return SimpleNamespace(
        low=np.array(low) + 4, above=np.array([float(10 ** (e + 1)) for e in low]),
        scales=scales, groups=groups,
        heads=(np.concatenate([heads, heads << np.uint64(8) | np.uint64(ord("-"))]),
               np.concatenate([places + 1, places + 2])))


def _rounded17(a: np.ndarray, decade: np.ndarray) -> tuple[np.ndarray, ...]:
    """N_17 = round-half-even(a 10**(16 - e)) for each a in [1e-4, 1e3) and e + 4 in
    ``decade``; err, with a 10**(16 - e) = p + err exactly by Dekker's two-product (Numer.
    Math. 18, 1971), p an integer >= 10**16 > 2**53, so that N_17 = p + rint(err); rint(err);
    and 10**(16 - e)."""
    s, s_hi, s_lo = (np.take(scale, decade) for scale in _tables().scales)
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p = a * s
    err = a_hi * s_hi - p
    err += a_hi * s_lo
    err += a_lo * s_hi
    err += a_lo * s_lo
    rounded = np.rint(err)
    n17 = p.astype(np.int64)
    n17 += rounded.astype(np.int64)
    return n17, err, rounded, s


def _shortest_digits(a: np.ndarray, decade: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each a in [1e-4, 1e3) and e + 4 in ``decade``: the digits N_k of its shortest
    text, 17 - k, and whether that has under 15 digits.

    The sign b of err - rint(err) places a 10**(16 - e) about N_17, so N_16 and N_15 are
    N_17 over 10 and 100, rounded half to even by the remainder R: up when 2R + b +
    (quotient odd) exceeds 10 or 100.  N_k reads back as a when power N_k - N_17 + rint(err)
    lies within half an ulp of a (times 10**(16 - e)) of err: two exact comparisons.  The
    ends of that interval have over 40 decimal places, so no N_k lies on one.  It is
    symmetric but for powers of two, so the nearest k-digit decimal reads back whenever
    any does: the text has 15 digits if N_15 reads back, else 16 if N_16 does, else 17;
    and under 15 if N_15 reads back and ends in 0, as it does for the powers of two in
    the range, which have at most 13 digits."""
    n17, err, rounded, s = _rounded17(a, decade)
    b = np.subtract(err > rounded, err < rounded, dtype=np.int64)
    half = ((a.view(np.int64) >> 52) - 53 << 52).view(float) * s  # exact
    found = []
    for power in (10, 100):
        q = n17 // power
        n = q + (2 * (n17 - q * power) + b + (q & 1) > power)
        c = (n * power - n17).astype(float)
        c += rounded
        margin = np.minimum(err - (c - half), (c + half) - err)
        found.append((n, margin > 0))
    (n16, trip16), (n15, trip15) = found
    return (np.where(trip15, n15, np.where(trip16, n16, n17)), trip15 + trip16.astype(np.int64),
            trip15 & ~(n15 % 10).astype(bool))


def _lay_out(x: np.ndarray, a: np.ndarray, digits: np.ndarray, fraction: np.ndarray,
             separator: bytes, out: np.ndarray) -> np.ndarray:
    """Write to ``out`` the text of each x, whose |x| = a is ``digits`` (overwritten) over
    10**fraction, then ``separator``, and return the lengths.  The head (sign, integer part
    and point) comes from a table; the digits as "%020d" after a zero word, three words
    right shifted by 24 - length bytes, end with the fraction, and the head is laid over
    what comes before it."""
    tables = _tables()
    head_words, head_lengths = tables.heads
    head = a.astype(np.int64)
    head += np.signbit(x) * 1000
    head_length = np.take(head_lengths, head)
    lengths = head_length + fraction
    index = np.empty((6, x.size), dtype=np.int64)
    index[0] = 10000
    for row, power in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4), start=1):
        np.floor_divide(digits, power, out=index[row])
        digits -= index[row] * power
    index[5] = digits
    w0, w1, w2 = np.take(tables.groups, index.T).view(np.uint64).T
    shift = (8 * (24 - lengths)).astype(np.uint64)
    back = 64 - shift
    np.right_shift(w2, shift, out=out[:, 2])
    out[:, 2] |= np.uint64(separator[0]) << (8 * (lengths - 16)).astype(np.uint64)
    np.right_shift(w1, shift, out=out[:, 1])
    out[:, 1] |= w2 << back
    w0 >>= shift
    w0 |= w1 << back
    head_bits = (8 * head_length).astype(np.uint64)
    w0 >>= head_bits
    w0 <<= head_bits
    np.bitwise_or(w0, np.take(head_words, head), out=out[:, 0])
    return lengths + 1


def _shortest_floats(x: np.ndarray, separator: bytes, out: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The repr text of each x of a float array, then ``separator``, as 24-byte slots in
    ``out``, an (n, 3) uint64 array; return their lengths and the indices of the values
    left to repr (whose slots and lengths are not text).  The kernel takes |x| in
    [1e-4, 1e3), where repr writes no exponent (see _shortest_digits); the rest go to repr:
    zero and the exponent forms outside the range, and texts under 15 digits."""
    tables = _tables()
    a = np.abs(x)
    slow = ~((a >= 1e-4) & (a < 1e3))
    np.copyto(a, 1.5, where=slow)  # any value in the range: no cast below overflows
    binade = (a.view(np.int64) >> 52) - 1009
    decade = np.take(tables.low, binade)
    decade += a >= np.take(tables.above, binade)
    digits, shorter, short = _shortest_digits(a, decade)
    slow |= short
    # k - 1 - e digits after the point, for e + 4 in decade and 17 - k in shorter.
    lengths = _lay_out(x, a, digits, 20 - decade - shorter, separator, out)
    return lengths, np.flatnonzero(slow)


def format_block(columns: Sequence[np.ndarray | tuple[Texts, int | np.ndarray]],
                 ) -> Iterator[memoryview]:
    """The CSV text of a block of rows, _ROWS rows at a time, given one entry per column: a
    float array (repr of each value), a bool array (0 or 1), or (Texts, index), the texts
    at ``index`` (an int for a constant column), which end with their own separators.  At
    least one entry is an array."""
    rows = next(len(c) for c in columns if isinstance(c, np.ndarray))
    for start in range(0, rows, _ROWS):
        part = slice(start, start + _ROWS)
        yield _format_rows([c[part] if isinstance(c, np.ndarray) else
                            (c[0], c[1][part] if isinstance(c[1], np.ndarray) else c[1])
                            for c in columns], min(_ROWS, rows - start))


def _format_rows(columns: Sequence[np.ndarray | tuple[Texts, int | np.ndarray]],
                 rows: int) -> memoryview:
    """The text of format_block for ``rows`` rows: each cell laid in a 24-byte slot, and the
    slots stored by _store_slots, with the texts left to repr and any longer than
    a slot as its tokens."""
    width = len(columns)
    slots = np.empty((rows, width, 3), dtype=np.uint64)
    cells = slots.view("V24")[..., 0]
    lengths = np.empty((rows, width), dtype=np.int64)
    slow_cells, slow_texts = [], []
    for j, column in enumerate(columns):
        separator = b"\n" if j == width - 1 else b","
        if isinstance(column, tuple):
            table, index = column
            if table.overlong:  # written after the slots, as the texts left to repr are
                index = np.broadcast_to(index, rows)
                overlong = np.flatnonzero(table.lengths[index] > 24)
                slow_cells.append(overlong * width + j)
                slow_texts += [table.overlong[k] for k in index[overlong].tolist()]
        elif column.dtype == bool:
            table, index = _flags(separator), column.view(np.uint8)
        else:
            lengths[:, j], slow = _shortest_floats(column, separator, slots[:, j])
            slow_cells.append(slow * width + j)
            slow_texts += [b"%r%s" % (v, separator) for v in column[slow].tolist()]
            continue
        cells[:, j] = table.slots[index]
        lengths[:, j] = table.lengths[index]
    slow = np.concatenate(slow_cells) if slow_cells else np.empty(0, dtype=np.intp)
    lengths = lengths.reshape(-1)
    lengths[slow] = [len(text) for text in slow_texts]
    text = np.empty(int(lengths.sum()) + 24, dtype=np.uint8).data
    return text[:_store_slots(text, cells.reshape(-1), lengths, slow, slow_texts)]

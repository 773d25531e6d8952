"""Floats as decimal text: one exact vectorised kernel for the "%.17g" event rows and the
repr cells of the scan CSVs, which format_block writes.

For |x| in [1e-4, 1e3), where neither text has an exponent, both come from N_17, the 17
significant digits of |x| correctly rounded (_rounded17): "%.17g" is N_17 less its trailing
zeros, repr the shortest of N_15, N_16 and N_17 that reads back, and of those the nearest
(Steele & White; Gay, 1990).  A writer picks the digits, _lay_out puts each text and its
separator in a 24-byte slot, and _store_slots stores the slots at their offsets in one
scatter.  Values a writer cannot prove go to "%.17g" or repr itself.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace
from typing import Iterator, Sequence

import numpy as np

# CSV rows formatted at a time: their scratch, up to about 1 KB a row, stays under 1 MB.
_ROWS = 1024


@functools.cache
def _kernel_tables() -> SimpleNamespace:
    """Tables of _rounded17, built on first use.

    By the biased exponent of |x|, 1009 to 1032 for 2**-14 < 1e-4 <= |x| < 1e3 < 2**10: the
    decade e of the binade's low end, plus 4 (``low``; -1 below), and the power of ten (as a
    double: exact, or just above it) at or above which |x| is in the next decade
    (``above``).  By e + 4: 10**(16 - e) and its Veltkamp split (``scales``)."""
    binades = [2 ** (b - 14) for b in range(24)]  # exact, as Python floats
    low = [len(str(int(10 ** 20 * v))) - 21 for v in binades]  # floor(log10(v))
    scales = np.array([float(10 ** (16 - e)) for e in range(-4, 3)]) * np.array(
        [[1.0], [134217729.0], [1.0]])
    scales[1] -= scales[1] - scales[0]  # at most 26 significant bits
    scales[2] -= scales[1]
    return SimpleNamespace(low=np.array([-5] * 1009 + low) + 4, scales=scales,
                           above=np.array([np.inf] * 1009 + [float(10 ** (e + 1)) for e in low]))


@functools.cache
def _layout_tables() -> SimpleNamespace:
    """Tables of _lay_out, built on first use: the "%04d" text of 0 to 9999 as native
    words (``words``); the same less its trailing zeros, NUL bytes in their place, with
    their count in the high half (``tails``); and by 1000 sign + int(|x|), the head (sign,
    integer part and point) as a word and its length (``head_words``, ``head_lengths``)."""
    digit = np.arange(48, 58, dtype=np.uint64)  # b"0" to b"9"
    words = (digit[:, None, None, None] | digit[:, None, None] << 8
             | digit[:, None] << 16 | digit << 24).ravel()
    zeros = sum(np.arange(10000) % 10 ** k == 0 for k in range(1, 5)).astype(np.uint64)
    # "%d." % i for i < 1000: its "%04d" word less the leading zeros, then the point.
    i = np.arange(1000)
    places = 1 + (i >= 10) + (i >= 100)
    heads = words[i] >> (32 - 8 * places).astype(np.uint64)
    heads |= np.uint64(ord(".")) << (8 * places).astype(np.uint64)
    return SimpleNamespace(
        words=words, tails=words & np.uint64(0xFFFFFFFF) >> 8 * zeros | zeros << np.uint64(32),
        head_words=np.concatenate([heads, heads << np.uint64(8) | np.uint64(ord("-"))]),
        head_lengths=np.concatenate([places + 1, places + 2]))


def _rounded17(a: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, ...]:
    """The decade e + 4 and N_17 = round-half-even(a 10**(16 - e)) of each a in [1e-4, 1e3),
    e = floor(log10(a)), and err and rint(err), where a 10**(16 - e) = p + err exactly by
    Dekker's two-product (Numer. Math. 18, 1971), p an integer >= 10**16 > 2**53, so that
    N_17 = p + rint(err).  They are views of rows 0, 6, 1 and 5 of ``scratch``, a
    C-contiguous (7, a.size) float array it overwrites, and every step is one ufunc of a
    single dtype, so the kernel allocates no array.  Below 1e-4 the decade is -1, and N_17
    stays finite down to 0."""
    tables = _kernel_tables()
    ints = scratch.view(np.int64)
    decade, p, hi, lo = ints[0], scratch[4], scratch[5], scratch[6]
    binade = np.right_shift(a.view(np.int64), 52, out=ints[4])
    np.take(tables.low, binade, out=decade, mode="clip")
    above = np.take(tables.above, binade, out=scratch[1], mode="clip")
    np.copyto(ints[2], np.greater_equal(a, above, out=scratch[3].view(np.bool_)[:a.size]))
    decade += ints[2]
    s, s_hi, s_lo = np.take(tables.scales, decade, axis=1, out=scratch[1:4], mode="clip")
    np.multiply(a, s, out=p)
    np.multiply(a, 134217729.0, out=hi)  # a = hi + lo
    hi -= np.subtract(hi, a, out=lo)
    np.subtract(a, hi, out=lo)
    err = np.subtract(np.multiply(hi, s_hi, out=s), p, out=s)
    err += np.multiply(hi, s_lo, out=hi)
    err += np.multiply(lo, s_hi, out=s_hi)
    err += np.multiply(lo, s_lo, out=lo)
    rounded = np.rint(err, out=hi)
    n17, rounded_int = ints[6], ints[3]
    np.copyto(n17, p, casting="unsafe")
    np.copyto(rounded_int, rounded, casting="unsafe")
    n17 += rounded_int
    return decade, n17, err, rounded


def _lay_out(x: np.ndarray, a: np.ndarray, digits: np.ndarray, fraction: np.ndarray,
             separators: bytes, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Write to ``out``, an (n, 3) uint64 array, the text of each x of an (n,) float array,
    whose |x| = a is ``digits`` over 10**fraction, less the trailing zeros of its last
    four digits, then its separator (``separators`` repeat along x), and return the
    lengths, in ``fraction``.  ``a``, ``digits`` and ``scratch``, a (5, n) int64 array
    of C-contiguous rows, are overwritten, each op writing one of them in place or ``out``.

    The digits go as "%020d" after a zero word, in three words right shifted by 24 less
    the length without those zeros, and the head (sign, integer part and point) from a
    table is laid over what comes before the fraction.  Lengths of 16 to 23 bytes leave
    room for the separator, which goes where the first dropped zero was."""
    tables = _layout_tables()
    group, temp = scratch[:2]
    temp_word, w0, w1, w2 = scratch[1:].view(np.uint64)

    def group_word(power: int, word: np.ndarray) -> np.ndarray:
        """The "%04d" word of digits // power, in ``word``; digits keeps the rest."""
        np.floor_divide(digits, power, out=group)
        np.subtract(digits, np.multiply(group, power, out=temp), out=digits)
        return np.take(tables.words, group, out=word, mode="clip")

    # Two groups a word, the first in its low half; the last group less its zeros.
    np.left_shift(group_word(10 ** 16, w0), 32, out=w0)
    group_word(10 ** 12, w1)
    w1 |= np.left_shift(group_word(10 ** 8, temp_word), 32, out=temp_word)
    group_word(10 ** 4, w2)
    tail = np.take(tables.tails, digits, out=temp_word, mode="clip")
    zeros = np.right_shift(tail, 32, out=group.view(np.uint64)).view(np.int64)
    w2 |= np.left_shift(tail, 32, out=tail)
    head, bits = digits, a.view(np.int64)
    np.copyto(head, a, casting="unsafe")  # int(a), then 1000 more if x is negative
    head -= np.multiply(np.right_shift(x.view(np.int64), 63, out=bits), 1000, out=bits)
    lengths = fraction
    lengths += np.take(tables.head_lengths, head, out=bits, mode="clip")
    bits *= 8
    shift = np.multiply(np.subtract(24, lengths, out=temp), 8, out=temp).view(np.uint64)
    lengths -= zeros
    spare = group.view(np.uint64)
    w0 >>= shift
    w0 |= np.left_shift(w1, np.subtract(64, shift, out=spare), out=spare)
    w0 >>= bits.view(np.uint64)
    w0 <<= bits.view(np.uint64)
    np.bitwise_or(w0, np.take(tables.head_words, head, out=spare, mode="clip"), out=out[:, 0])
    w1 >>= shift
    np.bitwise_or(w1, np.left_shift(w2, np.subtract(64, shift, out=spare), out=spare),
                  out=out[:, 1])
    w2 >>= shift
    bits = np.multiply(np.subtract(lengths, 16, out=bits), 8, out=bits).view(np.uint64)
    np.left_shift(separators[0], bits, out=spare)
    for j, separator in enumerate(separators):
        if separator != separators[0]:
            np.left_shift(separator, bits[j::len(separators)], out=spare[j::len(separators)])
    np.bitwise_or(w2, spare, out=out[:, 2])
    lengths += 1
    return lengths


def _store_slots(slots: np.ndarray, lengths: np.ndarray, slow: np.ndarray, tokens: list[bytes],
                 text: memoryview | None = None, starts: np.ndarray | None = None) -> memoryview:
    """The text of the 24-byte ``slots``, each stored at its offset from ``lengths``, in index
    order, over the previous one past that one's length, and then the ``tokens`` of the
    indices ``slow``, whose lengths it sets; made in ``text`` (the total length and 23 bytes
    more) or a buffer of its own."""
    lengths[slow] = [len(token) for token in tokens]
    starts = np.cumsum(lengths, out=starts)
    total = int(starts[-1])
    text = np.empty(total + 24, dtype=np.uint8).data if text is None else text
    starts -= lengths
    np.ndarray((total + 1,), "V24", text, strides=(1,))[starts] = slots
    for start, token in zip(starts[slow].tolist(), tokens):
        text[start:start + len(token)] = token
    return text[:total]


class Texts:
    """Cell texts, each ending with its separator: their first 24 bytes as slots, their
    lengths, and the texts themselves if one is longer than a slot."""

    def __init__(self, cells: Sequence[bytes]) -> None:
        self.slots = np.frombuffer(b"".join(cell[:24].ljust(24, b"\0") for cell in cells),
                                   dtype="V24")
        self.lengths = np.array([len(cell) for cell in cells])
        self.overlong = cells if self.lengths.max() > 24 else ()


def _shortest_floats(x: np.ndarray, separator: bytes, out: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The repr text of each x of a float array, then ``separator``, as 24-byte slots in
    ``out``, an (n, 3) uint64 array; return their lengths and the indices of the values
    left to repr (whose slots and lengths are not text): zero, the exponent forms outside
    [1e-4, 1e3), and texts under 15 digits.

    For the rest, the sign b of err - rint(err) places a 10**(16 - e) about N_17, so N_16
    and N_15 are N_17 over 10 and 100, rounded half to even by the remainder R: up when
    2R + b + (quotient odd) exceeds 10 or 100.  N_k reads back as a when power N_k - N_17 +
    rint(err) lies within half an ulp of a (times 10**(16 - e)) of err: two exact
    comparisons.  The ends of that interval have over 40 decimal places, so no N_k lies on
    one.  It is symmetric but for powers of two, so the nearest k-digit decimal reads back
    whenever any does: the text has 15 digits if N_15 reads back, else 16 if N_16 does,
    else 17; and under 15 if N_15 reads back and ends in 0, as it does for the powers of
    two in the range, which have at most 13 digits."""
    scratch = np.empty((8, x.size))
    a = np.abs(x, out=scratch[7])
    slow = ~((a >= 1e-4) & (a < 1e3))
    np.copyto(a, 1.5, where=slow)  # any value in the range: no cast below overflows
    decade, n17, err, rounded = _rounded17(a, scratch[:7])
    b = np.subtract(err > rounded, err < rounded, dtype=np.int64)
    half = ((a.view(np.int64) >> 52) - 53 << 52).view(float)  # exact
    half *= np.take(_kernel_tables().scales[0], decade)
    found = []
    for power in (10, 100):
        q = n17 // power
        n = q + (2 * (n17 - q * power) + b + (q & 1) > power)
        c = (n * power - n17).astype(float)
        c += rounded
        margin = np.minimum(err - (c - half), (c + half) - err)
        found.append((n, margin > 0))
    (n16, trip16), (n15, trip15) = found
    slow |= trip15 & ~(n15 % 10).astype(bool)
    # N_k has k - 1 - e digits after the point, for e + 4 in decade.
    lengths = _lay_out(x, a, np.where(trip15, n15, np.where(trip16, n16, n17)),
                       20 - decade - trip15 - trip16, separator, out, scratch[:5].view(np.int64))
    return lengths, np.flatnonzero(slow)


def format_block(columns: Sequence[np.ndarray | tuple[Texts, int | np.ndarray]],
                 ) -> Iterator[memoryview]:
    """The CSV text of a block of rows, _ROWS rows at a time, given one entry per column: a
    float array (repr of each value), a bool array (0 or 1), or (Texts, index), the texts
    at ``index`` (an int for a constant column), which end with their own separators.  At
    least one entry is an array.  Each cell is laid in a 24-byte slot and the slots stored
    by _store_slots, with the texts left to repr and any longer than a slot as tokens."""
    rows, width = next(len(c) for c in columns if isinstance(c, np.ndarray)), len(columns)
    for start in range(0, rows, _ROWS):
        part, n = slice(start, start + _ROWS), min(_ROWS, rows - start)
        slots = np.empty((n, width, 3), dtype=np.uint64)
        cells = slots.view("V24")[..., 0]
        lengths = np.empty((n, width), dtype=np.int64)
        slow_cells, slow_texts = [], []
        for j, column in enumerate(columns):
            separator = b"\n" if j == width - 1 else b","
            if isinstance(column, tuple):
                table, index = column
                index = index[part] if isinstance(index, np.ndarray) else index
                if table.overlong:  # written after the slots, as the texts left to repr are
                    index = np.broadcast_to(index, n)
                    overlong = np.flatnonzero(table.lengths[index] > 24)
                    slow_cells.append(overlong * width + j)
                    slow_texts += [table.overlong[k] for k in index[overlong].tolist()]
            elif column.dtype == bool:
                table, index = Texts([b"0" + separator, b"1" + separator]), column[part]
                index = index.view(np.uint8)
            else:
                lengths[:, j], slow = _shortest_floats(column[part], separator, slots[:, j])
                slow_cells.append(slow * width + j)
                slow_texts += [b"%r%s" % (v, separator) for v in column[part][slow].tolist()]
                continue
            cells[:, j] = table.slots[index]
            lengths[:, j] = table.lengths[index]
        slow = np.concatenate(slow_cells) if slow_cells else np.empty(0, dtype=np.intp)
        yield _store_slots(cells.reshape(-1), lengths.reshape(-1), slow, slow_texts)

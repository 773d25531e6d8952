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

# format_block's floats formatted in one _shortest_floats call, whose fixed cost (some 110
# NumPy calls, 0.1 ms) is then under a third of its time; and the cells stored in one pass,
# as a pass's workspace takes 64 bytes a cell: 16384 (scan-region's 4096-row blocks in one
# pass) raised the scan's peak RSS by 0.5 MB.
_VALUES, _CELLS = 4096, 8192
# The value a kernel lays out in place of one left to repr: in the range, and with no
# trailing zero, which would send it down _lay_out's path for round texts.
_FILLER = 1.0000000000000002


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
    """Write to ``out``, a C-contiguous (n, 3) uint64 array, the text of each x of an (n,)
    float array, whose |x| = a is ``digits`` over 10**fraction, less its trailing zeros
    but for one digit after the point, then its separator (``separators`` repeat along
    x), and return the lengths, in ``fraction``.  ``a``, ``digits`` and ``scratch``, a
    (5, n) int64 array of C-contiguous rows, are overwritten, each op writing one of them
    in place or ``out``; the bytes of a slot past its separator are left undefined.

    The digits go as "%020d" after a zero word, in three words right shifted by 24 less
    the length with those zeros, and the head (sign, integer part and point) from a
    table is laid over what comes before the fraction.  The lookup of the last four
    digits counts their trailing zeros; where all four are 0 (a rare text of at most
    16 digits) the zeros before them are counted in the words' bytes.  The separator
    goes where the first dropped zero was, or after the last digit."""
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
    round_ = np.flatnonzero(np.equal(zeros, 4, out=temp.view(np.bool_)[:x.size])).tolist()
    head, bits = digits, a.view(np.int64)
    np.copyto(head, a, casting="unsafe")  # int(a), then 1000 more if x is negative
    head -= np.multiply(np.right_shift(x.view(np.int64), 63, out=bits), 1000, out=bits)
    lengths = fraction
    lengths += np.take(tables.head_lengths, head, out=bits, mode="clip")
    shift = np.multiply(np.subtract(24, lengths, out=temp), 8, out=temp).view(np.uint64)
    lengths -= zeros
    for i in round_:  # the last four digits are 0: drop those of the other 16 too, bar one
        rest = (int(w0[i]) >> 32 | int(w1[i]) << 32 | (int(w2[i]) & 0xFFFFFFFF) << 96)
        rest = rest.to_bytes(16, "little")  # in the text's order
        lengths[i] = max(lengths[i] - 16 + len(rest.rstrip(b"0")), bits[i] + 1)
    bits *= 8
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
    # The separator at byte L, the length, OR'd into the zero bytes past the text in
    # word 2, shifted by 8 (L - 16); a shift of 64 or more gives 0, as for L = 24, the
    # length a value left to the caller may have (under 1e-4, where decade is -1).  A
    # text under 16 bytes, or one whose dropped "0"s go past it, gets its byte set.
    bits = np.multiply(np.subtract(lengths, 16, out=bits), 8, out=bits).view(np.uint64)
    np.left_shift(separators[0], bits, out=spare)
    for j, separator in enumerate(separators):
        if separator != separators[0]:
            np.left_shift(separator, bits[j::len(separators)], out=spare[j::len(separators)])
    np.bitwise_or(w2, spare, out=out[:, 2])
    short = np.less(lengths, 16, out=temp.view(np.bool_)[:x.size])
    short[round_] = True
    short = np.flatnonzero(short)
    out.view(np.uint8).reshape(-1)[24 * short + lengths[short]] = np.frombuffer(
        separators, np.uint8)[short % len(separators)]
    lengths += 1
    return lengths


def _store_slots(slots: np.ndarray, lengths: np.ndarray, slow: np.ndarray, tokens: list[bytes],
                 text: memoryview, starts: np.ndarray) -> memoryview:
    """The text of the 24-byte ``slots``, each stored at its offset from ``lengths``, in index
    order, over the previous one past that one's length, and then the ``tokens`` of the
    indices ``slow``, whose lengths it sets; made in ``text`` if it holds the total length
    and 24 bytes more, else in a buffer of its own.  The offsets go to ``starts``."""
    lengths[slow] = [len(token) for token in tokens]
    starts[0] = 0
    np.cumsum(lengths[:-1], out=starts[1:])
    total = int(starts[-1] + lengths[-1])
    if len(text) < total + 24:
        text = np.empty(total + 24, dtype=np.uint8).data
    np.ndarray((total + 1,), "V24", text, strides=(1,))[starts] = slots
    for start, token in zip(starts[slow].tolist(), tokens):
        text[start:start + len(token)] = token
    return text[:total]


class Texts:
    """Cell texts, each ending with its separator, as 24-byte slots and their lengths; a
    text longer than its slot is refused."""

    def __init__(self, cells: Sequence[bytes]) -> None:
        self.lengths = np.array([len(cell) for cell in cells])
        if self.lengths.max() > 24:
            raise ValueError(f"cell text longer than its 24-byte slot: "
                             f"{cells[int(self.lengths.argmax())]!r}")
        self.slots = np.frombuffer(b"".join(cell.ljust(24, b"\0") for cell in cells),
                                   dtype="V24")


@functools.cache
def _flags(separator: int) -> Texts:
    """The texts of a bool column: 0 and 1, then ``separator``."""
    return Texts([b"0%c" % separator, b"1%c" % separator])


def _shortest_floats(x: np.ndarray, separators: bytes, out: np.ndarray, scratch: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The repr text of each x of a float array, then its separator (``separators`` repeat
    along x), as 24-byte slots in ``out``, a C-contiguous (n, 3) uint64 array; return their
    lengths and the indices of the values left to repr (whose slots and lengths are not
    text): zero and the exponent forms outside [1e-4, 1e3).
    ``scratch`` is a C-contiguous (8, n) float array; it and ``out`` are overwritten, each
    step one ufunc of a single dtype, so the kernel allocates no array."""
    digits, fraction, slow = _shortest_digits(x, out, scratch)
    a = np.abs(x, out=scratch[7])
    a[slow] = _FILLER
    return _lay_out(x, a, digits, fraction, separators, out, scratch[1:6].view(np.int64)), slow


def _shortest_digits(x: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                     ) -> tuple[np.ndarray, ...]:
    """The digits of _shortest_floats for each x and the number of them after the point,
    in rows 6 and 0 of ``scratch``, and the indices of the values left to repr; the rows
    of ``out`` serve as flags and as N_16 and N_15.

    Where |x| = a is in [1e-4, 1e3), the sign b of err - rint(err) places a 10**(16 - e)
    about N_17, so N_16 and N_15 are N_17 over 10 and 100, rounded half to even by the
    remainder R: up when 2R + b + (quotient odd) exceeds 10 or 100.  N_k reads back as a
    when power N_k - N_17 + rint(err) lies within half an ulp of a (times 10**(16 - e)) of
    err: two exact comparisons.  The ends of that interval have over 40 decimal places, so
    no N_k lies on one.  It is symmetric but for powers of two, so the nearest k-digit
    decimal reads back whenever any does: the text has 15 digits if N_15 reads back, else
    16 if N_16 does, else 17; and under 15 if N_15 reads back and ends in 0, as it does for
    the powers of two in the range, which have at most 13 digits: _lay_out drops those
    zeros."""
    ints, (flags, n16, n15) = scratch.view(np.int64), out.reshape(3, x.size).view(np.int64)
    slow, trip16, trip15, flag = flags.view(np.bool_).reshape(8, x.size)[:4]
    a = np.abs(x, out=scratch[7])
    inside = np.greater_equal(a, 1e-4, out=flag)
    inside &= np.less(a, 1e3, out=slow)
    np.logical_not(inside, out=slow)
    np.copyto(a, _FILLER, where=slow)  # in the range: no cast below overflows
    decade, n17, err, rounded = _rounded17(a, scratch[:7])
    # Half an ulp of a, 2**(E - 53), times 10**(16 - e), exactly; t = 2 N_17 + b; and c,
    # in a's row, which _shortest_floats makes again.
    half, temp, t, temp_int, c = scratch[3], scratch[4], ints[2], ints[4], a
    np.left_shift(np.subtract(np.right_shift(a.view(np.int64), 52, out=ints[3]), 53,
                              out=ints[3]), 52, out=ints[3])
    half *= np.take(_kernel_tables().scales[0], decade, out=temp, mode="clip")
    np.copyto(t, np.sign(np.subtract(err, rounded, out=temp), out=temp), casting="unsafe")
    t += n17
    t += n17
    for power, n, trip in ((10, n16, trip16), (100, n15, trip15)):
        q = np.floor_divide(n17, power, out=n)
        up = np.subtract(t, np.multiply(q, 2 * power, out=temp_int), out=temp_int)
        up += np.bitwise_and(q, 1, out=c.view(np.int64))
        up -= power + 1  # 2R + b + (q odd) - power - 1, which is >= 0 to round up
        q += np.right_shift(up, 63, out=up)
        q += 1
        np.copyto(c, np.subtract(np.multiply(n, power, out=temp_int), n17, out=temp_int),
                  casting="unsafe")
        c += rounded
        low = np.subtract(err, np.subtract(c, half, out=temp), out=temp)
        c += half
        c -= err
        np.greater(np.minimum(low, c, out=low), 0.0, out=trip)
    # N_16 where it reads back, then N_15 where that does, chosen by arithmetic (a masked
    # copy branches on every value); N_k has k - 1 - e digits after the point, for e + 4
    # in decade.
    fraction = np.subtract(20, decade, out=decade)
    for trip, n in ((trip16, n16), (trip15, n15)):
        np.copyto(temp_int, trip)
        fraction -= temp_int
        n -= n17
        n17 += np.multiply(n, temp_int, out=n)
    return n17, fraction, np.flatnonzero(slow)


def format_block(columns: Sequence[np.ndarray | tuple[Texts, int | np.ndarray]],
                 ) -> Iterator[memoryview]:
    """The CSV text of a block of rows, given one entry per column: a float array (repr of
    each value), a bool array (0 or 1), or (Texts, index), the texts at ``index`` (an int for
    a constant column), which end with their own separators.  At least one entry is an
    array.  A kernel batch takes the rows that hold about _VALUES floats: their floats,
    gathered row by row, go through one _shortest_floats call, each column's separator in
    its repeating pattern.  A pass takes the batch's rows that hold at most _CELLS cells,
    and _store_slots stores every cell's slot, with the texts left to repr as tokens.  Each
    pass is made in one workspace allocated per block, so each text it yields is released
    when the next is drawn, and the last when the block ends."""
    rows, width = next(len(c) for c in columns if isinstance(c, np.ndarray)), len(columns)
    ends = b"," * (width - 1) + b"\n"
    floats = [j for j, c in enumerate(columns) if isinstance(c, np.ndarray) and c.dtype != bool]
    texts = [(j, c if isinstance(c, tuple) else (_flags(ends[j]), c.view(np.uint8)))
             for j, c in enumerate(columns) if j not in floats]
    k, pattern, floats = len(floats), bytes(ends[j] for j in floats), np.array(floats, dtype=int)
    batch = min(max(_VALUES // max(k, 1), 1), rows)
    step = min(max(_CELLS // width, 1), batch)
    # In 8-byte words, for v values and c cells: the kernel's slots, values and scratch (its
    # first row the lengths) in [0, 12 v); a pass's cells' slots and lengths in [at, at + 4 c)
    # and its text and starts in [to, to + 4 c + 3).  Where a batch is one pass, the text
    # goes over the kernel's words once they are copied to the cells'; else past the cells.
    v, c = batch * k, step * width
    at = max(5 * v, 4 * c + 3) if step == batch else 5 * v
    to = 0 if step == batch else at + 4 * c
    work = np.empty(max(12 * v, at + 4 * c, to + 4 * c + 3), dtype=np.uint64)
    for first in range(0, rows, batch):
        n, v = min(batch, rows - first), min(batch, rows - first) * k
        if k:
            x = work[3 * v:4 * v].view(float)
            np.stack([columns[j][first:first + n] for j in floats], axis=1, out=x.reshape(n, k))
            float_lengths, left = _shortest_floats(x, pattern, work[:3 * v].reshape(v, 3),
                                                   work[4 * v:12 * v].view(float).reshape(8, v))
            float_slots = work[:3 * v].view("V24").reshape(n, k)
            float_lengths = float_lengths.reshape(n, k)
        for start in range(first, first + n, step):
            m, c = min(step, first + n - start), min(step, first + n - start) * width
            part, own = slice(start, start + m), slice(start - first, start - first + m)
            slots = work[at:at + 3 * c].view("V24")
            lengths = work[at + 3 * c:at + 4 * c].view(np.int64)
            cells, cell_lengths = slots.reshape(m, width), lengths.reshape(m, width)
            slow, tokens = np.empty(0, dtype=np.intp), []
            if k:
                cells[:, floats], cell_lengths[:, floats] = float_slots[own], float_lengths[own]
                index = left[np.searchsorted(left, own.start * k):
                             np.searchsorted(left, own.stop * k)]
                slow = (index // k - own.start) * width + floats[index % k]
                tokens = [b"%r%c" % (value, pattern[i])
                          for i, value in zip((index % k).tolist(), x[index].tolist())]
            for j, (table, index) in texts:
                if isinstance(index, np.ndarray):  # gathered in the text's room, free until stored
                    index = index[part]
                    cells[:, j] = np.take(table.slots, index, out=work[to:to + 3 * m].view("V24"),
                                          mode="clip")
                    cell_lengths[:, j] = np.take(table.lengths, index, mode="clip",
                                                 out=work[to + 3 * m:to + 4 * m].view(np.int64))
                else:
                    cells[:, j], cell_lengths[:, j] = table.slots[index], table.lengths[index]
            text = _store_slots(slots, lengths, slow, tokens,
                                work[to:to + 3 * c + 3].view(np.uint8).data,
                                work[to + 3 * c + 3:to + 4 * c + 3].view(np.int64))
            yield text
            text.release()

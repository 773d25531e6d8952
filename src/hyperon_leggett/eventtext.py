"""Event rows as text: the exact "%.17g" writer and the reader that inverts it.

A direction component x with |x| in [1e-4, 1) is written as its sign, "0.", the
zeros after the point and 17 significant digits without trailing zeros; its
digits come exactly from _significant_digits.  The reader parses that form in
whole-array operations and proves each value by formatting it back through the
same kernel.  Other values (0, +-1, the exponent form, non-finite) are written by
"%.17g" itself and read by float().
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import BinaryIO

import numpy as np


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
    z = np.add(a < 0.1, a < 0.01, dtype=np.intp)
    z += a < 0.001
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


# Body bytes read and parsed at a time: the reader's scratch stays small next to the
# (n_events, 6) array it fills.
_READ_BYTES = 32 << 10
# Bytes before the body text in the read buffer, so the 24 bytes that end a token
# lie inside the buffer even for the first token.
_PAD = 24
# A body line: six tokens of bytes above 32, separated by single spaces.
_BODY_LINE = re.compile(rb"[^\x00-\x20]+(?: [^\x00-\x20]+){5}")
_LINE_SEPARATORS = np.frombuffer(b"     \n", dtype=np.uint8)


def _length_tables() -> tuple[np.ndarray, ...]:
    """Tables for _parse_tokens, indexed by n = min(token length after its sign, 23).

    A token of the kernel is "0." and L = n - 2 digits, 1 <= L <= 20, so it fills
    the last n of the 24 bytes that end it: three little-endian words, a word's
    last byte its most significant.  For each n, as three words: the masks that
    keep those n bytes; the text XORed with them so that "0." and the digits read as
    digit values; the limits added to them, which carry into a byte's top bit where
    a digit exceeds 9, or where a byte that must be 0 is not ("0.", and the digits
    before the last 17, so that the digits M < 10**17); then 5**L and 2**-L; and, at
    24 z + n, 10**(17 + z - L) where that is a power up to 10**17, which turns the
    digits of a token with z zeros after "0." into the 17 of _significant_digits
    (else 0, which no 17 digits equal).  Other n keep nothing and set a top bit.
    """
    lengths = [n - 2 if 3 <= n <= 22 else 0 for n in range(24)]
    zeros, masks, limits = [], [], []
    for n, L in enumerate(lengths):
        kept = 24 - n if L else 24
        zeros.append(bytes(kept) + b"0." + b"0" * L if L else bytes(24))
        masks.append(bytes(kept) + b"\xff" * (24 - kept))
        # Byte j from the end (j = 1 is the last) is a digit for j <= L.
        limit = bytes(0x76 if j <= min(L, 17) else 0x7F if j <= L + 2 else 0
                      for j in range(24, 0, -1))
        limits.append(limit if L else bytes(23) + b"\x80")
    words = [np.frombuffer(b"".join(table), dtype="<u8").reshape(24, 3)
             for table in (masks, zeros, limits)]
    scales = [10 ** (17 + z - L) if L and 0 <= 17 + z - L <= 17 else 0
              for z in range(4) for L in lengths]
    return (*words, np.array([5 ** L for L in lengths]),
            np.array([2.0 ** -L for L in lengths]), np.array(scales))


_MASKS, _ZEROS, _LIMITS, _POWER5, _POWER2, _DIGIT_SCALES = _length_tables()
_TOP_BITS = np.uint64(0x8080808080808080)
# Eight digit bytes (first digit lowest) to their value in three multiply-shifts
# (Lemire, "Fast parsing of 8-digit integers", 2018).
_SWAR_STEPS = tuple((np.uint64(factor), np.uint64(shift), np.uint64(mask))
                    for factor, shift, mask in ((2561, 8, 0x00FF00FF00FF00FF),
                                                (6553601, 16, 0x0000FFFF0000FFFF),
                                                (42949672960001, 32, 0xFFFFFFFFFFFFFFFF)))
_WORD_VALUES = np.array([10 ** 16, 10 ** 8, 1], dtype=np.uint64)
_SIGNS = np.array([1.0, -1.0])


def _token_digits(buf: np.ndarray, ends: np.ndarray, n: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """For each token of ``buf`` that ends before ``ends`` and has ``n`` bytes after
    its sign: whether it is "0." and 1 to 20 digits, all 0 but the last 17, and its
    digits M as an int64 (0 for the other tokens).  The 24 bytes that end each
    token are read as three words through a stride-1 view of ``buf``."""
    windows = np.ndarray((buf.size - 23,), dtype="V24", buffer=buf, strides=(1,))
    w = windows[ends - 24].view("<u8").reshape(-1, 3)
    w &= np.take(_MASKS, n, axis=0)
    w ^= np.take(_ZEROS, n, axis=0)
    flags = w + np.take(_LIMITS, n, axis=0)
    flags |= w
    ok = ~((flags[:, 0] | flags[:, 1] | flags[:, 2]) & _TOP_BITS).astype(bool)
    for factor, shift, mask in _SWAR_STEPS:
        w *= factor
        w >>= shift
        w &= mask
    m = (w @ _WORD_VALUES).view(np.int64)
    m *= ok
    return ok, m


def _parse_tokens(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Write to ``out`` the value of each token buf[starts:ends] of the form
    _format_rows writes for |x| in [1e-4, 1), and return the indices of the other
    tokens, which it leaves unwritten.

    The candidate for the digits M of "-0.ddd" (L of them) is (q + r / 5**L) 2**-L,
    q, r = divmod(M, 5**L), within an ulp or so of M / 10**L.  It is kept only where
    _significant_digits gives it the token's own decade and 17 digits: a %.17g
    string lies within half an ulp of its double, so the candidate is then float()
    of the token.  Integers are tested by a cast to bool, not by comparisons: the
    NumPy integer comparison kernels run nowhere else in a re-analysis, and their
    code pages would add to its peak resident memory.
    """
    sign = (buf[starts] == ord("-")).astype(np.intp)
    n = np.minimum(ends - starts - sign, 23)
    ok, m = _token_digits(buf, ends, n)
    q, r = np.divmod(m, _POWER5[n])
    candidate = r / _POWER5[n]
    candidate += q
    candidate *= _POWER2[n]
    z, d = _significant_digits(candidate)
    ok &= candidate >= 1e-4  # so d holds 17 digits
    ok &= ~(d - m * _DIGIT_SCALES[z * 24 + n]).astype(bool)
    np.multiply(candidate, _SIGNS[sign], out=out)
    return np.flatnonzero(~ok)


def _read_rows(fh: BinaryIO, path: Path, first_line: int, n_events: int) -> np.ndarray:
    """The (n_events, 6) rows of an events body read from ``fh``, _READ_BYTES at a
    time into one buffer, each read parsed through its last newline in whole-array
    operations; tokens outside the form _parse_tokens takes go to float().  The body
    is six tokens per line, separated by single spaces, each line ended by a
    newline; ``first_line`` is the number of its first line in the file."""
    data = np.empty((n_events, 6))
    values = data.reshape(-1)
    buf = np.empty(_PAD + _READ_BYTES + 1, dtype=np.uint8)
    buf[:_PAD] = ord("0")  # not a separator
    rows = rest = 0
    while size := rest + fh.readinto(memoryview(buf)[_PAD + rest:_PAD + _READ_BYTES]):
        ends = np.flatnonzero(buf[:_PAD + size] <= 32)
        kinds = buf[ends]
        newlines = np.flatnonzero(kinds == ord("\n"))
        if newlines.size == 0:
            raise ValueError(f"{path}: line {first_line + rows}: no newline "
                             f"after {size} bytes")
        ends, kinds = ends[:newlines[-1] + 1], kinds[:newlines[-1] + 1]
        cut = int(ends[-1]) + 1 - _PAD
        if ends.size % 6 or not (kinds.reshape(-1, 6) == _LINE_SEPARATORS).all():
            raise _malformed_line(path, buf[_PAD:_PAD + cut].tobytes(), first_line + rows)
        lines = ends.size // 6
        if rows + lines > n_events:
            raise ValueError(f"{path}: expected {n_events} rows of 6 columns, got more")
        starts = np.empty_like(ends)
        starts[0] = _PAD
        np.add(ends[:-1], 1, out=starts[1:])
        out = values[6 * rows:6 * (rows + lines)]
        for k in _parse_tokens(buf, starts, ends, out).tolist():
            out[k] = _token_value(path, buf[starts[k]:ends[k]].tobytes(),
                                  first_line + rows + k // 6)
        rows += lines
        rest = size - cut
        buf[_PAD:_PAD + rest] = buf[_PAD + cut:_PAD + size]
    if rows != n_events:
        raise ValueError(f"{path}: expected {n_events} rows of 6 columns, got ({rows}, 6)")
    return data


def _malformed_line(path: Path, text: bytes, line: int) -> ValueError:
    """The error for the first line of ``text``, line ``line`` of the file onward,
    that is not six tokens separated by single spaces."""
    k, row = next((k, row) for k, row in enumerate(text.split(b"\n"))
                  if not _BODY_LINE.fullmatch(row))
    return ValueError(f"{path}: line {line + k}: expected 6 numbers separated by "
                      f"single spaces, got {row!r}")


def _token_value(path: Path, token: bytes, line: int) -> float:
    # float() also takes "1_0", which np.loadtxt and this format do not.
    if b"_" not in token:
        try:
            return float(token)
        except ValueError:
            pass
    raise ValueError(f"{path}: line {line}: not a number: {token!r}")

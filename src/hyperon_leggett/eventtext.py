"""Event rows as text: the exact "%.17g" writer and the reader that inverts it.

A direction component x with |x| in [1e-4, 1) is written as its sign, "0.", the zeros after
the point and the 17 significant digits of _significant_digits without trailing zeros, in a
_Workspace allocated once per stream.  The reader reads the body _READ_BYTES at a time and
parses that form in whole-array operations on one scratch array allocated per load, proving
each value by formatting it back through the same kernel.  Other values (0, +-1, the
exponent form, non-finite) are written by "%.17g" itself and read by float().
"""

import re
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .csvtext import _store_slots

# 10**(17 + z) for z zeros after "0." (exact doubles), and its Veltkamp split hi + lo.
_SCALES = np.array([1e17, 1e18, 1e19, 1e20]) * np.array([[1.0], [134217729.0], [1.0]])
_SCALES[1] -= _SCALES[1] - _SCALES[0]  # at most 26 significant bits
_SCALES[2] -= _SCALES[1]


def _significant_digits(a: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The zeros z after "0." and D = round-half-even(a 10**(17 + z)), the 17 significant digits
    as an int64, of each a in [1e-4, 1), exactly (D is finite for a in [0, 2]), as views of the
    first and last rows of ``scratch``, a C-contiguous (7, a.size) float array it overwrites.
    The decade comparisons are exact: 0.1, 0.01, 0.001 and 1e-4 lie just above their powers of
    ten.  Dekker's two-product (Numer. Math. 18, 1971) gives a 10**(17 + z) = p + e exactly, p
    an even integer >= 2**53, so p + rint(e) rounds a tie to even."""
    z, d = scratch[0].view(np.intp), scratch[6].view(np.int64)
    p, hi, lo = scratch[4:]
    np.less(a, 0.1, out=z)
    z += np.less(a, 0.01, out=hi.view(np.bool_)[:a.size])
    z += np.less(a, 0.001, out=hi.view(np.bool_)[:a.size])
    scale, s_hi, s_lo = np.take(_SCALES, z, axis=1, out=scratch[1:4], mode="clip")
    np.multiply(a, scale, out=p)
    np.multiply(a, 134217729.0, out=hi)  # a = hi + lo
    hi -= np.subtract(hi, a, out=lo)
    np.subtract(a, hi, out=lo)
    e = np.subtract(np.multiply(hi, s_hi, out=scale), p, out=scale)
    e += np.multiply(hi, s_lo, out=hi)
    e += np.multiply(lo, s_hi, out=s_hi)
    e += np.multiply(lo, s_lo, out=lo)
    rounded = np.rint(e, out=hi.view(np.int64), casting="unsafe")
    np.copyto(d, p, casting="unsafe")
    d += rounded
    return z, d


class _Workspace:
    """The scratch of _format_rows for up to ``rows`` rows, allocated once per stream, and its
    tables (built here, so commands that write no events never build them)."""

    def __init__(self, rows: int) -> None:
        self.scratch, self.slots = np.empty(48 * rows), np.empty((6 * rows, 3), dtype=np.int64)
        self.text = np.empty(150 * rows + 24, dtype=np.uint8).data  # tokens take <= 25 bytes
        # At 84 sign + 21 z + d, a token's head (" ", sign, "0.", z zeros, its leading digit
        # d) and 8 times its length, the shift of the digits after it; 0 unless 0 < d < 10.
        self.heads = np.array([[int.from_bytes(h, "little"), 8 * len(h)] if 0 < d < 10 else [0, 0]
                               for sign in (0, 1) for z in range(4) for d in range(21)
                               for h in [b" -"[:1 + sign] + b"0." + b"0" * z + b"%d" % d]],
                              dtype=np.int64).T
        # The "%04d" text of each 4-digit group as a native word, then again for a last group with,
        # in the high half, the length of the 16 digits it ends less trailing zeros (0 for 0000).
        digits = np.arange(10000, dtype=np.uint16)[:, None] // np.uint16([1e3, 1e2, 10, 1]) % 10
        zeros = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1).sum(axis=1)  # trailing
        words = (digits + 48).astype(np.uint8).view(np.uint32).ravel().astype(np.int64)
        self.groups = np.concatenate([words, words | (16 - zeros) * (zeros < 4) << 32])


def _format_rows(rows: np.ndarray, work: _Workspace) -> memoryview:
    """The bytes of ``"%.17g %.17g %.17g %.17g %.17g %.17g\\n" % row`` for each row of a (k, 6)
    float array, made in ``work``: a view of it that the next call overwrites.  Each x with
    |x| in [1e-4, 1) whose 17 digits do not end in 0000 is put, the separator before it, in a
    24-byte slot: its head, then the other 16 digits shifted to follow it.  Slots are stored
    at the tokens' offsets in index order, each over the previous one past that one's length
    (which leaves out trailing zeros).  Other values, given lengths below 17, take "%.17g"."""
    x, n = rows.reshape(-1), rows.size
    scratch = work.scratch[:8 * n].reshape(8, n)
    ints = scratch.view(np.int64)
    z, d = _significant_digits(np.fmin(np.abs(x, out=scratch[7]), 2.0, out=scratch[7]),
                               scratch[:7])
    index = ints[7]  # the leading digit, then groups of 4 digits: rows 3 to 5, and d last
    for out, power in zip((index, *ints[3:6]), (10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        np.floor_divide(d, power, out=out)
        d -= np.multiply(out, power, out=ints[1])
    d += 10000  # the last group's word
    index += np.multiply(z, 21, out=z)
    index += np.multiply(np.signbit(x, out=scratch[0].view(np.bool_)[:n]), 84, out=ints[1])
    first, temp = np.take(work.groups, ints[3:5], out=ints[:2], mode="clip")
    first |= np.left_shift(temp, 32, out=temp)
    second, length = np.take(work.groups, ints[5:7], out=ints[1:3], mode="clip")
    second |= np.left_shift(length, 32, out=ints[3])
    length >>= 32
    head, bits = np.take(work.heads, index, axis=1, out=ints[3:5], mode="clip")
    length += np.right_shift(bits, 3, out=ints[5])
    s0, s1, s2 = work.slots[:n].T
    np.bitwise_or(head, np.left_shift(first, bits, out=s0), out=s0)
    np.left_shift(second, bits, out=s1)
    s1 |= np.right_shift(first, np.subtract(64, bits, out=bits), out=first)
    np.right_shift(second, bits, out=s2)
    s0[::6] ^= ord(" ") ^ ord("\n")
    slow = np.flatnonzero(np.less(length, 17, out=scratch[3].view(np.bool_)[:n]))
    tokens = [b"%c%.17g" % (32 if k % 6 else 10, v)
              for k, v in zip(slow.tolist(), x[slow].tolist())]
    length[slow] = [len(token) for token in tokens]
    total = _store_slots(work.text, work.slots[:n].view("V24").ravel(), length, slow, tokens,
                         ints[5])
    work.text[total] = ord("\n")  # the separator before the first token is dropped
    return work.text[1:total + 1]


# Body bytes read at a time: each read costs about 80 NumPy operations whatever its size, and
# the reader's scratch grows with it (see _read_rows).
_READ_BYTES = 128 << 10
# Tokens parsed at a time: a read of text as _format_rows writes it (about 20 bytes a
# token) takes one round; shorter tokens take more rounds, not more scratch.
_ROUND_TOKENS = _READ_BYTES // 16
# Rows of scratch per token of a round: see _parse_tokens.
_SCRATCH_ROWS = 17
# Bytes before the body in the read buffer: 32, so the 32 bytes that end any token lie in
# it, then a space, the separator before the first token.
_PAD = 33
# A body line: six tokens of bytes above 32, separated by single spaces.
_BODY_LINE = re.compile(rb"[^\x00-\x20]+(?: [^\x00-\x20]+){5}")
_LINE_SEPARATORS = np.frombuffer(b"     \n", dtype=np.uint8)


def _length_tables() -> tuple[np.ndarray, ...]:
    """Tables for _parse_tokens, indexed by n = min(token length after its sign, 23).

    A token of the kernel is "0." and L = n - 2 digits, 1 <= L <= 20, so it fills
    the last n of the 32 bytes that end it: four little-endian words, a word's last
    byte its most significant (the first word is never kept: 32 bytes, not 24, as
    NumPy's take copies 32-byte rows some three times as fast).  For each n, three
    rows of four words, stacked as (3, 24, 4) so that one take gives each as a
    contiguous (k, 4) array: the masks that keep those n bytes; the text XORed with
    them so that "0." and the digits read as digit values; the limits added to them,
    which carry into a byte's top bit where a digit exceeds 9, or where a byte that
    must be 0 is not ("0.", and the digits before the last 17, so that the digits
    M < 10**17).  Then 5**L and 2**-L; and, at 24 z + n, 10**(17 + z - L) where that
    is a power up to 10**17, which turns the digits of a token with z zeros after "0."
    into the 17 of _significant_digits (else 0, which no 17 digits equal).  Other n
    keep nothing and set a top bit.
    """
    lengths = [n - 2 if 3 <= n <= 22 else 0 for n in range(24)]
    masks, zeros, limits = [], [], []
    for n, L in enumerate(lengths):
        kept = 32 - n if L else 32
        zeros.append(bytes(kept) + b"0." + b"0" * L if L else bytes(32))
        masks.append(bytes(kept) + b"\xff" * (32 - kept))
        # Byte j from the end (j = 1 is the last) is a digit for j <= L.
        limit = bytes(0x76 if j <= min(L, 17) else 0x7F if j <= L + 2 else 0
                      for j in range(32, 0, -1))
        limits.append(limit if L else bytes(31) + b"\x80")
    scales = [10 ** (17 + z - L) if L and 0 <= 17 + z - L <= 17 else 0
              for z in range(4) for L in lengths]
    return (np.frombuffer(b"".join(masks + zeros + limits), dtype="<u8").reshape(3, 24, 4),
            np.array([5 ** L for L in lengths]), np.array([2.0 ** -L for L in lengths]),
            np.array(scales))


_WORDS_BY_LENGTH, _POWER5, _POWER2, _DIGIT_SCALES = _length_tables()
_TOP_BITS = np.uint64(0x8080808080808080)
# Eight digit bytes (first digit lowest) to their value in three multiply-shifts
# (Lemire, "Fast parsing of 8-digit integers", 2018).
_SWAR_STEPS = tuple((np.uint64(factor), np.uint64(shift), np.uint64(mask))
                    for factor, shift, mask in ((2561, 8, 0x00FF00FF00FF00FF),
                                                (6553601, 16, 0x0000FFFF0000FFFF),
                                                (42949672960001, 32, 0xFFFFFFFFFFFFFFFF)))
_EIGHT_DIGITS = np.uint64(10 ** 8)


def _token_digits(windows: np.ndarray, ends: np.ndarray, n: np.ndarray, scratch: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """For each token that ends before ``ends`` and has ``n`` bytes after its sign:
    whether it is other than "0." and 1 to 20 digits, all 0 but the last 17, and its
    digits M as an int64 (0 for the other tokens), as views of the last two rows of
    ``scratch``, a C-contiguous (14, ends.size) uint64 array it overwrites.
    windows[e] is the 32 bytes that end before e, a stride-1 "V32" view of the text;
    they are read as four words."""
    k = ends.size
    w = windows[ends].view("<u8").reshape(k, 4)
    masks, zeros, flags = np.take(_WORDS_BY_LENGTH, n, axis=1,
                                  out=scratch[:12].reshape(3, k, 4), mode="clip")
    m, bad = scratch[12], scratch[13].view(np.bool_)[:k]
    w &= masks
    w ^= zeros
    flags += w
    flags |= w
    np.bitwise_or(flags[:, 1], flags[:, 2], out=m)
    m |= flags[:, 3]
    m &= _TOP_BITS
    np.copyto(bad, m, casting="unsafe")
    for factor, shift, mask in _SWAR_STEPS:
        w *= factor
        w >>= shift
        w &= mask
    np.multiply(w[:, 1], _EIGHT_DIGITS, out=m)
    m += w[:, 2]
    m *= _EIGHT_DIGITS
    m += w[:, 3]
    np.copyto(m, 0, where=bad)
    return bad, m.view(np.int64)


def _parse_tokens(windows: np.ndarray, body: np.ndarray, separators: np.ndarray,
                  out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Write to ``out`` the value of each token of ``body`` between consecutive
    ``separators`` of the form _format_rows writes for |x| in [1e-4, 1), and return
    the indices of the other tokens, whose values it leaves undefined.  ``windows``
    is as for _token_digits, ``scratch`` a C-contiguous (_SCRATCH_ROWS, out.size)
    uint64 array it overwrites.

    The candidate for the digits M of "-0.ddd" (L of them) is (q + r / 5**L) 2**-L,
    q, r = divmod(M, 5**L), within an ulp or so of M / 10**L.  It is kept only where
    _significant_digits gives it the token's own decade and 17 digits: a %.17g
    string lies within half an ulp of its double, so the candidate is then float()
    of the token.  Integers are tested by a cast to bool, not by comparisons: the
    NumPy integer comparison kernels run nowhere else in a re-analysis, and their
    code pages would add to its peak resident memory.
    """
    # Scratch rows: 0 the starts, 1 n, 2 the sign and test flags, then _token_digits's (m
    # and bad its last two); once it returns, rows 3 to 9 are reused.
    k, ends = out.size, separators[1:]
    ints, floats = scratch.view(np.int64), scratch.view(np.float64)
    starts, n = np.add(separators[:-1], 1, out=ints[0]), ints[1]
    sign, test = scratch[2].view(np.bool_)[:k], scratch[2].view(np.bool_)[k:2 * k]
    np.equal(np.take(body, starts, out=sign.view(np.uint8), mode="clip"), ord("-"), out=sign)
    np.subtract(ends, starts, out=n)
    n -= sign
    np.minimum(n, 23, out=n)
    bad, m = _token_digits(windows, ends, n, scratch[3:])
    power5, q, r = ints[3], ints[4], ints[5]
    np.divmod(m, np.take(_POWER5, n, out=power5, mode="clip"), out=(q, r))
    np.divide(r, power5, out=out)
    out += q
    out *= np.take(_POWER2, n, out=floats[3], mode="clip")
    z, d = _significant_digits(out, floats[3:10])
    bad |= np.less(out, 1e-4, out=test)  # else d does not hold 17 digits
    z *= 24
    z += n
    d -= np.multiply(np.take(_DIGIT_SCALES, z, out=ints[4], mode="clip"), m, out=ints[4])
    np.copyto(test, d, casting="unsafe")
    bad |= test
    out *= np.subtract(1.0, np.multiply(sign, 2.0, out=floats[5]), out=floats[5])
    return np.flatnonzero(bad)


def _read_rows(fh: BinaryIO, path: Path, first_line: int, n_events: int) -> np.ndarray:
    """The (n_events, 6) rows of an events body read from ``fh``; ``first_line`` is
    the number of its first line in the file.  The body is six tokens per line,
    separated by single spaces, each line ended by a newline.

    The body is read _READ_BYTES at a time into one buffer and parsed through the
    last newline of each read, _ROUND_TOKENS tokens a round, in whole-array steps on
    one workspace allocated here: every per-token array of a round is a view of it,
    but for the separators' offsets (np.flatnonzero) and the 32 bytes that end each
    token (a fancy index: np.take would copy the whole stride-1 window view first).
    So a load holds its rows and about twelve times _READ_BYTES of scratch, whatever
    the file's size.  Tokens outside the form _parse_tokens takes go to float()."""
    data = np.empty((n_events, 6))
    values = data.reshape(-1)
    raw = bytearray(b"0" * (_PAD - 1) + b" " + bytes(_READ_BYTES + 1))
    buf = np.frombuffer(raw, dtype=np.uint8)
    windows = np.ndarray((buf.size - 31,), dtype="V32", buffer=buf, strides=(1,))
    body = buf[_PAD - 1:]  # body[0] is the space before the first token
    scratch = np.empty(_SCRATCH_ROWS * _ROUND_TOKENS, dtype=np.uint64)
    rows = rest = 0
    while size := rest + fh.readinto(memoryview(raw)[_PAD + rest:_PAD + _READ_BYTES]):
        cut = raw.rfind(b"\n", _PAD, _PAD + size) - (_PAD - 1)  # in body
        if cut < 0:
            raise ValueError(f"{path}: line {first_line + rows}: no newline "
                             f"after {size} bytes")
        separators = np.flatnonzero(np.less_equal(body[:cut + 1], 32,
                                                  out=scratch.view(np.bool_)[:cut + 1]))
        tokens = separators.size - 1
        kinds = np.take(body, separators[1:], out=scratch.view(np.uint8)[:tokens], mode="clip")
        if tokens % 6 or not np.equal(kinds.reshape(-1, 6), _LINE_SEPARATORS, out=scratch.view(
                np.bool_)[tokens:2 * tokens].reshape(-1, 6)).all():
            raise _malformed_line(path, body[1:cut + 1].tobytes(), first_line + rows)
        lines = tokens // 6
        if rows + lines > n_events:
            raise ValueError(f"{path}: expected {n_events} rows of 6 columns, got more")
        for low in range(0, tokens, _ROUND_TOKENS):
            out = values[6 * rows + low:6 * rows + min(low + _ROUND_TOKENS, tokens)]
            bounds = separators[low:low + out.size + 1]
            for k in _parse_tokens(windows, body, bounds, out, scratch[:_SCRATCH_ROWS * out.size]
                                   .reshape(_SCRATCH_ROWS, -1)).tolist():
                out[k] = _token_value(path, body[bounds[k] + 1:bounds[k + 1]].tobytes(),
                                      first_line + rows + (low + k) // 6)
        rows += lines
        rest = size - cut
        body[1:1 + rest] = body[1 + cut:1 + size]
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

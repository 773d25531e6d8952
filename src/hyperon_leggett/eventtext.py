"""Event rows as text: the exact "%.17g" writer and the reader that inverts it.

"%.17g" writes a direction component x with |x| in [1e-4, 1) as its sign, "0." and the 17
digits N_17 of floattext._rounded17 less their trailing zeros.  _format_rows lays each such
token out through floattext, which drops those zeros, in a _Workspace allocated once per
stream; the other values (0, +-1, the exponent form, non-finite) go to "%.17g" itself.
The reader reads the body _READ_BYTES at a time and parses the kernel's form in
whole-array operations on one scratch array allocated per load, proving each value
through the same kernel; it reads other tokens with float().
"""

import functools
from pathlib import Path
from types import SimpleNamespace
from typing import BinaryIO

import numpy as np

from .floattext import _lay_out, _rounded17, _store_slots

# The separator after each token of a row.
_SEPARATORS = b"     \n"


class _Workspace:
    """The scratch of _format_rows for up to ``rows`` rows, allocated once per stream."""

    def __init__(self, rows: int) -> None:
        self.scratch, self.slow = np.empty(48 * rows), np.empty(6 * rows, dtype=np.bool_)
        self.slots = np.empty((6 * rows, 3), dtype=np.uint64)
        self.text = np.empty(150 * rows + 24, dtype=np.uint8).data  # tokens take <= 25 bytes


def _format_rows(rows: np.ndarray, work: _Workspace) -> memoryview:
    """The bytes of ``"%.17g %.17g %.17g %.17g %.17g %.17g\\n" % row`` for each row of a (k, 6)
    float array, made in ``work``: a view of it that the next call overwrites."""
    x, n = rows.reshape(-1), rows.size
    scratch = work.scratch[:8 * n].reshape(8, n)
    ints = scratch.view(np.int64)
    a = np.fmin(np.abs(x, out=scratch[7]), 2.0, out=scratch[7])  # NaN and inf: 2
    decade, n17 = _rounded17(a, scratch[:7])[:2]
    slow = np.greater(decade.view(np.uint64), 3, out=work.slow[:n])  # |x| not in [1e-4, 1)
    lengths = _lay_out(x, a, n17, np.subtract(20, decade, out=decade), _SEPARATORS,
                       work.slots[:n], ints[1:6])
    slow = np.flatnonzero(slow)
    tokens = [b"%.17g%c" % (v, _SEPARATORS[k % 6])
              for k, v in zip(slow.tolist(), x[slow].tolist())]
    return _store_slots(work.slots[:n].view("V24").ravel(), lengths, slow, tokens, work.text,
                        ints[1])


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


@functools.cache
def _reader_tables() -> SimpleNamespace:
    """Tables for _parse_tokens, built on first use, indexed by n = min(token length after
    its sign, 23).

    A token of the kernel is "0." and L = n - 2 digits, 1 <= L <= 20, so it fills
    the last n of the 32 bytes that end it: four little-endian words, a word's last
    byte its most significant (the first word is never kept: 32 bytes, not 24, as
    NumPy's take copies 32-byte rows some three times as fast).  For each n, three
    rows of four words, stacked as (3, 24, 4) so that one take gives each as a
    contiguous (k, 4) array (``words``): the masks that keep those n bytes; the text
    XORed with them so that "0." and the digits read as digit values; the limits added
    to them, which carry into a byte's top bit where a digit exceeds 9, or where a byte
    that must be 0 is not ("0.", and the digits before the last 17, so that the digits
    M < 10**17).  Then 5**L (``power5``) and 2**-L (``power2``); and, at 24 (e + 4) + n
    for the decade e from -4 to 0 (``digit_scales``), 10**(16 - e - L) where e < 0 and
    that is a power up to 10**17, which turns the digits of a token in that decade into
    its N_17 (else 0, which no N_17 equals).  Other n keep nothing and set a top bit.
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
    scales = [10 ** (20 - d - L) if L and 0 <= 20 - d - L <= 17 else 0
              for d in range(4) for L in lengths]
    return SimpleNamespace(
        words=np.frombuffer(b"".join(masks + zeros + limits), dtype="<u8").reshape(3, 24, 4),
        power5=np.array([5 ** L for L in lengths]), power2=np.array([2.0 ** -L for L in lengths]),
        digit_scales=np.array(scales + [0] * 24))


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
    masks, zeros, flags = np.take(_reader_tables().words, n, axis=1,
                                  out=scratch[:12].reshape(3, k, 4), mode="clip")
    m, bad = scratch[12], scratch[13].view(np.bool_)[:k]
    w &= masks
    w ^= zeros
    flags += w
    flags |= w
    np.bitwise_or(flags[:, 1], flags[:, 2], out=m)
    m |= flags[:, 3]
    m &= 0x8080808080808080  # the top bits
    np.copyto(bad, m, casting="unsafe")
    # Eight digit bytes (first digit lowest) to their value in three multiply-shifts
    # (Lemire, "Fast parsing of 8-digit integers", 2018).
    for factor, shift, mask in ((2561, 8, 0x00FF00FF00FF00FF), (6553601, 16, 0x0000FFFF0000FFFF),
                                (42949672960001, 32, 0xFFFFFFFFFFFFFFFF)):
        w *= factor
        w >>= shift
        w &= mask
    np.multiply(w[:, 1], 10 ** 8, out=m)
    m += w[:, 2]
    m *= 10 ** 8
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
    _rounded17 gives it the token's own decade and 17 digits: a %.17g string lies
    within half an ulp of its double, so the candidate is then float() of the
    token.  Integers are tested by a cast to bool, not by comparisons: the NumPy
    integer comparison kernels run nowhere else in a re-analysis, and their code
    pages would add to its peak resident memory.  Each step is one ufunc of a
    single dtype (casts go through np.copyto), so none allocates a cast buffer.
    """
    # Scratch rows: 0 the starts, 1 n, 2 the sign and test flags, then _token_digits's (m
    # and bad its last two); once it returns, rows 3 to 9 are reused.
    tables = _reader_tables()
    k, ends = out.size, separators[1:]
    ints, floats = scratch.view(np.int64), scratch.view(np.float64)
    starts, n = np.add(separators[:-1], 1, out=ints[0]), ints[1]
    sign, test = scratch[2].view(np.bool_)[:k], scratch[2].view(np.bool_)[k:2 * k]
    np.equal(np.take(body, starts, out=sign.view(np.uint8), mode="clip"), ord("-"), out=sign)
    np.subtract(ends, starts, out=n)
    np.copyto(ints[3], sign)
    n -= ints[3]
    np.minimum(n, 23, out=n)
    bad, m = _token_digits(windows, ends, n, scratch[3:])
    power5, q, r = ints[3], ints[4], ints[5]
    np.divmod(m, np.take(tables.power5, n, out=power5, mode="clip"), out=(q, r))
    np.copyto(floats[6], r)
    np.copyto(floats[7], power5)
    np.divide(floats[6], floats[7], out=out)
    np.copyto(floats[6], q)
    out += floats[6]
    out *= np.take(tables.power2, n, out=floats[3], mode="clip")
    decade, d = _rounded17(out, floats[3:10])[:2]
    bad |= np.less(out, 1e-4, out=test)  # else d does not hold 17 digits
    decade *= 24
    decade += n
    d -= np.multiply(np.take(tables.digit_scales, decade, out=ints[4], mode="clip"), m,
                     out=ints[4])
    np.copyto(test, d, casting="unsafe")
    bad |= test
    np.copyto(floats[5], sign)
    out *= np.subtract(1.0, np.multiply(floats[5], 2.0, out=floats[5]), out=floats[5])
    return np.flatnonzero(bad)


def _read_rows(fh: BinaryIO, path: Path, first_line: int, n_events: int) -> np.ndarray:
    """The (n_events, 6) rows of an events body read from ``fh``; ``first_line`` is
    the number of its first line in the file.  The body is six tokens per line, each of
    bytes above 32, separated by single spaces, each line ended by a newline.

    The body is read _READ_BYTES at a time into one buffer and parsed through the
    last newline of each read, _ROUND_TOKENS tokens a round, in whole-array steps on
    one workspace allocated here: every per-token array of a round is a view of it,
    but for the separators' offsets (np.flatnonzero) and the 32 bytes that end each
    token (a fancy index: np.take would copy the whole stride-1 window view first).
    So a load holds its rows and about twelve times _READ_BYTES of scratch, whatever
    the file's size.  Tokens outside the form _parse_tokens takes go to float()."""
    values = np.empty(6 * n_events)
    raw = bytearray(b"0" * (_PAD - 1) + b" " + bytes(_READ_BYTES + 1))
    buf = np.frombuffer(raw, dtype=np.uint8)
    windows = np.ndarray((buf.size - 31,), dtype="V32", buffer=buf, strides=(1,))
    body = buf[_PAD - 1:]  # body[0] is the space before the first token
    scratch = np.empty(_SCRATCH_ROWS * _ROUND_TOKENS, dtype=np.uint64)
    line = np.frombuffer(_SEPARATORS, dtype=np.uint8)
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
        if tokens % 6 or not np.equal(kinds.reshape(-1, 6), line, out=scratch.view(
                np.bool_)[tokens:2 * tokens].reshape(-1, 6)).all():
            k, row = next((k, row) for k, row in enumerate(body[1:cut + 1].tobytes().split(b"\n"))
                          if len(cells := row.split(b" ")) != 6 or not all(
                              cell and min(cell) > 32 for cell in cells))
            raise ValueError(f"{path}: line {first_line + rows + k}: expected 6 numbers "
                             f"separated by single spaces, got {row!r}")
        lines = tokens // 6
        if rows + lines > n_events:
            raise ValueError(f"{path}: expected {n_events} rows of 6 columns, got more")
        for low in range(0, tokens, _ROUND_TOKENS):
            out = values[6 * rows + low:6 * rows + min(low + _ROUND_TOKENS, tokens)]
            bounds = separators[low:low + out.size + 1]
            for k in _parse_tokens(windows, body, bounds, out, scratch[:_SCRATCH_ROWS * out.size]
                                   .reshape(_SCRATCH_ROWS, -1)).tolist():
                token = body[bounds[k] + 1:bounds[k + 1]].tobytes()
                try:  # float() also takes "1_0", which np.loadtxt and this format do not
                    out[k] = float(token.replace(b"_", b"?"))
                except ValueError:
                    raise ValueError(f"{path}: line {first_line + rows + (low + k) // 6}: "
                                     f"not a number: {token!r}") from None
        rows += lines
        rest = size - cut
        body[1:1 + rest] = body[1 + cut:1 + size]
    if rows != n_events:
        raise ValueError(f"{path}: expected {n_events} rows of 6 columns, got ({rows}, 6)")
    return values.reshape(n_events, 6)

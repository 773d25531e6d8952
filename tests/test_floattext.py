"""The scan CSV writer's memory: the float kernel works in its caller's scratch, and a
block's passes share one workspace."""

import math
import tracemalloc

import numpy as np
import pytest

from hyperon_leggett import floattext
from hyperon_leggett.floattext import Texts, _shortest_floats, format_block
from hyperon_leggett.inequalities import leggett_max_lhs
from hyperon_leggett.quantum import _BLOCK_ROWS


def scan_phi_block() -> tuple:
    """A 4096-row block shaped like scan-phi's: four float columns, a constant text, and
    the flags."""
    phis = np.linspace(math.radians(0.1), math.pi, _BLOCK_ROWS)
    lhs = 2.0 + 0.3 * np.sin(7.0 * phis)
    return np.degrees(phis), phis, lhs, (Texts([b"%r," % 2.0]), 0), lhs - 2.0, lhs > 2.0


def traced_peak(function) -> int:
    tracemalloc.start()
    try:
        function()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_allocates_no_array():
    # Every step writes a row of the scratch or of the slots in one dtype; only the
    # indices of the values left to repr are allocated.
    degrees, phis, lhs, _, margin, _ = scan_phi_block()
    x = np.stack([degrees, phis, lhs, margin], axis=1)[:1024].ravel()
    out, scratch = np.empty((x.size, 3), dtype=np.uint64), np.empty((8, x.size))
    _shortest_floats(x, b",,,\n", out, scratch)  # builds the tables
    result = []
    peak = traced_peak(lambda: result.extend(_shortest_floats(x, b",,,\n", out, scratch)))
    assert x.size == 4096 and peak < 4096
    lengths, slow = result
    slots, values = out.view("S24")[:, 0].tolist(), x.tolist()  # "S24" drops the NUL padding
    kept = sorted(set(range(x.size)) - set(slow.tolist()))
    assert len(kept) > 4000
    assert [slots[k][:lengths[k]] for k in kept] == [b"%r%c" % (values[k], b",,,\n"[k % 4])
                                                      for k in kept]


def test_scan_phi_block_peaks_below_the_per_column_writer():
    # The per-column writer, 1024 rows a call with the kernel's temporaries, peaked at
    # 436 KiB on this block; the passes' one workspace takes 384 KiB.
    block = scan_phi_block()
    for _ in format_block(block):  # builds the tables
        pass
    texts = []
    peak = traced_peak(lambda: texts.extend(len(text) for text in format_block(block)))
    assert len(texts) == _BLOCK_ROWS // 1024
    assert peak <= 436 * 1024


def test_texts_longer_than_their_slot_are_refused():
    # A text fills at most its 24-byte slot; the scans' longest, a 23-character repr and
    # its comma, fits.
    with pytest.raises(ValueError, match="longer than its 24-byte slot: b'x{25}'"):
        Texts([b"x" * 25])
    with pytest.raises(ValueError, match="-2.2250738585072014e-308,"):
        Texts([b"0.5,", b"-2.2250738585072014e-308,"])
    fitting = Texts([b"2.2250738585072014e-308,", b"0.5,"])
    assert fitting.lengths.tolist() == [24, 4]


def test_texts_under_15_digits_are_laid_out():
    # repr drops the trailing zeros of N_15 but keeps a digit after the point; none of
    # these values is left to repr, whatever its length, sign or separator.
    values = [0.123456789012, 2.25, 0.5, 123.5, 0.0042117413776369, 100.0, 2.0, 0.0001,
              0.0001220703125, 512.0, 0.1, 999.5, 12.0, 0.30000000000000004, 5e-4, 7.25]
    x = np.array(values + [-v for v in values])
    out, scratch = np.empty((x.size, 3), dtype=np.uint64), np.empty((8, x.size))
    lengths, slow = _shortest_floats(x, b",\n", out, scratch)
    assert slow.tolist() == []
    slots = out.view("S24")[:, 0].tolist()
    assert [slot[:n] for slot, n in zip(slots, lengths.tolist())] == [
        b"%r%c" % (v, b",\n"[k % 2]) for k, v in enumerate(x.tolist())]


def scan_region_block() -> tuple:
    """A 4096-row block shaped like scan-region's: two indexed grid texts, the lhs, and
    the flags."""
    grid = np.linspace(0.0, 1.0, 301)
    texts = Texts([b"%r," % v for v in grid.tolist()])
    i, j = np.divmod(np.arange(5 * _BLOCK_ROWS, 6 * _BLOCK_ROWS), grid.size)
    lhs = leggett_max_lhs(grid[i], grid[j])
    return (texts, i), (texts, j), lhs, lhs > 2.0


def test_scan_region_block_is_one_kernel_call(monkeypatch):
    # The block's 4096 lhs values go through the kernel at once, and its 16384 cells are
    # stored in two passes of 2048 rows.  One pass of 4096 rows would take a 1 MiB
    # workspace (64 bytes a cell); this one takes 672 KiB.
    block = scan_region_block()
    expected = b"".join(bytes(text) for text in format_block(block))  # builds the tables
    calls, kernel = [], floattext._shortest_floats
    monkeypatch.setattr(floattext, "_shortest_floats",
                        lambda x, *args: calls.append(x.size) or kernel(x, *args))
    texts = []
    peak = traced_peak(lambda: texts.extend(len(text) for text in format_block(block)))
    assert calls == [_BLOCK_ROWS] and len(texts) == 2
    assert peak <= 720 * 1024
    assert b"".join(bytes(text) for text in format_block(block)) == expected
    assert expected.count(b"\n") == _BLOCK_ROWS

"""The scan CSV writer's memory: the float kernel works in its caller's scratch, and a
block's passes share one workspace."""

import math
import tracemalloc

import numpy as np

from hyperon_leggett.floattext import Texts, _shortest_floats, format_block
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


def test_texts_longer_than_their_room_get_a_buffer_of_their_own():
    # The workspace holds 24 bytes a cell of text; a column of longer texts outgrows it.
    wide = b"%s," % (b"9" * 60)
    x = np.arange(3000, dtype=float)
    text = b"".join(bytes(text) for text in format_block([(Texts([wide]), 0), x]))
    assert text == b"".join(b"%s%r\n" % (wide, v) for v in x.tolist())

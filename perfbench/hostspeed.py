"""Host-speed reference for the remag benchmark.

The benchmark runs on a few cores of a shared host whose speed drifts by
±20% over seconds to minutes, and the drift moves every op of a run
together.  The load generator therefore times a fixed slice of reference
work between the program's ops and reports each timing scaled to the speed
at which the slice takes REFERENCE_S.  The slice is benchmark code: a change to remag
cannot make it faster or slower, so the scaled figures move only with the
program.

The slice mirrors the kinds of work the workloads spend their time in:
interpreter-bound Python (CLI glue, config parsing, the scalar loops in
sensing), a Python loop over small numpy arrays (the SU(2) kernel at small
batch sizes), strided column reads of an array larger than L2 (the kernel
reads one column of a `(chunk, n_steps)` path array per step) and
transcendental functions over 2048-element arrays (the kernel at the
default chunk).  It needs numpy, so it is only run after the timed import
of remag.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.040        # slice duration the scaled times are expressed at
INTERP_ITERS = 300_000
ARRAY_STEPS = 3_000
COLUMN_PASSES = 2
VECTOR_STEPS = 200
# Every array the slice touches is made here, once, and the slice writes
# only into them: allocating between the program's ops would move where
# the program's own arrays land in the heap, and with it peak RSS.
_B = np.full((64, 2), 0.5 - 0.25j)     # |B| < 1 and a constant term keep the
_C = np.full((64, 2), 1.0 + 0.0j)      # iterate bounded and away from zero
_a = np.empty((64, 2), dtype=complex)
_M = np.ones((512, 1024))              # 4 MiB: past L2, inside L3
_col = np.empty(512)
_x, _s, _c = np.empty(2048), np.empty(2048), np.empty(2048)


def slice_s() -> float:
    """Seconds taken by one reference slice (40 to 65 ms on a Xeon vCPU)."""
    start = time.perf_counter()
    acc = 0
    for i in range(INTERP_ITERS):
        acc += i * i
    _a.fill(1.0 + 0.5j)
    for _ in range(ARRAY_STEPS):
        np.multiply(_a, _B, out=_a)
        np.add(_a, _C, out=_a)
        np.conjugate(_a, out=_a)
    m = 0.0
    for _ in range(COLUMN_PASSES):
        for k in range(_M.shape[1]):
            np.multiply(_M[:, k], 1.5, out=_col)
            m += float(_col.sum())
    _x.fill(0.3)
    for _ in range(VECTOR_STEPS):
        np.sin(_x, out=_s)
        np.cos(_x, out=_c)
        np.hypot(_c, _s, out=_x)           # 1
        np.multiply(_x, 0.3, out=_x)
        np.multiply(_s, 0.01, out=_c)
        np.add(_x, _c, out=_x)
    elapsed = time.perf_counter() - start
    if (acc <= 0 or not np.isfinite(_a).all() or not np.isfinite(_x).all()
            or m != 1.5 * COLUMN_PASSES * _M.size):
        raise RuntimeError("reference slice computed a wrong result")
    return elapsed


def median_slice_s(repeats: int = 3) -> float:
    return statistics.median(slice_s() for _ in range(repeats))


def scale(seconds: float, slice_seconds: float) -> float:
    """`seconds` as they would read at the reference speed."""
    return seconds * REFERENCE_S / slice_seconds

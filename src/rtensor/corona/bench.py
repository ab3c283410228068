"""Wall-time and tracemalloc peak-byte measurements for the demo's kernels.

For each image format the benchmark times the SSE alone, the SSE with its
gradient, and the Hessian-multiply at two pages on a state built outside the
timer, as each CG step pays it.  Each repetition times the three in turn, and
each reports the median of its own times.  It then makes one more, untimed
call of each under ``tracemalloc`` and records how far traced memory rose
above its level before the call.  Tracing is off while the clock runs.
Absolute numbers are environment-specific; the interesting outputs are the
ratios between the operations and how the bytes scale with the pixel count.
"""

from __future__ import annotations

import csv
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from ..errors import BoundsError
from .model import hess_mult_cached, sse, state_at
from .scene import SceneConfig, make_instance

__all__ = ["BenchRow", "benchmark", "write_bench_csv"]


@dataclass(frozen=True)
class BenchRow:
    m: int
    n: int
    op: str
    secs: float
    bytes: int


def _median_times(ops, reps):
    """Each op's median wall time over ``reps`` rounds; a round times every
    op in turn, so drift in the machine's speed falls on all of them alike."""
    times = {op: [] for op in ops}
    for _ in range(reps):
        for op, fn in ops.items():
            t0 = time.perf_counter()
            fn()
            times[op].append(time.perf_counter() - t0)
    return {op: float(np.median(t)) for op, t in times.items()}


def _peak_bytes(fn):
    """Rise of traced memory over its baseline during one call of ``fn``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def benchmark(sizes, reps=3) -> list[BenchRow]:
    """Measure sse, sse+gradient, and hess_mult_cached(P=2) on the demo scene
    (``make_instance``, seed 0) of each square size."""
    if reps < 1:
        raise BoundsError(f"reps must be at least 1, got {reps}")
    rows = []
    for m in sizes:
        inst = make_instance(SceneConfig(size=m))
        xa, wb = inst.aberrated, inst.mask
        phi = np.zeros((m, m))
        rng = np.random.default_rng(0)
        dphi = rng.uniform(-0.1, 0.1, (m, m, 2))
        state = state_at(phi, xa, wb)

        ops = {
            "sse": lambda: sse(phi, xa, wb),
            "sse_grad": lambda: sse(phi, xa, wb, want_gradient=True),
            "hmf": lambda: hess_mult_cached(state, dphi),
        }
        secs = _median_times(ops, reps)
        rows += [BenchRow(m, m, op, secs[op], _peak_bytes(fn)) for op, fn in ops.items()]
    return rows


def write_bench_csv(rows, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["M", "N", "op", "secs", "bytes"])
        for r in rows:
            writer.writerow([r.m, r.n, r.op, f"{r.secs:.9f}", r.bytes])

"""Wall-time and tracemalloc peak-byte measurements for the demo's kernels.

For each image format the benchmark times the SSE alone, the SSE with its
gradient, and the Hessian-multiply at two pages, then makes one more,
untimed call of each under ``tracemalloc`` and records how far traced memory
rose above its level before the call.  Tracing is off while the clock runs.
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
from .fourier import fft2, ifft2
from .model import hess_mult, sse
from .scene import _R_IN_FRAC, _R_OUT_FRAC, make_aberration, make_ground_truth, make_source

__all__ = ["BenchRow", "benchmark", "write_bench_csv"]


@dataclass(frozen=True)
class BenchRow:
    m: int
    n: int
    op: str
    secs: float
    bytes: int


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


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
    """Measure sse, sse+gradient, and hess_mult(P=2) at each (M, N) format."""
    if reps < 1:
        raise BoundsError(f"reps must be at least 1, got {reps}")
    rows = []
    for m, n in sizes:
        source = make_source(m, n)
        gt, wb = make_ground_truth(source, _R_IN_FRAC * min(m, n), _R_OUT_FRAC * min(m, n))
        phi_true = make_aberration(m, n)
        xa = np.real(ifft2(fft2(gt) * np.exp(1j * phi_true)))
        phi = np.zeros((m, n))
        rng = np.random.default_rng(0)
        dphi = rng.uniform(-0.1, 0.1, (m, n, 2))
        _, _, xt = sse(phi, xa, wb)

        ops = {
            "sse": lambda: sse(phi, xa, wb),
            "sse_grad": lambda: sse(phi, xa, wb, want_gradient=True),
            "hmf": lambda: hess_mult(xt, dphi, wb),
        }
        secs = {op: _median_time(fn, reps) for op, fn in ops.items()}
        rows += [BenchRow(m, n, op, secs[op], _peak_bytes(fn)) for op, fn in ops.items()]
    return rows


def write_bench_csv(rows, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["M", "N", "op", "secs", "bytes"])
        for r in rows:
            writer.writerow([r.m, r.n, r.op, f"{r.secs:.9f}", r.bytes])

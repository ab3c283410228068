#!/usr/bin/env python3
"""Re-measure the three baseline figures ROADMAP item 1 quotes.

    python3 perfbench/roadmap_figures.py

* the small product ``2x2x3x4 * 2x2x4x3`` against ``np.einsum`` (51 us, 6.0x);
* acceptance criterion 10: engine product over a pagewise ``np.matmul`` whose
  timing includes the fold copies, at 100x100xP (0.97-1.06x);
* a 200-iteration solve of the seed-0 64x64 scene (11.6 s).

These are not benchmark metrics; they put the benchmark's first numbers
beside the figures measured before it existed.  Prints one JSON object.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import pin_blas_threads  # noqa: E402

pin_blas_threads()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from rtensor import fresh_many, product, with_indices  # noqa: E402
from rtensor.corona import SceneConfig, TrustRegionOptions, make_instance, optimize  # noqa: E402

from engine_workloads import _median_call as median_call  # noqa: E402


def main():
    rng = np.random.default_rng(0)
    i, j, k = fresh_many(3)
    a, b = rng.uniform(size=(2, 2, 3, 4)), rng.uniform(size=(2, 2, 4, 3))
    ta, tb = with_indices(a, [i, ~j]), with_indices(b, [j, k])
    small = median_call(lambda: product(ta, tb), 9, 2000)
    einsum = median_call(lambda: np.einsum("xyij,yzjk->xzik", a, b), 9, 2000)

    criterion_10 = {}
    for pages in (64, 128):
        x, y = rng.standard_normal((100, 100, pages)), rng.standard_normal((100, 100, pages))
        p = fresh_many(1)[0]
        tx, ty = with_indices(x, [p]), with_indices(y, [p])

        def raw():
            return np.matmul(np.ascontiguousarray(x.transpose(2, 0, 1)), np.ascontiguousarray(y.transpose(2, 0, 1)))

        criterion_10[pages] = median_call(lambda: product(tx, ty), 9, 1) / median_call(raw, 9, 1)

    inst = make_instance(SceneConfig(size=64, seed=0))
    t0 = time.perf_counter()
    report = optimize(inst.aberrated, inst.mask, TrustRegionOptions(max_iter=200))
    solve_s = time.perf_counter() - t0

    print(json.dumps({
        "small_product_us": small * 1e6,
        "small_einsum_us": einsum * 1e6,
        "small_over_einsum": small / einsum,
        "criterion_10_ratio": criterion_10,
        "solve_64_s": solve_s,
        "solve_64_iterations": report.iterations,
        "solve_64_stop": report.stop_reason,
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark of the rtensor package: one workload, one seed, one run.

    python3 perfbench/run.py --workload engine-small --seed 1 --seconds 20 --trace 0

Run from a source checkout (the package is imported from ``src/``, the DSL
statements of ``scripts/golden.rts`` are read as inputs).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The line before it records the machine, the
versions, the seed and details of the run.  Workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Run the BLAS on one thread, whatever the environment says; must run
    before numpy is imported.

    On a small shared machine a multi-threaded BLAS spin-waits whenever
    another process holds a core, which made runs up to 10x slower; one
    thread keeps the kernels' figures comparable between runs.
    """
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"


def workload_names() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def _blas_threads():
    """Threads the loaded OpenBLAS reports, read through its own API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine(seed: int, workload: str) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = _blas_threads()
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "blas_threads_env": {v: os.environ.get(v) for v in _BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    missing = [p for p in (SRC / "rtensor" / "__init__.py", ROOT / "scripts" / "golden.rts") if not p.is_file()]
    if missing:
        print(f"error: not a source checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    pin_blas_threads()
    sys.path[:0] = [str(HERE), str(SRC)]
    import bench

    context = machine(args.seed, args.workload)
    if context["blas_threads"] is not None and context["blas_threads"] > context["nproc"]:
        print(f"error: BLAS runs {context['blas_threads']} threads on {context['nproc']} cores", file=sys.stderr)
        return 3
    result, detail = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC)
    print(json.dumps({"context": context, "run": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

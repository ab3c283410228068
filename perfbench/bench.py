"""The runner: set-up, one checking pass, timed phases and the metrics.

A run is a closed loop with one client in one process: each operation
starts when the previous one has returned.  Operations repeat in whole
cycles of the workload's ``ops`` until the phase's seconds have passed.

* set-up: ``setup_s`` is the median over ``SETUP_REPEATS`` fresh interpreters
  of imports plus input generation (interpreter start-up excluded).
* checking pass: one cycle, untimed, under ``tracemalloc``; every output is
  compared in full with its reference, and ``peak_mb`` is the largest rise of
  traced memory during one operation.  It also lets caches fill.
* ``--trace 0``: one timed phase with tracing off; outputs are checked
  between operations, outside the timed region.
* ``--trace 1``: untraced and traced cycles alternate for the seconds, then
  the per-layer figures come from the traced cycles.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

from corona_workloads import CoronaPrime, CoronaSolve
from engine_workloads import EngineLarge, EngineSmall
from tracer import Tracer

WORKLOADS = {w.name: w for w in (EngineSmall, EngineLarge, CoronaSolve, CoronaPrime)}
SETUP_REPEATS = 3
HERE = Path(__file__).resolve().parent

_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{here!r}, {src!r}]
import bench
bench.WORKLOADS[{name!r}]({seed}, {tiny})
print(time.perf_counter() - t0)
"""


def setup_seconds(name: str, seed: int, tiny: bool, src: Path) -> list[float]:
    """Imports plus input generation, timed in fresh interpreters."""
    code = _PROBE.format(here=str(HERE), src=str(src), name=name, seed=seed, tiny=tiny)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=150, check=False
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _attempt(op, run_op):
    """Run one op; returns ``(seconds, output or None, exception or None)``."""
    t0 = time.perf_counter()
    try:
        out = run_op(op.run)
    except Exception as exc:  # a raised error is a failed operation, not a crash
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


def _checked(op, out, exc, full, failures):
    if exc is None:
        try:
            if op.check(out, full):
                return True
        except Exception as check_exc:  # a result the check cannot read is wrong
            exc = check_exc
    what = f"{op.kind} {op.extra['text']}" if "text" in op.extra else op.kind
    failures.append(f"{what}: {exc!r}" if exc is not None else f"{what}: wrong result")
    return False


def checking_pass(wl):
    """One untimed cycle under tracemalloc; full checks; per-op peak bytes."""
    failures: list[str] = []
    peaks = []
    wl.begin_cycle()
    tracemalloc.start()
    try:
        for op in wl.ops:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, out, exc = _attempt(op, lambda fn: fn())
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            if _checked(op, out, exc, True, failures):
                wl.pass_stats(op, out)
            del out
    finally:
        tracemalloc.stop()
    return {"attempted": len(wl.ops), "failures": failures, "peaks": peaks}


def _run_cycle(wl, run_op, acc):
    """One cycle; each op is timed alone and checked after its clock stops."""
    wl.begin_cycle()
    for k, op in enumerate(wl.ops):
        dt, out, exc = _attempt(op, run_op)
        acc["lat"].append(dt)
        acc["which"].append(k)
        _checked(op, out, exc, False, acc["failures"])
        del out


def _summary(acc):
    lat = np.array(acc["lat"])
    return {"lat": lat, "which": np.array(acc["which"]), "failures": acc["failures"],
            "ops_per_s": len(lat) / float(lat.sum())}


def timed_phase(wl, seconds: float, tracer: Tracer | None = None):
    """Whole cycles until ``seconds`` have passed.

    Whole cycles keep every op's share of the samples fixed, so the median
    of a mixed cycle does not move with where the time ran out.  With a
    tracer, untraced and traced cycles alternate, so both see the same
    drift in machine speed; returns ``(untraced, traced or None)``.
    """
    plain = {"lat": array("d"), "which": array("i"), "failures": []}
    traced = {"lat": array("d"), "which": array("i"), "failures": []}
    gc.collect()
    deadline = time.perf_counter() + seconds
    while not plain["lat"] or time.perf_counter() < deadline:
        _run_cycle(wl, lambda fn: fn(), plain)
        if tracer is not None:
            tracer.install(_targets(tracer))
            try:
                _run_cycle(wl, tracer.op, traced)
            finally:
                tracer.uninstall()
    return _summary(plain), (_summary(traced) if tracer is not None else None)


def _targets(tr: Tracer):
    import rtensor.corona.fourier as fourier
    import rtensor.corona.model as model
    import rtensor.corona.scene as scene
    from rtensor import dsl, ewise, lattice, pagewise
    from rtensor.tensor import Tensor

    from corona_workloads import optimize

    def span(name, measure=None):
        return lambda fn: tr.wrap(name, fn, measure)

    return [
        (dsl, "parse", span("dsl.parse")),
        (dsl, "evaluate", span("dsl.evaluate")),
        (Tensor, "__init__", lambda fn: tr.wrap_count("tensor.Tensor", fn)),
        (Tensor, "simplify", span("tensor.simplify")),
        (ewise, "alignn", span("ewise.alignn")),
        (ewise, "ewise_binary", span("ewise.ewise_binary")),
        (lattice, "align2", span("lattice.align2")),
        (lattice, "product", span("lattice.product")),
        (lattice, "solve_left", span("lattice.solve")),
        (lattice, "solve_right", span("lattice.solve")),
        *[(pagewise, fn, span("pagewise")) for fn in pagewise.__all__],
        (fourier, "fft2", span("fourier.fft2", measure=lambda x: np.size(x))),
        (fourier, "ifft2", span("fourier.ifft2")),
        (model, "sse", span("model.sse")),
        (model, "state_at", span("model.state_at")),
        (model, "hess_mult", span("model.hess_mult")),
        (model, "hess_mult_cached", span("model.hess_mult_cached")),
        (optimize, "optimize", span("optimize")),
        (scene, "make_instance", span("scene.make_instance")),
    ]


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: shows drift in machine speed
    between runs (reported in the context line, never used in a metric)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _tail(lat: np.ndarray, percentile: float):
    value = float(np.percentile(lat, percentile))
    return value, int(np.sum(lat > value))


def end_to_end(wl, setups, check, timed):
    lat = timed["lat"]
    tail, beyond = _tail(lat, wl.tail_percentile)
    attempted = check["attempted"] + len(lat)
    failed = len(check["failures"]) + len(timed["failures"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (timed["ops_per_s"], "1/s"),
        "op_p50_ms": (float(np.median(lat)) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_mb": (max(check["peaks"]) / 1e6, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    detail = {
        "samples": len(lat),
        "tail_percentile": wl.tail_percentile,
        "samples_beyond_tail": beyond,
        "failed_frac": failed / attempted,
        "setup_runs_s": setups,
    }
    return metrics, attempted, failed, detail


def per_layer(wl, setup_totals, check, untraced, traced, tr: Tracer):
    totals, uncovered = tr.layer_totals()
    n = len(traced["lat"])

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / n

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / n

    flops = np.array([wl.ops[k].flops for k in untraced["which"]])
    kernel = flops > 0
    sized = [(p, op.operand_bytes) for p, op in zip(check["peaks"], wl.ops) if op.operand_bytes]
    fft_points = tr.work.get("fourier.fft2", 0.0)
    fft_time = totals.get("fourier.fft2", (0, 0.0, 0.0))[2]
    extra = {
        "lattice.product_over_matmul": 0.0,
        "lattice.solve_over_linalg": 0.0,
        "optimize.cg_iters": 0.0,
        "optimize.outer_iters": 0.0,
        "optimize.accept_ratio": 0.0,
    }
    extra.update(wl.layer_metrics())
    per_op = "count/op"
    metrics = {
        "dsl.parse.calls": (calls("dsl.parse"), per_op),
        "dsl.parse.self_s": (self_s("dsl.parse"), "s/op"),
        "dsl.evaluate.self_s": (self_s("dsl.evaluate"), "s/op"),
        "tensor.Tensor.calls": (tr.counts.get("tensor.Tensor", 0) / n, per_op),
        "tensor.simplify.calls": (calls("tensor.simplify"), per_op),
        "tensor.simplify.self_s": (self_s("tensor.simplify"), "s/op"),
        "ewise.alignn.calls": (calls("ewise.alignn"), per_op),
        "ewise.alignn.self_s": (self_s("ewise.alignn"), "s/op"),
        "ewise.ewise_binary.self_s": (self_s("ewise.ewise_binary"), "s/op"),
        "lattice.align2.calls": (calls("lattice.align2"), per_op),
        "lattice.align2.self_s": (self_s("lattice.align2"), "s/op"),
        "lattice.product.self_s": (self_s("lattice.product"), "s/op"),
        "lattice.solve.self_s": (self_s("lattice.solve"), "s/op"),
        "pagewise.self_s": (self_s("pagewise"), "s/op"),
        "lattice.product_over_matmul": (extra["lattice.product_over_matmul"], "ratio"),
        "lattice.solve_over_linalg": (extra["lattice.solve_over_linalg"], "ratio"),
        "lattice.peak_over_operand": (max((p / b for p, b in sized), default=0.0), "ratio"),
        "lattice.gflop_per_s": (
            float(flops[kernel].sum() / untraced["lat"][kernel].sum() / 1e9) if kernel.any() else 0.0,
            "Gflop/s-computed",
        ),
        "fourier.fft2.calls": (calls("fourier.fft2"), per_op),
        "fourier.fft2.self_s": (self_s("fourier.fft2"), "s/op"),
        "fourier.ifft2.calls": (calls("fourier.ifft2"), per_op),
        "fourier.ifft2.self_s": (self_s("fourier.ifft2"), "s/op"),
        "fourier.points_per_s": (fft_points / fft_time if fft_time else 0.0, "pts/s-computed"),
        "model.state_at.calls": (calls("model.state_at"), per_op),
        "model.state_at.self_s": (self_s("model.state_at"), "s/op"),
        "model.hess_mult_cached.calls": (calls("model.hess_mult_cached"), per_op),
        "model.hess_mult_cached.self_s": (self_s("model.hess_mult_cached"), "s/op"),
        "model.sse.self_s": (self_s("model.sse"), "s/op"),
        "model.hess_mult.self_s": (self_s("model.hess_mult"), "s/op"),
        "optimize.cg_iters": (extra["optimize.cg_iters"], per_op),
        "optimize.outer_iters": (extra["optimize.outer_iters"], per_op),
        "optimize.accept_ratio": (extra["optimize.accept_ratio"], "ratio"),
        "optimize.self_s": (self_s("optimize"), "s/op"),
        "scene.make_instance.s": (setup_totals.get("scene.make_instance", (0, 0.0, 0.0))[2], "s"),
        "trace.overhead_frac": (1.0 - traced["ops_per_s"] / untraced["ops_per_s"], "ratio"),
        "trace.uncovered_frac": (float(np.median(uncovered)) if uncovered.size else 0.0, "ratio"),
    }
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, src: Path, tiny: bool = False):
    """One benchmark run; returns ``(result, detail)`` where ``result`` is the
    object printed last and ``detail`` the context printed before it."""
    cls = WORKLOADS[name]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(_targets(tracer))
    wl = cls(seed, tiny)
    setup_totals = {}
    if tracer is not None:
        setup_totals = tracer.layer_totals()[0]
        tracer.uninstall()
        tracer.clear()
    check = checking_pass(wl)
    probe = [speed_probe_ms()]
    if tracer is None:
        setups = setup_seconds(name, seed, tiny, src)
        timed, _ = timed_phase(wl, seconds)
        metrics, attempted, failed, detail = end_to_end(wl, setups, check, timed)
        failures = check["failures"] + timed["failures"]
    else:
        untraced, traced = timed_phase(wl, seconds, tracer)
        metrics = per_layer(wl, setup_totals, check, untraced, traced, tracer)
        attempted = check["attempted"] + len(untraced["lat"]) + len(traced["lat"])
        failures = check["failures"] + untraced["failures"] + traced["failures"]
        failed = len(failures)
        detail = {"samples_untraced": len(untraced["lat"]), "samples_traced": len(traced["lat"]),
                  "spans": len(tracer.span_name)}
    probe.append(speed_probe_ms())
    detail["speed_probe_ms"] = probe
    detail["first_failures"] = failures[:3]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail

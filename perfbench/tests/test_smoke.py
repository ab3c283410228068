"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/tests -q

Checks that each run emits exactly the metrics ``BENCHMARK.json`` names,
each with a unit, and that no operation fails at the seed.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_without_failures(workload, trace):
    result, detail = bench.run(workload, 0, 0.2, trace, ROOT / "src", tiny=True)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    assert result["failed"] == 0, detail["first_failures"]
    assert result["correct"] and result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert detail["failed_frac"] == 0.0


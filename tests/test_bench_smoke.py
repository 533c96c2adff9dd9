"""The benchmark at its self-test size: every workload, untraced and
traced, runs correct and reports the metric names of BENCHMARK.json."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def harness():
    # the benchmark's modules import each other by name from bench/
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import run
        run.load_program()
        import harness
        yield harness
    finally:
        sys.path.remove(str(ROOT / "bench"))


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_benchmark_runs_correct(harness, workload, trace):
    result = harness.measure(workload, 5, 0.0, trace, 0.0, tiny=True)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in names]

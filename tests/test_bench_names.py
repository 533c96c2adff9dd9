"""The benchmark's tracer (``bench/tracing.py``, loaded as it is) wraps
readbench names and counts their calls; a renamed or deleted name, or a
change in how often the engines call one, fails here."""

import importlib.util
from pathlib import Path

import pytest

from readbench import uring_native
from readbench.devicesim import preset_model
from readbench.engines import EngineConfig, WorkloadSpec, run
from readbench.target import prepare_target, simulated_target

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

CALLS, ITEMS = 0, 2  # columns of Tracer.table()


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(tracing):
    return tracing.Tracer()


def traced_simulated_run(tracer):
    """An aio q8 b2 run of 1000 simulated reads under the tracer."""
    with simulated_target(preset_model("nvme"), 1 << 26, seed=1) as h:
        with tracer:
            return run(WorkloadSpec(target=h, request_budget=1000, seed=1),
                       EngineConfig(kind="aio", queue_size=8, batch_size=2))


def test_simulated_run_counts(tracer, python_loop):
    rec = traced_simulated_run(tracer)
    table = tracer.table()
    assert rec.latency.count == 1000
    assert table["devicesim.submit"][CALLS] == 1000
    assert table["devicesim.advance"][ITEMS] == 1000
    assert table["measurement.aggregate_latencies"][ITEMS] == 1000


def test_simulated_run_counts_native(tracer, native_loop):
    # the compiled loop schedules without devicesim's submit and advance
    rec = traced_simulated_run(tracer)
    table = tracer.table()
    assert rec.latency.count == 1000
    assert table.get("devicesim.submit", [0] * 4)[CALLS] == 0
    assert table.get("devicesim.advance", [0] * 4)[CALLS] == 0
    assert table["measurement.aggregate_latencies"][ITEMS] == 1000


def traced_uring_run(tracer, tmp_path):
    """A verified uring run of 200 reads under the tracer, or a skip."""
    ok, why = uring_native.probe()
    if not ok:
        pytest.skip(why)
    path = str(tmp_path / "traced.dat")
    with prepare_target(path, size=1 << 20, seed=2) as h:
        with tracer:
            return run(WorkloadSpec(target=h, request_budget=200, seed=1,
                                    verify=True),
                       EngineConfig(kind="uring", queue_size=8, batch_size=2))


def test_file_run_counts(tracer, tmp_path, python_loop):
    rec = traced_uring_run(tracer, tmp_path)
    table = tracer.table()
    assert rec.latency.count == 200
    assert rec.extra["loop"] == "python"
    assert table["uring_native.submit_reads"][ITEMS] == 200
    assert table["uring_native.wait"][ITEMS] == 200
    assert table["engines.checksum"][CALLS] > 0
    assert table["measurement.aggregate_latencies"][ITEMS] == 200


def test_file_run_counts_native(tracer, tmp_path, native_loop):
    # the compiled loop submits, reaps and checks without the queue's
    # methods or the checksum's add
    rec = traced_uring_run(tracer, tmp_path)
    table = tracer.table()
    assert rec.latency.count == 200
    assert rec.extra["loop"] == "native"
    assert table.get("uring_native.submit_reads", [0] * 4)[CALLS] == 0
    assert table["measurement.aggregate_latencies"][ITEMS] == 200


@pytest.mark.parametrize("kind,loop", [
    ("sync", "python"), ("polled", "python"),
    ("sync", "native"), ("polled", "native")],
    ids=["sync", "polled", "sync-native", "polled-native"])
def test_sync_read_counts(tracer, tmp_path, request, kind, loop):
    # a polled run's one probe read of the flags is not a timed read; the
    # compiled loop reads without target.read_block
    request.getfixturevalue(f"{loop}_loop")
    path = str(tmp_path / "traced.dat")
    with prepare_target(path, size=1 << 20, seed=2) as h:
        h.direct = True  # polled flags are probed on direct handles only
        with tracer:
            rec = run(WorkloadSpec(target=h, request_budget=500, seed=1),
                      EngineConfig(kind=kind))
    assert rec.latency.count == 500
    assert rec.extra["loop"] == loop
    reads = tracer.table().get("target.read_block", [0] * 4)[CALLS]
    assert reads == (500 if loop == "python" else 0)

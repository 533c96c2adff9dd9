"""Engine configuration, simulated runs, and real-file cross-checks."""

import ctypes
import errno
import itertools
import math
import mmap
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import deque
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from readbench import (aio_native, devicesim, engines, fill, hotloop, rng,
                       target, uring_native)
from readbench.devicesim import DeviceModel, preset_model, submit
from readbench.engines import (EngineConfig, RunRecord, WorkloadSpec,
                               offset_stream, probe_engines, read_scattered,
                               run, run_kernel_async, run_polled, run_ring,
                               run_sync, run_threadpool, split_budget)
from readbench.errors import (AbortedRun, AlignmentError, Backpressure,
                              EngineUnsupported, IoError, VerifyError)
from readbench.fill import check_block
from readbench.measurement import LatencyCounts, compute_throughput
from readbench.target import (open_target, prepare_target, simulated_target,
                              verify_file)


def flat_model(latency_us=100.0, parallelism=8, **over):
    base = dict(kind="solid-state", base_latency_us=latency_us,
                per_byte_us=0.0, parallelism=parallelism,
                jitter_kind="none", jitter_scale_us=0.0,
                spike_probability=0.0, spike_duration_us=0.0,
                bandwidth_limit_bps=0.0, rng_seed=1)
    base.update(over)
    return DeviceModel(**base)


@pytest.fixture
def sim():
    with simulated_target(preset_model("nvme-ssd"), 1 << 26, seed=9) as h:
        yield h


def workload(handle, **over):
    kw = dict(target=handle, pattern="random", block_size=4096,
              request_budget=200, seed=3)
    kw.update(over)
    return WorkloadSpec(**kw)


class TestEngineConfig:
    def test_defaults(self):
        e = EngineConfig()
        assert (e.kind, e.queue_size, e.batch_size) == ("sync", 1, 1)

    def test_ring_flags_only_on_ring(self):
        with pytest.raises(ValueError):
            EngineConfig(kind="aio", queue_size=8, fixed_buffers=True)
        with pytest.raises(ValueError):
            EngineConfig(kind="sync", kernel_poll=True)
        EngineConfig(kind="uring", queue_size=8, fixed_buffers=True,
                     fixed_files=True, kernel_poll=True)

    def test_queue_only_on_async(self):
        with pytest.raises(ValueError):
            EngineConfig(kind="sync", queue_size=4)
        with pytest.raises(ValueError):
            EngineConfig(kind="aio", queue_size=4, batch_size=8)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EngineConfig(kind="mmap")

    def test_roundtrip(self):
        e = EngineConfig(kind="uring", queue_size=64, batch_size=16,
                         fixed_files=True)
        assert EngineConfig.from_dict(e.as_dict()) == e


class TestWorkloadSpec:
    def test_duration_xor_budget(self, sim):
        with pytest.raises(ValueError):
            WorkloadSpec(target=sim, duration_s=1.0, request_budget=10)
        with pytest.raises(ValueError):
            WorkloadSpec(target=sim)

    def test_block_size_bounds(self, sim):
        with pytest.raises(ValueError):
            workload(sim, block_size=512)
        with pytest.raises(ValueError):
            workload(sim, block_size=3 * 4096 + 1)

    def test_pattern(self, sim):
        with pytest.raises(ValueError):
            workload(sim, pattern="zigzag")

    @pytest.mark.parametrize("name,value", [
        ("warmup_s", math.nan), ("warmup_s", math.inf), ("warmup_s", -0.5),
        ("duration_s", math.nan), ("duration_s", math.inf),
        ("duration_s", 0.0), ("duration_s", -1.0)])
    def test_window_out_of_range_refused(self, sim, name, value):
        # only constructed, never run: a simulated run with a NaN duration
        # never ends, and a negative warm-up inflates its elapsed time
        window = {"duration_s": 1.0, "request_budget": None, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite and "):
            workload(sim, **window)


class TestOffsets:
    def test_random_in_bounds_and_aligned(self, sim):
        w = workload(sim, block_size=8192)
        it = offset_stream(w, worker=0)
        for _ in range(1000):
            off = next(it)
            assert off % 8192 == 0
            assert 0 <= off <= sim.capacity - 8192

    def test_sequential_wraps(self, sim):
        w = workload(sim, pattern="sequential", block_size=1 << 20)
        it = offset_stream(w, worker=0)
        nblocks = sim.capacity // (1 << 20)
        seen = [next(it) for _ in range(nblocks + 2)]
        assert seen[:nblocks] == [i << 20 for i in range(nblocks)]
        assert seen[nblocks] == 0  # wrapped

    def test_workers_disjoint_streams(self, sim):
        w = workload(sim, threads=4)
        a = [next(offset_stream(w, worker=0)) for _ in range(10)]
        b = [next(offset_stream(w, worker=1)) for _ in range(10)]
        assert a != b

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("pattern", ["random", "sequential"])
    def test_async_loop_submits_the_offset_stream(self, real, trickled,
                                                  pattern, threads):
        # refills of 3 split one across the first _OFFSET_CHUNK boundary,
        # since 3 does not divide it
        assert engines._OFFSET_CHUNK % 3 and engines._OFFSET_CHUNK < 4100
        w = workload(real, pattern=pattern, threads=threads,
                     request_budget=4100 * threads)
        run(w, EngineConfig(kind="aio", queue_size=3, batch_size=3))
        want = [list(itertools.islice(offset_stream(w, k), 4100))
                for k in range(threads)]
        assert sorted(b.offsets for b in trickled) == sorted(want)

    @pytest.mark.parametrize("kind,threads,budget", [
        ("sync", 1, 1), ("sync", 1, 4096), ("sync", 1, 4097),
        ("pool", 2, 8193)])
    def test_sync_loop_reads_its_budget(self, real, python_loop, monkeypatch,
                                        kind, threads, budget):
        # the Python sync loop cuts the budget's last offset chunk itself
        reads = {}

        def record(handle, offset, buf, flags):
            reads.setdefault(threading.current_thread(), []).append(offset)
            return target.read_block(handle, offset, buf, flags)

        monkeypatch.setattr(engines, "read_block", record)
        w = workload(real, threads=threads, request_budget=budget)
        run(w, EngineConfig(kind=kind))
        want = [list(itertools.islice(offset_stream(w, k),
                                      split_budget(budget, threads, k)))
                for k in range(threads)]
        assert sorted(reads.values()) == sorted(want)

    def test_scattered_reads_submit_the_given_offsets(self, real, trickled):
        offsets = [12288, 0, 4096]
        read_scattered(workload(real, request_budget=1400),
                       EngineConfig(kind="aio", queue_size=3), offsets=offsets)
        assert trickled[0].offsets == offsets * 1400

    def test_offsets_shorter_than_the_queue_recur_in_order(self, real,
                                                           trickled):
        # refills of 8 from a list of 3, across the first chunk's end
        offsets = [0, 4096, 8192]
        engines.duration_log(workload(real, request_budget=4100),
                             EngineConfig(kind="aio", queue_size=8,
                                          batch_size=2), offsets=offsets)
        assert trickled[0].offsets == list(
            itertools.islice(itertools.cycle(offsets), 4100))

    @pytest.mark.parametrize("kind", ["sync", "aio", "uring", "simulated"])
    @pytest.mark.parametrize("budget", [-5, 0])
    def test_budget_below_one_refused(self, real, sim, monkeypatch, kind,
                                      budget):
        # `readbench run --requests -5` reaches this; at -5 a ring would
        # submit stale entries, and aio would fail with EINVAL
        made = []
        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: made.append(args))
        engine = (EngineConfig(kind="sync") if kind == "sync"
                  else async_engine("aio" if kind == "simulated" else kind,
                                    4, 2))
        with pytest.raises(ValueError, match="^request_budget must be >= 1$"):
            run(workload(sim if kind == "simulated" else real,
                         request_budget=budget), engine)
        assert made == []

    @pytest.mark.parametrize("call", [engines.duration_log, read_scattered])
    @pytest.mark.parametrize("where", ["simulated", "real"])
    def test_empty_offsets_refused(self, real, sim, call, where):
        with pytest.raises(ValueError, match="^the offset list is empty$"):
            call(workload(sim if where == "simulated" else real),
                 EngineConfig(kind="aio", queue_size=4, batch_size=4),
                 offsets=[])

    @pytest.mark.parametrize("where", ["simulated", "real"])
    @pytest.mark.parametrize("over", [
        dict(threads=2), dict(request_budget=None, duration_s=0.5),
        dict(warmup_s=0.1)], ids=["T2", "duration", "warm-up"])
    def test_duration_log_contract_refused(self, real, sim, monkeypatch,
                                           where, over):
        # refused before any read: on a file a duration run would never
        # end, and a second worker's reads would go unlogged
        def refuse(*args):
            raise AssertionError("a run was started")

        monkeypatch.setattr(engines, "_real_worker", refuse)
        monkeypatch.setattr(engines, "_simulate", refuse)
        with pytest.raises(ValueError, match="^duration_log runs one worker "
                           "to a request budget without warm-up$"):
            engines.duration_log(
                workload(sim if where == "simulated" else real, **over),
                EngineConfig(kind="pool"))

    def test_split_budget_sums(self):
        for total in (1, 7, 100, 101):
            for threads in (1, 3, 8):
                assert sum(split_budget(total, threads, w)
                           for w in range(threads)) == total


class TestSimulatedRuns:
    def test_sync_record_shape(self, sim):
        rec = run_sync(workload(sim))
        assert isinstance(rec, RunRecord)
        assert rec.label == "P"
        assert rec.latency.count == 200
        assert rec.throughput_mb_s > 0
        assert "simulated" in rec.notes
        assert len(rec.data_checksum) == 0 or len(rec.data_checksum) == 64

    def test_all_engines_run(self, sim):
        recs = [
            run_sync(workload(sim)),
            run_polled(workload(sim)),
            run_threadpool(workload(sim, threads=4)),
            run_kernel_async(workload(sim),
                             EngineConfig(kind="aio", queue_size=16)),
            run_ring(workload(sim),
                     EngineConfig(kind="uring", queue_size=16,
                                  batch_size=4)),
        ]
        assert [r.label for r in recs] == ["P", "P", "PT4", "A16B1", "U16B4"]
        for r in recs:
            assert r.latency.count == 200

    def test_deterministic_replay(self, sim):
        e = EngineConfig(kind="aio", queue_size=8)
        a = run_kernel_async(workload(sim), e)
        b = run_kernel_async(workload(sim), e)
        assert a.latency == b.latency
        assert a.throughput_mb_s == b.throughput_mb_s
        assert a.data_checksum == b.data_checksum

    def test_records_replay_except_start_time(self, sim):
        e = EngineConfig(kind="uring", queue_size=16, batch_size=4)
        a, b = (run_ring(workload(sim, threads=2), e).as_dict()
                for _ in range(2))
        del a["started_at"], b["started_at"]
        assert a == b
        assert a["cpu"]["process_cpu"] == 0.0

    def test_verify_checksum_engine_independent(self, sim):
        recs = [
            run_sync(workload(sim, verify=True)),
            run_kernel_async(workload(sim, verify=True),
                             EngineConfig(kind="aio", queue_size=16)),
            run_ring(workload(sim, verify=True),
                     EngineConfig(kind="uring", queue_size=32, batch_size=8)),
        ]
        sums = {r.data_checksum for r in recs}
        assert len(sums) == 1 and len(sums.pop()) == 64

    def test_depth_increases_throughput(self):
        with simulated_target(flat_model(latency_us=200.0, parallelism=32),
                              1 << 26, seed=1) as h:
            shallow = run_kernel_async(workload(h, request_budget=1000),
                                       EngineConfig(kind="aio", queue_size=1))
            deep = run_kernel_async(workload(h, request_budget=1000),
                                    EngineConfig(kind="aio", queue_size=32))
            assert deep.throughput_mb_s > 10 * shallow.throughput_mb_s

    def test_max_inflight_bounded(self, sim):
        e = EngineConfig(kind="uring", queue_size=8, batch_size=2)
        rec = run_ring(workload(sim), e)
        assert 1 <= rec.extra["max_inflight"] <= 8

    def test_warmup_excluded(self):
        model = flat_model(latency_us=100.0, parallelism=1,
                           degraded_until_us=5000.0, degraded_factor=10.0)
        with simulated_target(model, 1 << 26, seed=1) as h:
            w = WorkloadSpec(target=h, block_size=4096, duration_s=0.05,
                             warmup_s=0.01, seed=2)
            rec = run_sync(w)
            assert rec.latency.mean_us == pytest.approx(100.0, rel=0.05)

    def test_kind_mismatch_rejected(self, sim):
        with pytest.raises(ValueError):
            run_kernel_async(workload(sim), EngineConfig(kind="sync"))
        with pytest.raises(ValueError):
            run_ring(workload(sim), EngineConfig(kind="aio", queue_size=4))

    def test_threads_on_sync_rejected(self, sim):
        with pytest.raises(ValueError):
            run_sync(workload(sim, threads=2))


#: a solid-state model with every random component: uniform jitter,
#: spikes, a degraded start-up window and a shared channel
RANDOM_SSD = DeviceModel(kind="custom", base_latency_us=40.0,
                         per_byte_us=1.0 / 1000.0, parallelism=4,
                         jitter_kind="uniform", jitter_scale_us=6.0,
                         spike_probability=0.02, spike_duration_us=5000.0,
                         bandwidth_limit_bps=400e6, degraded_until_us=3000.0,
                         degraded_factor=4.0, rng_seed=17)

#: every preset, the model above, and one without draws whose queued
#: durations are whole or half µs, so that rounding halves to even shows;
#: then one without a bandwidth limit whose jitter, 40 times its base,
#: reorders the requests in service, so that they complete out of the order
#: they start; and one whose channel is so fast that a transfer rounds away,
#: so that a request clamped to the channel ties with the one before it and
#: only the order they start in breaks the tie
SIM_MODELS = [*map(preset_model, ("hdd", "sata-ssd", "nvme-ssd", "ull")),
              RANDOM_SSD, flat_model(latency_us=20.5, parallelism=2),
              flat_model(latency_us=5.0, parallelism=16,
                         jitter_kind="uniform", jitter_scale_us=200.0,
                         rng_seed=23),
              flat_model(latency_us=30.0, jitter_kind="uniform",
                         jitter_scale_us=20.0, bandwidth_limit_bps=1e300,
                         rng_seed=29)]


def simulated_outcome(loop, w, engine, offsets, chunk=None):
    """A simulated run on one loop: its ordered log, what _simulate returns
    and, without offsets, the fields of its record; or the error raised.
    ``chunk`` sets how many offsets and draws are computed at a time."""
    log = []
    with pytest.MonkeyPatch.context() as mp:
        if loop == "python":
            mp.setattr(hotloop, "load", lambda: (None, "pinned by a test"))
        else:  # the compiled loop schedules without devicesim
            mp.setattr(engines, "submit", None)
        if chunk is not None:
            mp.setattr(engines, "_OFFSET_CHUNK", chunk)
            mp.setattr(rng, "FLOAT_CHUNK", chunk)
        try:
            got = engines._simulate(w, engine, lambda c: log.extend(c),
                                    offsets)
            if offsets is None:
                rec = run(w, engine)
                got += (rec.latency, rec.throughput_mb_s, rec.data_checksum,
                        rec.extra)
        except Exception as exc:
            return type(exc), str(exc)
    return log, got


@st.composite
def simulated_runs(draw):
    model = draw(st.sampled_from(SIM_MODELS))
    kind = draw(st.sampled_from(engines.ENGINE_KINDS))
    queue = draw(st.integers(1, 24)) if kind in engines.ASYNC_KINDS else 1
    engine = EngineConfig(kind=kind, queue_size=queue,
                          batch_size=draw(st.integers(1, queue)))
    threads = 1 if kind in ("sync", "polled") else draw(st.integers(1, 3))
    if draw(st.booleans()):
        window = dict(request_budget=draw(st.integers(1, 1500)))
    else:  # about as many reads on the slow disk as on the fast ones
        scale = 10.0 if model.kind == "hdd" else 1.0
        window = dict(warmup_s=draw(st.sampled_from([0.0, 0.001, 0.0025])),
                      duration_s=scale * draw(st.floats(0.0005, 0.01)))
    capacity = draw(st.sampled_from([1 << 22, 1 << 28]))
    offsets = draw(st.none() | st.lists(
        st.integers(0, capacity // 4096 - 1).map(lambda b: b * 4096),
        min_size=1, max_size=40))
    fields = dict(pattern=draw(st.sampled_from(engines.PATTERNS)),
                  threads=threads, seed=draw(st.integers(0, 2 ** 64 - 1)),
                  verify=draw(st.booleans()), **window)
    # chunks of 32 make the compiled loop return for more offsets, draws
    # and log room many times a run
    chunk = draw(st.sampled_from([None, 32]))
    return model, capacity, fields, engine, offsets, chunk


@settings(max_examples=200, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture])
@given(simulated_runs())
def test_simulated_loops_agree(native_loop, case):
    # the compiled loop logs what the Python scheduler logs, in its order,
    # and gives the same record, every preset and engine on either window
    model, capacity, fields, engine, offsets, chunk = case
    with simulated_target(model, capacity, seed=3) as h:
        w = WorkloadSpec(target=h, **fields)
        assert simulated_outcome("native", w, engine, offsets, chunk) \
            == simulated_outcome("python", w, engine, offsets)


def heavy_tail_bytes(lib, draws, power=devicesim.HEAVY_TAIL_POWER):
    """The bytes of the compiled simulator's u ** power for each draw u, and
    of Python's, each packed as little-endian doubles."""
    u = np.array(draws, dtype=np.float64)
    got = np.empty_like(u)
    lib.rb_heavy_tail(u.ctypes.data, got.ctypes.data, len(u), power)
    return (struct.pack(f"<{len(u)}d", *got.tolist()),
            struct.pack(f"<{len(u)}d", *(x ** power for x in draws)))


def midpoint_distance(u):
    """How far the exact u ** 9 lies from the nearest midpoint between two
    doubles, in units of the gap between them (a normal double's, as every
    u ** 9 of a draw u > 0 is)."""
    exact = u.as_integer_ratio()[0] ** 9  # over a power of two
    shift = exact.bit_length() - 53  # its bits below a double's last
    rest = exact & ((1 << shift) - 1)
    return abs(2 * rest - (1 << shift)) / (2 << shift)


def test_heavy_tail_is_pythons_pow_bit_for_bit(native_loop):
    # the fast path's last bit is below the whole-us log's sight, so it is
    # compared here: 10^6 draws of each heavy-tail preset's seed, where ~10%
    # fall back to pow; the extremes; draws whose u^9 lies nearest a
    # midpoint, where y's rounding could differ from pow's; another power
    seeds = {preset_model(name).rng_seed for name in devicesim.preset_names()
             if preset_model(name).jitter_kind == "heavy-tail"}
    assert seeds
    for seed in seeds:
        draws = list(itertools.islice(rng.uniform_floats(seed), 10 ** 6))
        got, want = heavy_tail_bytes(native_loop, draws)
        assert got == want, seed
    extremes = [0.0, 2.0 ** -64, 0.5, 1 - 2.0 ** -53, 1.0]
    got, want = heavy_tail_bytes(native_loop, extremes)
    assert got == want
    near = sorted(itertools.islice(rng.uniform_floats(5), 200_000),
                  key=midpoint_distance)[:40]
    assert max(map(midpoint_distance, near)) < 1e-3
    got, want = heavy_tail_bytes(native_loop, near)
    assert got == want
    draws = list(itertools.islice(rng.uniform_floats(1), 1000))
    got, want = heavy_tail_bytes(native_loop, draws, 2.5)
    assert got == want


def test_simulator_code_after_the_file_loop(native_loop):
    # the simulator's code sits after rb_async_loop, so that it does not
    # move the file loop as it changes (which cost verified reads ~2%)
    def address(name):
        return ctypes.cast(getattr(native_loop, name), ctypes.c_void_p).value

    for name in ("rb_sim_loop", "rb_heavy_tail"):
        assert address(name) > address("rb_async_loop"), name


def simulated_log(w, engine, offsets=None):
    """A simulated run's ordered log, and what _simulate returns."""
    log = []
    got = engines._simulate(w, engine, lambda c: log.extend(c), offsets)
    return log, got


@pytest.mark.parametrize("pattern,listed,threads,verify", [
    ("random", False, 1, False), ("random", False, 2, True),
    ("sequential", False, 1, True), ("sequential", False, 2, False),
    ("random", True, 1, False), ("random", True, 2, True)],
    ids=["random", "random-T2-verify", "sequential-verify", "sequential-T2",
         "list", "list-T2-verify"])
def test_compiled_simulator_draws_its_own_streams(native_loop, monkeypatch,
                                                  pattern, listed, threads,
                                                  verify):
    # the compiled loop computes every offset and device draw itself, so it
    # returns only to hand over a full log (or a full list of the offsets it
    # submitted), and its run is the Python scheduler's
    engine = EngineConfig(kind="uring", queue_size=16, batch_size=4)
    offsets = [(b * 7919 % 4096) * 4096 for b in range(300)] if listed \
        else None
    with simulated_target(RANDOM_SSD, 1 << 28, seed=3) as h:
        w = WorkloadSpec(target=h, pattern=pattern, threads=threads, seed=5,
                         request_budget=200_000, verify=verify)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hotloop, "load", lambda: (None, "pinned by a test"))
            want = simulated_log(w, engine, offsets)

        def drawn(*args):  # a generator, so only drawing from it raises
            raise AssertionError("a chunk was computed in numpy")
            yield

        calls = []

        class Counted:  # the library, its rb_sim_loop calls counted
            def rb_sim_loop(self, sim):
                calls.append(sim)
                return native_loop.rb_sim_loop(sim)

        monkeypatch.setattr(engines, "offset_stream", drawn)
        monkeypatch.setattr(rng, "u64_chunks", drawn)
        monkeypatch.setattr(hotloop, "load", lambda: (Counted(), "counted"))
        got = simulated_log(w, engine, offsets)
    assert got == want
    room = engines._OFFSET_CHUNK  # the log's room, less threads * depth
    assert len(calls) <= -(-len(want[0]) // room) + 1


#: a model of every draw: heavy-tailed jitter and frequent spikes
SPIKY = DeviceModel(kind="custom", base_latency_us=30.0, parallelism=4,
                    jitter_kind="heavy-tail", jitter_scale_us=5.0,
                    spike_probability=0.3, spike_duration_us=200.0)


@pytest.mark.parametrize("model,capacity,fields,offsets", [
    (replace(SPIKY, rng_seed=2 ** 63), 1 << 26, {}, None),
    (replace(SPIKY, rng_seed=2 ** 64 - 1), 1 << 26, {}, None),
    (replace(preset_model("hdd"), rng_seed=2 ** 64 - 1), 1 << 26, {}, None),
    (SPIKY, 1 << 26, dict(seed=2 ** 64 - 1, threads=3), None),
    (SPIKY, 1001 * 4096, dict(threads=2), None),
    (SPIKY, 1001 * 4096, dict(pattern="sequential", threads=3), None),
    (SPIKY, 1 << 26, dict(threads=2), [12288])],
    ids=["rng-seed-2^63", "rng-seed-2^64-1", "hdd-rng-seed-2^64-1",
         "worker-seeds-wrap", "random-blocks-not-a-power-of-2",
         "sequential-uneven-shares", "one-offset"])
def test_simulated_edge_seeds_agree(native_loop, model, capacity, fields,
                                    offsets):
    # seeds and stream states are 64-bit words that wrap: the compiled
    # loop's draws and offsets are the Python scheduler's at their edges
    engine = EngineConfig(kind="aio", queue_size=8, batch_size=2)
    with simulated_target(model, capacity, seed=3) as h:
        w = WorkloadSpec(target=h, request_budget=4000, verify=True,
                         **fields)
        assert simulated_outcome("native", w, engine, offsets) \
            == simulated_outcome("python", w, engine, offsets)


@pytest.mark.parametrize("capacity,submits", [
    ((1 << 53) - 4096, 0), (1 << 53, 20)], ids=["below-2^53", "2^53"])
def test_capacity_past_2_53_runs_in_python(native_loop, monkeypatch,
                                           capacity, submits):
    # C divides offsets by the capacity as doubles, which equal Python's
    # int division only below 2^53, so a larger device runs on devicesim
    calls = []
    monkeypatch.setattr(engines, "submit",
                        lambda *a: calls.append(a) or submit(*a))
    with simulated_target(preset_model("hdd"), capacity, seed=1) as h:
        assert run(workload(h, request_budget=20),
                   EngineConfig()).latency.count == 20
    assert len(calls) == submits


@pytest.mark.parametrize("loop", ["python", "native"])
@pytest.mark.parametrize("offsets,budget,refused", [
    ([0, 1 << 26], 3, True), ([0, (1 << 26) - 4095], 3, True),
    ([-4096], 1, True), ([0, 1 << 26], 1, False)],
    ids=["at-capacity", "straddling", "negative", "never-submitted"])
def test_offsets_outside_the_device_refused(sim, request, loop, offsets,
                                            budget, refused):
    # refused when submitted, as devicesim.submit refuses it
    request.getfixturevalue(f"{loop}_loop")
    w = workload(sim, request_budget=budget)
    if not refused:
        assert len(engines.duration_log(w, EngineConfig(), offsets)) == 1
        return
    with pytest.raises(ValueError, match="^request outside device capacity$"):
        engines.duration_log(w, EngineConfig(), offsets)


@pytest.mark.parametrize("loop", ["python", "native"])
def test_queue_beyond_pending_bound_refused(sim, request, loop):
    # 17 simulated workers of 4096 queue more than the device's bound of
    # 65536 pending requests; a simulated run starts no OS threads
    request.getfixturevalue(f"{loop}_loop")
    w = workload(sim, threads=17, request_budget=17 * 4096)
    with pytest.raises(Backpressure, match="^more than 65536 requests queued$"):
        run(w, EngineConfig(kind="aio", queue_size=4096, batch_size=64))


#: models on which one 4 KiB read would outlast 2^53 ns, by the field that
#: makes it so: the first is infinite, the others finite
ENDLESS = {"bandwidth_limit_bps": dict(bandwidth_limit_bps=1e-320),
           "base_latency_us": dict(base_latency_us=1e300),
           "per_byte_us": dict(per_byte_us=1e300)}


@pytest.mark.parametrize("loop", ["python", "native"])
@pytest.mark.parametrize("field", ENDLESS)
def test_endless_model_refused(request, loop, field):
    # the first spun the compiled loop forever and overflowed the Python
    # one; the others ended in measurement's "duration must be >= 0".  A
    # daemon thread turns a hang into a failure instead of a hung suite
    request.getfixturevalue(f"{loop}_loop")
    model = DeviceModel(kind="custom", **{
        "base_latency_us": 5.0, "per_byte_us": 0.001, "parallelism": 4,
        "bandwidth_limit_bps": 1e9, **ENDLESS[field]})
    out = {}

    def attempt():
        with simulated_target(model, 1 << 26) as h:
            try:
                run(workload(h, request_budget=100), EngineConfig())
            except ValueError as exc:
                out["error"] = exc

    t0 = time.monotonic()
    attempt_thread = threading.Thread(target=attempt, daemon=True)
    attempt_thread.start()
    attempt_thread.join(5.0)
    assert time.monotonic() - t0 < 1.0
    assert str(out["error"]).startswith(f"{field} lets one 4096-byte read")


class TestScattered:
    def test_parallel_device_single_makespan(self):
        with simulated_target(flat_model(latency_us=100.0, parallelism=32),
                              1 << 26, seed=1) as h:
            w = workload(h, request_budget=30)
            e = EngineConfig(kind="aio", queue_size=32)
            for n in (1, 5, 20):
                stats = read_scattered(
                    w, e, offsets=[i * 4096 for i in range(n)])
                assert stats.mean_us == pytest.approx(100.0, rel=0.01)

    def test_group_count_is_sample_count(self, sim):
        w = workload(sim, request_budget=10)
        e = EngineConfig(kind="aio", queue_size=64)
        stats = read_scattered(w, e, offsets=[0, 4096, 8192])
        assert stats.count == 10

    def test_failed_completion_raises(self, tmp_path, monkeypatch):
        class FailingBackend:
            def submit_reads(self, slots, offsets):
                self.slots = slots

            def wait(self, min_nr, timeout_s=None):
                return [(slot, -5) for slot in self.slots]

            def close(self):
                pass

        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: FailingBackend())
        path = str(tmp_path / "real.dat")
        prepare_target(path, size=1 << 20, seed=3).close()
        with open_target(path, seed=3, direct=False) as h:
            with pytest.raises(IoError, match="returned -5"):
                read_scattered(workload(h, request_budget=4),
                               EngineConfig(kind="aio", queue_size=4))


class StalledBackend:
    """Accepts every read and never completes one."""

    def submit_reads(self, slots, offsets):
        pass

    def wait(self, min_nr, timeout_s=None):
        return []

    def close(self):
        pass


class TrickleBackend:
    """Completes one read per wait call, oldest first; reads the block into
    its slot's buffer from ``fd`` when one is given."""

    def __init__(self, buffers, fd=None):
        self.buffers = buffers
        self.fd = fd
        self.queued = deque()
        self.submits = []  # entries per submit_reads call
        self.offsets = []  # every offset submitted, in order

    def submit_reads(self, slots, offsets):
        self.submits.append(len(slots))
        self.offsets.extend(offsets)
        self.queued.extend(zip(slots, offsets))

    def wait(self, min_nr, timeout_s=None):
        slot, offset = self.queued.popleft()
        buf = self.buffers[slot]
        if self.fd is not None:
            os.preadv(self.fd, [buf], offset)
        return [(slot, len(buf))]

    def close(self):
        pass


@pytest.fixture
def trickled(monkeypatch):
    """Makes every async backend of a run a TrickleBackend on its buffers;
    returns the list of those made, in order."""
    made = []

    def trickle(engine, handle, depth, bufs, notes):
        made.append(TrickleBackend(bufs))
        return made[-1]

    monkeypatch.setattr(engines, "_make_async_backend", trickle)
    return made


def buffers(n, block=4096):
    """n one-block slot buffers, as the engine's arena gives them."""
    mem = memoryview(mmap.mmap(-1, n * block))
    return [mem[i * block:(i + 1) * block] for i in range(n)]


def _native_or_skip(kind):
    ok, why = {"aio": aio_native, "uring": uring_native}[kind].probe()
    if not ok:
        pytest.skip(why)


@pytest.fixture
def real(tmp_path):
    path = str(tmp_path / "real.dat")
    prepare_target(path, size=1 << 20, seed=3).close()
    with open_target(path, seed=3, direct=False) as h:
        yield h


class TestFaults:
    def test_stalled_run_ends_with_named_error(self, real, monkeypatch):
        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: StalledBackend())
        monkeypatch.setattr(engines, "STALL_LIMIT_S", 0.05)
        t0 = time.monotonic()
        with pytest.raises(AbortedRun, match="harvest stalled"):
            run(workload(real, request_budget=4),
                EngineConfig(kind="uring", queue_size=4))
        with pytest.raises(IoError, match="harvest stalled"):
            read_scattered(workload(real, request_budget=4),
                           EngineConfig(kind="aio", queue_size=4))
        assert time.monotonic() - t0 < 5.0

    def test_harvest_waits_for_a_full_batch(self, real, trickled):
        run(workload(real, request_budget=40),
            EngineConfig(kind="aio", queue_size=8, batch_size=4))
        assert trickled[0].submits == [8] + [4] * 8
        stats = read_scattered(workload(real, request_budget=5),
                               EngineConfig(kind="aio", queue_size=4))
        assert stats.count == 5
        assert trickled[1].submits == [4] * 5

    def test_partial_harvest_names_bad_block(self, real, monkeypatch):
        # harvests of 3 from a queue of 8 gather out-of-order slots; block
        # 16 sits in slot 0 of the harvest of slots [7, 0, 1]
        with open(real.path, "r+b") as f:
            f.seek(16 * 4096 + 77)
            f.write(b"\x00" if f.read(1) != b"\x00" else b"\x01")
        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: TrickleBackend(args[3], real.fd))
        with pytest.raises(VerifyError) as ei:
            run(workload(real, pattern="sequential", request_budget=40,
                         verify=True),
                EngineConfig(kind="aio", queue_size=8, batch_size=3))
        assert ei.value.offset == 16 * 4096 + 72

    def test_misread_block_fails_the_check(self, real, monkeypatch):
        # the read of block 16 completes with block 17 in its slot: the
        # offset digest alone would not see it, the check must
        class Misreading(TrickleBackend):
            def wait(self, min_nr, timeout_s=None):
                slot, offset = self.queued[0]
                if offset == 16 * 4096:
                    self.queued[0] = (slot, offset + 4096)
                return super().wait(min_nr, timeout_s)

        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: Misreading(args[3], real.fd))
        with pytest.raises(VerifyError) as ei:
            run(workload(real, pattern="sequential", request_budget=40,
                         verify=True),
                EngineConfig(kind="aio", queue_size=8, batch_size=3))
        assert ei.value.offset == 16 * 4096

    def test_full_harvest_checked_by_slot(self, real, monkeypatch):
        # each wait returns every slot, shuffled, and the read of block 16
        # gets the next block's last page in its last page: a harvest of
        # every slot is checked where it lies, so rows and offsets must pair
        # by slot, and each page be checked against its own hash
        class Shuffling(TrickleBackend):
            def wait(self, min_nr, timeout_s=None):
                done = []
                while self.queued:
                    slot, offset = self.queued.popleft()
                    buf = self.buffers[slot]
                    os.preadv(self.fd, [buf], offset)
                    if offset == 16 * len(buf):  # the next block's page
                        os.preadv(self.fd, [buf[-4096:]],
                                  offset + 2 * len(buf) - 4096)
                    done.append((slot, len(buf)))
                order = np.random.default_rng(len(self.submits))
                return [done[i] for i in order.permutation(len(done))]

        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: Shuffling(args[3], real.fd))
        for block in (4096, 16384):
            with pytest.raises(VerifyError) as ei:
                run(workload(real, pattern="sequential", block_size=block,
                             request_budget=40, verify=True),
                    EngineConfig(kind="aio", queue_size=8, batch_size=8))
            assert ei.value.offset == 17 * block - 4096, block

    def test_misread_past_a_digest_chunk_named(self, real, monkeypatch):
        # by read 4500 the first _OFFSET_CHUNK verified offsets are digested
        assert engines._OFFSET_CHUNK < 4500

        class LateMisread(TrickleBackend):
            reaped = 0

            def wait(self, min_nr, timeout_s=None):
                self.reaped += 1
                if self.reaped == 4500:
                    slot, offset = self.queued[0]
                    self.queued[0] = (slot, offset + 4096)
                return super().wait(min_nr, timeout_s)

        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: LateMisread(args[3], real.fd))
        with pytest.raises(VerifyError) as ei:
            run(workload(real, pattern="sequential", request_budget=5000,
                         verify=True),
                EngineConfig(kind="aio", queue_size=8, batch_size=3))
        assert ei.value.offset == 4499 % 256 * 4096  # the 4500th block read
        assert "old fill pattern" not in str(ei.value)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("slot", [4, -1])
    def test_completion_for_unknown_slot_named(self, real, monkeypatch,
                                               slot, threads):
        # unchecked, a slot past the queue raises a bare IndexError and a
        # negative one passes as another slot's completion
        class Misnumbered(TrickleBackend):
            def wait(self, min_nr, timeout_s):
                return [(slot, res) for _, res in
                        super().wait(min_nr, timeout_s)]

        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: Misnumbered(args[3]))
        with pytest.raises(AbortedRun,
                           match=f"unknown slot {slot} of 4") as ei:
            run(workload(real, threads=threads),
                EngineConfig(kind="aio", queue_size=4))
        assert isinstance(ei.value.__cause__, IoError)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("repeat", ["in-one-wait", "reaped-twice",
                                        "never-submitted"])
    def test_completion_for_slot_not_in_flight_named(self, real, monkeypatch,
                                                     repeat, threads):
        # unchecked, a repeated slot is logged twice; reaped twice here
        # means before the slot is refilled, since every read is submitted
        # at once.  With a budget of 4 on a queue of 8, slot 5 is in range
        # but never submitted
        class Repeating(TrickleBackend):
            def wait(self, min_nr, timeout_s):
                rows = super().wait(min_nr, timeout_s)
                if repeat == "in-one-wait":
                    return rows + rows
                if repeat == "never-submitted":
                    rows = [(5, res) for _, res in rows]
                elif not hasattr(self, "repeated"):
                    self.repeated = True
                    self.queued.appendleft(tuple(rows[0]))
                return rows

        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: Repeating(args[3]))
        queue, slot = (8, 5) if repeat == "never-submitted" else (4, 0)
        with pytest.raises(AbortedRun, match=rf"unknown slot {slot} of {queue} "
                           r"\(no read in flight") as ei:
            run(workload(real, threads=threads, request_budget=4 * threads),
                EngineConfig(kind="aio", queue_size=queue))
        assert isinstance(ei.value.__cause__, IoError)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_completion_ring_overflow_named(self, real, monkeypatch,
                                            threads, python_loop):
        # the first ring loses the completions of its first wait and counts
        # them as the kernel counts those it drops from a full completion
        # ring: the run ends naming their number, at once, where it would
        # otherwise wait for them until STALL_LIMIT_S.  The Python loop is
        # the one that calls wait; TestNativeLoop has the compiled loop's
        _native_or_skip("uring")
        wait, rings, lost = uring_native.UringQueue.wait, [], []

        def lossy(self, min_nr, timeout_s):
            rows = wait(self, min_nr, timeout_s)
            if not rings:
                rings.append(self)
            if self is rings[0] and not lost:
                lost.append(len(rows))
                self._cq_overflow.value = len(rows)
                return rows[:0]
            return rows

        monkeypatch.setattr(uring_native.UringQueue, "wait", lossy)
        monkeypatch.setattr(engines, "HARVEST_TIMEOUT_S", 0.05)
        monkeypatch.setattr(engines, "STALL_LIMIT_S", 5.0)
        w = workload(real, request_budget=None, duration_s=30.0,
                     threads=threads)
        t0 = time.monotonic()
        with pytest.raises(AbortedRun, match="^1 worker") as ei:
            run(w, EngineConfig(kind="uring", queue_size=8, batch_size=2))
        assert time.monotonic() - t0 < 2.0
        assert isinstance(ei.value.__cause__, IoError)
        assert str(ei.value.__cause__) == (
            f"completion ring overflowed: {lost[0]} completion(s) lost")

    def test_uring_wait_honours_timeout(self, real):
        _native_or_skip("uring")
        q = uring_native.UringQueue(real.fd, 4, buffers(4))
        out = {}

        def idle_wait():
            t0 = time.monotonic()
            out["done"] = q.wait(1, 0.1)
            out["s"] = time.monotonic() - t0

        # a wait that ignores its timeout never returns; the daemon thread
        # turns that into a failure instead of a hung suite
        waiter = threading.Thread(target=idle_wait, daemon=True)
        waiter.start()
        waiter.join(5.0)
        assert not waiter.is_alive(), "idle ring wait ignored its timeout"
        q.close()
        assert len(out["done"]) == 0 and out["s"] < 1.0

    def test_uring_refuses_kernel_without_single_mmap(self, real,
                                                      monkeypatch):
        _native_or_skip("uring")
        monkeypatch.setattr(uring_native, "_FEAT_SINGLE_MMAP", 1 << 31)
        with pytest.raises(EngineUnsupported, match="SINGLE_MMAP"):
            uring_native.UringQueue(real.fd, 4, buffers(4))

    def test_uring_short_submit_raises(self, real, monkeypatch):
        _native_or_skip("uring")
        q = uring_native.UringQueue(real.fd, 4, buffers(4))
        try:
            monkeypatch.setattr(q, "_enter", lambda *args: 1)
            with pytest.raises(IoError, match="submitted 1 of 2"):
                q.submit_reads([0, 1], [0, 4096])
        finally:
            monkeypatch.undo()
            q.close()

    def test_uring_refused_off_x86(self, real, monkeypatch):
        monkeypatch.setattr(uring_native.platform, "machine", lambda: "aarch64")
        ok, why = uring_native.probe()
        assert not ok and "aarch64" in why
        assert not probe_engines()["uring"]["available"]
        w = workload(real, request_budget=8)
        with pytest.raises(EngineUnsupported):
            run(w, EngineConfig(kind="uring", queue_size=4))
        rec = run(w, EngineConfig(kind="uring", queue_size=4,
                                  allow_fallback=True))
        assert rec.latency.count == 8 and "emulated" in rec.notes
        # the emulated queue's reads verify, to the digest of the same reads
        # on the sync engine
        w = workload(real, request_budget=40, verify=True)
        rec = run(w, EngineConfig(kind="uring", queue_size=4, batch_size=2,
                                  allow_fallback=True))
        assert rec.data_checksum == run(w, EngineConfig()).data_checksum
        assert rec.latency.count == 40 and rec.extra["loop"] == "python"

    def test_emulated_queue_wait_honours_timeout(self, real):
        buf = memoryview(bytearray(4096))
        q = engines._EmulatedAsyncQueue(real, 1, [buf])
        try:
            t0 = time.monotonic()
            assert len(q.wait(1, 0.1)) == 0
            assert time.monotonic() - t0 < 0.2
            q.submit_reads([0], [8192])
            assert list(q.wait(1, 5.0)) == [(0, 4096)]
        finally:
            q.close()

    def test_aio_wait_retries_eintr(self, real, monkeypatch):
        ok, why = aio_native.probe()
        if not ok:
            pytest.skip(why)
        libc = aio_native._libc

        class Interrupting:
            """io_getevents fails once with EINTR, then reaches the kernel."""
            interrupted = 0

            def syscall(self, nr, *args):
                if nr == aio_native._SYS_io_getevents and not self.interrupted:
                    self.interrupted += 1
                    ctypes.set_errno(errno.EINTR)
                    return -1
                return libc.syscall(nr, *args)

        q = aio_native.AioQueue(real.fd, 4, buffers(4))
        try:
            q.submit_reads([0, 1], [0, 4096])
            fake = Interrupting()
            monkeypatch.setattr(aio_native, "_libc", fake)
            done = []
            while len(done) < 2:
                done += q.wait(2 - len(done), 1.0)
            assert fake.interrupted == 1
            assert sorted(done) == [[0, 4096], [1, 4096]]
        finally:
            monkeypatch.undo()
            q.close()


#: queue name -> UringQueue features; "emulated" and "aio" take none
QUEUES = {"emulated": None, "aio": None, "uring": {},
          "uring-fixed": {"fixed_files": True, "fixed_buffers": True},
          "uring-sqpoll": {"kernel_poll": True}}


def make_queue(name, handle, bufs):
    """A backend of the engine's contract over ``bufs``, or a skip."""
    depth = len(bufs)
    if name == "emulated":
        return engines._EmulatedAsyncQueue(handle, depth, bufs)
    if name == "aio":
        _native_or_skip("aio")
        return aio_native.AioQueue(handle.fd, depth, bufs)
    features = QUEUES[name]
    ok, why = uring_native.probe(
        **{k: v for k, v in features.items() if k != "fixed_files"})
    if not ok:
        pytest.skip(why)
    return uring_native.UringQueue(handle.fd, depth, bufs, **features)


def wait_for(q, n):
    """n completions of q, as (slot, res) lists; each wait gets 1 s."""
    rows = []
    deadline = time.monotonic() + 5.0
    while len(rows) < n and time.monotonic() < deadline:
        got = q.wait(n - len(rows), 1.0)
        assert all(len(pair) == 2 and all(type(v) is int for v in pair)
                   for pair in got)
        rows += map(list, got)
    return rows


class TestAsyncBackends:
    @pytest.mark.parametrize("name", QUEUES)
    def test_contract(self, real, name):
        bufs = buffers(4)
        q = make_queue(name, real, bufs)
        try:
            q.submit_reads([2, 0, 3], [8192, 0, 28672])
            rows = wait_for(q, 3)
        finally:
            q.close()
        assert sorted(rows) == [[0, 4096], [2, 4096], [3, 4096]]
        for slot, offset in ((2, 8192), (0, 0), (3, 28672)):
            check_block(bufs[slot], offset, 3)

    @pytest.mark.parametrize("name", QUEUES)
    def test_wait_returns_completions_already_posted(self, real, name):
        # two completions are posted, fewer than the wait's min_nr: it
        # returns both by the end of its timeout and loses neither
        q = make_queue(name, real, buffers(4))
        try:
            q.submit_reads([1, 3], [4096, 0])
            time.sleep(0.05)  # cached reads complete meanwhile
            t0 = time.monotonic()
            rows = list(map(list, q.wait(3, 0.3)))
            took = time.monotonic() - t0
            q.submit_reads([0], [8192])
            later = wait_for(q, 1)
        finally:
            q.close()
        assert sorted(rows) == [[1, 4096], [3, 4096]] and took < 1.0
        assert later == [[0, 4096]]

    def test_bad_res_mid_harvest_names_its_offset(self, real, monkeypatch):
        class OneShort:
            """Completes every read at once, newest first; the middle one
            is short."""

            def submit_reads(self, slots, offsets):
                self.rows = [[s, 4096] for s in slots[::-1]]
                self.rows[len(self.rows) // 2][1] = 100

            def wait(self, min_nr, timeout_s=None):
                return self.rows

            def close(self):
                pass

        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: OneShort())
        # slot i reads offset (7 - i) * 4096; the middle row of the harvest
        # [7, 6, ..., 0] is slot 3
        with pytest.raises(IoError, match="async read at 16384 returned 100"):
            read_scattered(workload(real, request_budget=1),
                           EngineConfig(kind="aio", queue_size=8),
                           offsets=[(7 - i) * 4096 for i in range(8)])

    def test_aio_partial_submit_raises(self, real, monkeypatch, python_loop):
        # the Python loop is the one that calls _libc; TestNativeLoop has a
        # submit the kernel cuts short on either loop
        _native_or_skip("aio")
        libc = aio_native._libc

        class Partial:
            """io_submit takes only the first read of each call."""

            def syscall(self, nr, *args):
                if nr == aio_native._SYS_io_submit:
                    ctx, _, ptrs = args
                    return libc.syscall(nr, ctx, ctypes.c_long(1), ptrs)
                return libc.syscall(nr, *args)

        q = aio_native.AioQueue(real.fd, 4, buffers(4))
        try:
            monkeypatch.setattr(aio_native, "_libc", Partial())
            with pytest.raises(IoError, match="submitted 1 of 3"):
                q.submit_reads([0, 1, 2], [0, 4096, 8192])
            assert q.inflight == 1
        finally:
            q.close()
        with pytest.raises(AbortedRun, match="submitted 1 of 4"):
            run(workload(real, request_budget=8),
                EngineConfig(kind="aio", queue_size=4))

    def test_aio_close_destroys_off_path_only_when_drained(self, real,
                                                          monkeypatch):
        _native_or_skip("aio")
        libc = aio_native._libc
        destroyed, returned = [], []
        release = threading.Event()

        class Recording:  # io_destroy blocks until the test releases it
            def syscall(self, nr, *args):
                if nr != aio_native._SYS_io_destroy:
                    return libc.syscall(nr, *args)
                destroyed.append(threading.current_thread())
                release.wait(5.0)
                returned.append(libc.syscall(nr, *args))
                return returned[-1]

        monkeypatch.setattr(aio_native, "_libc", Recording())
        q = aio_native.AioQueue(real.fd, 4, buffers(4))
        q.submit_reads([0, 1], [0, 4096])
        assert len(wait_for(q, 2)) == 2
        q.close()
        blocked = not returned  # close returned before its io_destroy did
        release.set()
        deadline = time.monotonic() + 5.0
        while not returned and time.monotonic() < deadline:
            time.sleep(0.01)
        assert blocked and returned == [0]
        assert destroyed and destroyed[0] is not threading.current_thread()
        # reads in flight: destroyed here, so the buffers outlive them
        destroyed.clear()
        q = aio_native.AioQueue(real.fd, 4, buffers(4))
        q.submit_reads([0, 1], [0, 4096])
        q.close()
        assert destroyed == [threading.current_thread()]

    @pytest.mark.parametrize("name", ["uring", "uring-fixed", "uring-sqpoll"])
    def test_uring_close_unmaps_every_mapping(self, real, name):
        q = make_queue(name, real, buffers(4))
        q.submit_reads([0, 1, 2, 3], [0, 4096, 8192, 12288])
        assert len(wait_for(q, 4)) == 4
        maps = list(q._mmaps)
        q.close()
        assert maps and all(m.closed for m in maps)

    def test_uring_close_refuses_to_leak_a_mapping(self, real):
        q = make_queue("uring", real, buffers(4))
        maps = list(q._mmaps)
        leaked = q._cq_rows[:1]  # a view that outlives the queue's own
        with pytest.raises(BufferError):
            q.close()
        del leaked
        q.close()
        assert all(m.closed for m in maps)

    def test_uring_setup_failure_raised_as_itself(self, monkeypatch):
        # a failure after the rings are mapped (here a file descriptor of
        # None) comes out as itself, not as the BufferError of a close that
        # a view of the mapping outlived; the ring and mappings are closed
        _native_or_skip("uring")
        closed, close = [], uring_native.UringQueue.close

        def recording(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(uring_native.UringQueue, "close", recording)
        with pytest.raises(TypeError) as ei:
            uring_native.UringQueue(None, 4, buffers(4))
        assert ei.value.__context__ is None
        [q] = closed
        assert q.ring_fd == -1
        assert len(q._mmaps) == 2 and all(m.closed for m in q._mmaps)

    def test_uring_kernel_poll_alone_registers_no_file(self, real,
                                                        monkeypatch):
        # the poll thread reads an unregistered file (SQPOLL_NONFIXED), so
        # a record's fixed_files says what the ring did
        opcodes = []
        register = uring_native.UringQueue._register

        def recording(self, opcode, *args):
            opcodes.append(opcode)
            return register(self, opcode, *args)

        monkeypatch.setattr(uring_native.UringQueue, "_register", recording)
        bufs = buffers(4)
        q = make_queue("uring-sqpoll", real, bufs)
        try:
            q.submit_reads([2], [8192])
            rows = wait_for(q, 1)
        finally:
            q.close()
        assert opcodes == [] and rows == [[2, 4096]]
        check_block(bufs[2], 8192, 3)


@pytest.fixture(scope="module")
def soak(tmp_path_factory):
    """A 16 MiB file and the checksum of 30,011 random verified reads of
    it, from a simulated run over the same offsets."""
    path = str(tmp_path_factory.mktemp("soak") / "soak.dat")
    prepare_target(path, size=16 << 20, seed=17).close()
    spec = dict(block_size=4096, request_budget=30_011, seed=5, verify=True)
    with simulated_target(preset_model("ull"), 16 << 20, seed=17) as h:
        reference = run_sync(WorkloadSpec(target=h, **spec)).data_checksum
    return path, spec, reference


@pytest.mark.parametrize("name,queue,batch", [
    ("aio", 3, 2), ("aio", 33, 3), ("uring", 3, 2), ("uring", 33, 3),
    ("uring-fixed", 33, 3), ("uring-sqpoll", 33, 3)])
def test_native_soak_checksum_equals_simulated(soak, name, queue, batch):
    # many submits and reaps, uneven harvests and ring wrap-around
    path, spec, reference = soak
    kind = name.split("-")[0]
    features = QUEUES[name] or {}
    ok, why = (aio_native.probe() if kind == "aio" else uring_native.probe(
        **{k: v for k, v in features.items() if k != "fixed_files"}))
    if not ok:
        pytest.skip(why)
    with open_target(path, seed=17, direct=False) as h:
        rec = run(WorkloadSpec(target=h, **spec),
                  EngineConfig(kind=kind, queue_size=queue, batch_size=batch,
                               **features))
    assert rec.latency.count == 30_011
    assert rec.extra["max_inflight"] == queue
    assert rec.data_checksum == reference


@pytest.mark.parametrize("engine,threads", [
    (EngineConfig(kind="sync"), 1), (EngineConfig(kind="pool"), 2),
    (EngineConfig(kind="aio", queue_size=32, batch_size=8), 1),
    (EngineConfig(kind="uring", queue_size=8, batch_size=2), 1)],
    ids=["sync", "pool-T2", "aio-q32b8", "uring-q8b2"])
def test_checksum_across_digest_chunks(soak, engine, threads):
    # a worker digests its offsets _OFFSET_CHUNK at a time and the rest when
    # it ends; 5000 reads a worker cross a chunk boundary
    if engine.kind in ("aio", "uring"):
        _native_or_skip(engine.kind)
    path = soak[0]
    spec = dict(request_budget=5000 * threads, threads=threads, seed=8,
                verify=True)
    assert engines._OFFSET_CHUNK < 5000
    with open_target(path, seed=17, direct=False) as h:
        real = run(WorkloadSpec(target=h, **spec), engine)
    with simulated_target(preset_model("ull"), 16 << 20, seed=17) as h:
        sim = run(WorkloadSpec(target=h, **spec), engine)
    assert real.latency.count == 5000 * threads
    assert real.data_checksum == sim.data_checksum != ""


class TestRealFile:
    def test_cross_engine_checksums_match(self, tmp_path):
        path = str(tmp_path / "real.dat")
        prepare_target(path, size=1 << 22, seed=17).close()
        sums = set()
        for make in (
            lambda w: run_sync(w),
            lambda w: run_polled(w),
            lambda w: run_threadpool(w),
            lambda w: run_kernel_async(
                w, EngineConfig(kind="aio", queue_size=8,
                                allow_fallback=True)),
            lambda w: run_ring(
                w, EngineConfig(kind="uring", queue_size=8,
                                allow_fallback=True)),
        ):
            with open_target(path, seed=17, direct=False) as h:
                rec = make(workload(h, request_budget=64, verify=True))
                sums.add(rec.data_checksum)
        assert len(sums) == 1

    @pytest.mark.parametrize("block", [4096, 8192, 65536, 262144])
    @pytest.mark.parametrize("engine,threads", [
        (EngineConfig(kind="uring", queue_size=8, batch_size=2,
                      allow_fallback=True), 1),
        (EngineConfig(kind="pool"), 2)])
    def test_checksum_equals_simulated(self, tmp_path, block, engine, threads):
        # a simulated run digests the offsets it submits; real workers'
        # digests of the offsets they verified merge to the same value
        path = str(tmp_path / "real.dat")
        prepare_target(path, size=1 << 22, seed=17).close()
        with open_target(path, seed=17, direct=False) as h:
            real = run(workload(h, block_size=block, request_budget=48,
                                threads=threads, verify=True), engine)
        with simulated_target(preset_model("ull"), 1 << 22, seed=17) as h:
            sim = run(workload(h, block_size=block, request_budget=48,
                               threads=threads, verify=True), engine)
        assert real.data_checksum == sim.data_checksum != ""

    def test_simulated_verify_builds_no_pattern(self, tmp_path, monkeypatch):
        path = str(tmp_path / "real.dat")
        prepare_target(path, size=1 << 22, seed=17).close()
        spec = dict(request_budget=300, threads=2, verify=True)
        with open_target(path, seed=17, direct=False) as h:
            real = run(workload(h, **spec), EngineConfig(kind="pool"))

        def refuse(*args, **kwargs):
            raise AssertionError("a simulated run built the fill pattern")

        monkeypatch.setattr(fill, "pattern_rows", refuse)
        monkeypatch.setattr(fill, "check_blocks", refuse)
        with simulated_target(preset_model("ull"), 1 << 22, seed=17) as h:
            sim = run(workload(h, **spec), EngineConfig(kind="pool"))
        assert sim.data_checksum == real.data_checksum != ""

    @pytest.mark.parametrize("engine,threads", [
        (EngineConfig(kind="sync"), 1), (EngineConfig(kind="pool"), 2),
        (EngineConfig(kind="aio", queue_size=8, batch_size=2,
                      allow_fallback=True), 1)],
        ids=["sync", "pool-T2", "aio-q8b2"])
    def test_unverified_run_builds_no_checksum(self, real, monkeypatch,
                                               engine, threads):
        def refuse(*args, **kwargs):
            raise AssertionError("an unverified run built a checksum")

        monkeypatch.setattr(engines, "_Checksum", refuse)
        rec = run(workload(real, threads=threads), engine)
        assert rec.latency.count == 200
        assert rec.data_checksum == ""

    @pytest.mark.parametrize("offsets", [None, [0, 8192, 4096]])
    @pytest.mark.parametrize("kind", ["aio", "uring"])
    def test_scattered_reads(self, tmp_path, kind, offsets):
        _native_or_skip(kind)
        path = str(tmp_path / "real.dat")
        prepare_target(path, size=1 << 20, seed=17).close()
        with open_target(path, seed=17, direct=False) as h:
            stats = read_scattered(workload(h, request_budget=12, verify=True),
                                   EngineConfig(kind=kind, queue_size=4),
                                   offsets=offsets)
        assert stats.count == 12

    def test_corruption_detected(self, tmp_path):
        path = str(tmp_path / "bad.dat")
        prepare_target(path, size=1 << 20, seed=5).close()
        with open(path, "r+b") as f:
            f.seek(70000)
            f.write(b"\x00" if f.read(1) != b"\x00" else b"\x01")
        with open_target(path, seed=5, direct=False) as h:
            with pytest.raises(VerifyError):
                run_sync(WorkloadSpec(target=h, pattern="sequential",
                                      block_size=65536, request_budget=16,
                                      seed=1, verify=True))


@pytest.mark.parametrize("kind,threads", [("sync", 1), ("pool", 2)])
def test_flip_past_an_offset_chunk_named(tmp_path, kind, threads):
    # a worker checks 32 reads at a time.  Read k of worker 0 is block k,
    # so the batch after the first chunk's end reads the next chunk's
    # offsets and the batch after that holds the flipped block; worker 1
    # reads blocks 4224 to 8423 and never the flipped one
    bad, budget = engines._OFFSET_CHUNK + 40, 4200
    assert bad < budget < 4224
    path = str(tmp_path / "big.dat")
    prepare_target(path, size=8448 * 4096, seed=5).close()
    with open(path, "r+b") as f:
        f.seek(bad * 4096 + 77)
        byte = f.read(1)[0] ^ 0x10
        f.seek(bad * 4096 + 77)
        f.write(bytes([byte]))
    with open_target(path, seed=5, direct=False) as h:
        with pytest.raises(VerifyError) as ei:
            run(WorkloadSpec(target=h, pattern="sequential", block_size=4096,
                             request_budget=budget * threads, threads=threads,
                             seed=1, verify=True), EngineConfig(kind=kind))
    assert ei.value.offset == bad * 4096 + 72


@pytest.mark.parametrize("engine", [
    EngineConfig(kind="sync"),
    EngineConfig(kind="aio", queue_size=8, batch_size=2, allow_fallback=True)],
    ids=["sync", "aio-q8b2"])
def test_verified_batches_cross_offset_chunks(real, engine):
    # 3 offsets tile a chunk of 4098, so batches and refills cross its end
    # and take their offsets from two chunks, each block checked against
    # its own offset's pages.  8 KiB blocks at page-aligned offsets that
    # are not block-aligned check two pages per offset
    for block, offsets in ((4096, [0, 8192, 4096]),
                           (8192, [4096, 20480, 12288])):
        log = engines.duration_log(workload(real, block_size=block,
                                            request_budget=4200, verify=True),
                                   engine, offsets=offsets)
        assert len(log) == 4200


@pytest.mark.parametrize("kind", ["sync", "pool", "aio", "uring"])
def test_corruption_offset_named_by_every_engine(tmp_path, kind):
    path = str(tmp_path / "bad.dat")
    prepare_target(path, size=1 << 20, seed=5).close()
    with open(path, "r+b") as f:
        f.seek(984041)  # block 240: in the last, partial verify batch
        f.write(b"\x00" if f.read(1) != b"\x00" else b"\x01")
    threads, queue, batch = {"pool": (2, 1, 1), "aio": (1, 8, 2),
                             "uring": (1, 8, 2)}.get(kind, (1, 1, 1))
    engine = EngineConfig(kind=kind, queue_size=queue, batch_size=batch,
                          allow_fallback=True)
    for block in (4096, 8192, 65536):  # one, two and 16 pages per block
        with open_target(path, seed=5, direct=False) as h:
            with pytest.raises(VerifyError) as ei:
                run(WorkloadSpec(target=h, pattern="sequential",
                                 block_size=block, request_budget=250,
                                 threads=threads, seed=1, verify=True), engine)
        assert ei.value.offset == 984040, block


def test_probe_engines_shape():
    info = probe_engines()
    loop = info.pop("loop")
    assert set(info) == {"sync", "polled", "pool", "aio", "uring"}
    for v in info.values():
        assert "available" in v
    assert set(loop) == {"native", "detail"}
    assert loop["native"] == (hotloop.load()[0] is not None)


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_split_budget_property(total, threads):
    parts = [split_budget(total, threads, w) for w in range(threads)]
    assert sum(parts) == total
    assert max(parts) - min(parts) <= 1


class FakeClock:
    """Stands in for ``engines.time``: the clock, t seconds, moves only when
    a stub read or a stub harvest takes time."""

    def __init__(self, steps, t=100.0):
        self.t = t
        self.steps = itertools.cycle(steps)

    def perf_counter_ns(self):
        return round(self.t * 1e9)

    def tick(self):
        self.t += next(self.steps)
        return self.t


class NsClock(FakeClock):
    """A FakeClock whose t counts whole ns."""

    def perf_counter_ns(self):
        return self.t


class ClockedBackend:
    """Completes min_nr reads per wait, the oldest or the newest, each wait
    taking the next step of the fake clock; ``reads`` gets (submitted,
    completed) per completion, in harvest order."""

    def __init__(self, clock, newest_first):
        self.clock = clock
        self.queued = deque()
        self.pop = self.queued.pop if newest_first else self.queued.popleft
        self.reads = []

    def submit_reads(self, slots, offsets):
        self.queued.extend((slot, self.clock.t) for slot in slots)

    def wait(self, min_nr, timeout_s=None):
        done = self.clock.tick()
        rows = []
        for _ in range(min_nr):
            slot, submitted = self.pop()
            rows.append((slot, 4096))
            self.reads.append((submitted, done))
        return rows

    def close(self):
        pass


class TestRealWindow:
    """Warm-up and elapsed time of real-file runs, on a fake clock: the log
    holds exactly the reads submitted at or after the warm-up end, and
    elapsed runs from the warm-up end to the last logged completion."""

    START, WARMUP, DURATION = 100.0, 3.0, 3.0
    STEPS = (0.25, 0.5, 0.75)  # exact in binary, so no rounding enters

    def stub(self, order, monkeypatch):
        """Patch in a fake clock and a reader or backend on it; returns the
        list that gets (submitted, completed) per read.  A reader pins the
        Python sync loop, the one that calls it."""
        clock = FakeClock(self.STEPS, self.START)
        monkeypatch.setattr(engines, "time", clock)
        if order is None:
            monkeypatch.setattr(hotloop, "load", lambda: (None, "pinned"))
            reads = []

            def reader(handle, offset, buffer, flags=0):
                submitted, done = clock.t, clock.tick()
                reads.append((submitted, done))
                return round((done - submitted) * 1e6)

            monkeypatch.setattr(engines, "read_block", reader)
            return reads
        backend = ClockedBackend(clock, order == "newest")
        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: backend)
        return backend.reads

    @pytest.mark.parametrize("kind,order", [
        ("sync", None), ("aio", "oldest"), ("aio", "newest")])
    def test_log_and_elapsed(self, real, monkeypatch, kind, order):
        engine = (EngineConfig(kind="sync") if kind == "sync" else
                  EngineConfig(kind=kind, queue_size=4, batch_size=2))
        w = workload(real, request_budget=None, duration_s=self.DURATION,
                     warmup_s=self.WARMUP)
        warm_end = self.START + self.WARMUP
        reads = self.stub(order, monkeypatch)
        counts = LatencyCounts()
        elapsed = engines._run_real(w, engine, counts)[0]
        kept = [(s, c) for s, c in reads if s >= warm_end]
        # the window's edges are exercised: a read submitted exactly at the
        # warm-up end, warm-up reads completing after it (async), and
        # warm-up reads completing last, after every logged one (newest
        # first)
        assert any(s == warm_end for s, _ in kept)
        if kind == "aio":
            assert any(s < warm_end < c for s, c in reads)
        if order == "newest":
            assert reads[-1][0] < warm_end
        assert counted(counts) == sorted(round((c - s) * 1e6) for s, c in kept)
        last = max(c for _, c in kept)
        assert elapsed == pytest.approx(last - warm_end, abs=1e-6)

        self.stub(order, monkeypatch)
        rec = run(w, engine)
        assert rec.latency.count == len(kept)
        assert rec.throughput_mb_s == pytest.approx(
            compute_throughput(len(kept) * 4096, last - warm_end))

    def test_durations_round_to_nearest_us(self, real, monkeypatch,
                                           python_loop):
        # a 1700 ns sync read and a 2**-19 s (1.907 us, exact in binary)
        # harvest each log 2 us, not a truncated 1.  A sync read is timed on
        # the loop's clock, from its pass's stamp to its reap's, not by
        # read_block, whose clock stands still: a 1500 ns read logs 2 us,
        # not 0
        for step in (1700, 1500):
            with monkeypatch.context() as m:
                clock = NsClock((step,), 0)
                m.setattr(engines, "time", clock)
                m.setattr(target, "time",
                          SimpleNamespace(perf_counter_ns=lambda: 0))

                def preadv(fd, buffers, offset, flags=0):
                    clock.tick()
                    return len(buffers[0])

                m.setattr(target, "os", SimpleNamespace(preadv=preadv))
                log = engines.duration_log(workload(real, request_budget=3),
                                           EngineConfig())
            assert list(log) == [2, 2, 2], step
        clock = FakeClock((2.0 ** -19,), self.START)
        monkeypatch.setattr(engines, "time", clock)
        backend = ClockedBackend(clock, False)
        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: backend)
        log = engines.duration_log(workload(real, request_budget=8),
                                   EngineConfig(kind="aio", queue_size=4,
                                                batch_size=2))
        assert list(log) == [round((c - s) * 1e6) for s, c in backend.reads]
        assert list(log[:2]) == [2, 2]

        # one integer clock for both loops: reads and harvests of 1499,
        # 1500 and 2500 ns log 1, 2 and 3 us on either
        clock = NsClock((1499, 1500, 2500), 0)
        monkeypatch.setattr(target, "time", clock)
        monkeypatch.setattr(engines, "time", clock)

        def preadv(fd, buffers, offset, flags=0):
            clock.tick()
            return len(buffers[0])

        monkeypatch.setattr(target, "os", SimpleNamespace(preadv=preadv))
        log = engines.duration_log(workload(real, request_budget=3),
                                   EngineConfig())
        assert list(log) == [1, 2, 3]
        backend = ClockedBackend(clock, False)
        monkeypatch.setattr(engines, "_make_async_backend",
                            lambda *args: backend)
        log = engines.duration_log(workload(real, request_budget=6),
                                   EngineConfig(kind="aio", queue_size=2,
                                                batch_size=2))
        assert list(log) == [1, 1, 2, 2, 3, 3]


@pytest.fixture(scope="module")
def cached(tmp_path_factory):
    """A 16 MiB file, read once so that it sits in the page cache."""
    path = str(tmp_path_factory.mktemp("cached") / "cached.dat")
    prepare_target(path, size=16 << 20, seed=7).close()
    with open_target(path, seed=7, direct=False) as h:
        verify_file(h)
    return path


def traced_peak(w, engine):
    """The traced memory peak of one run, and its record."""
    tracemalloc.start()
    try:
        rec = run(w, engine)
        return tracemalloc.get_traced_memory()[1], rec
    finally:
        tracemalloc.stop()


def peak_growth(w, engine, n):
    """How much higher the traced peak of a run of budget 4n is than that
    of a run of budget n, in bytes."""
    peaks = []
    for budget in (n, 4 * n):
        peak, rec = traced_peak(replace(w, request_budget=budget), engine)
        assert rec.latency.count == budget
        peaks.append(peak)
    return peaks[1] - peaks[0]


#: a worker's dense count table grows with the longest duration it sees,
#: to at most 512 KiB, and a fold briefly holds it twice with the chunk's
#: counts: a fixed bound on what a real run holds beyond its fixed costs
REAL_RUN_BOUND = 2 << 20


@pytest.mark.parametrize("engine, threads", [
    (EngineConfig(kind="sync"), 1),
    (EngineConfig(kind="aio", queue_size=32, batch_size=8,
                  allow_fallback=True), 1),
    (EngineConfig(kind="pool"), 2)], ids=["sync", "aio", "pool"])
def test_real_run_memory_per_request(cached, engine, threads):
    # durations are folded into counts a chunk at a time, so four times the
    # requests cost no more memory; a log of 8 B per request would add
    # 3 MiB here
    with open_target(cached, seed=7, direct=False) as h:
        w = WorkloadSpec(target=h, block_size=4096, threads=threads,
                         request_budget=1, seed=1)
        growth = peak_growth(w, engine, 1 << 17)
    assert growth <= REAL_RUN_BOUND, f"{growth} B more at 4x the budget"


def test_simulated_run_memory_per_request():
    # simulated durations are at most a few hundred µs, so the counts stay
    # small; a log of 8 B per request would add 192 KiB here
    with simulated_target(preset_model("nvme"), 1 << 30, seed=1) as h:
        w = WorkloadSpec(target=h, block_size=4096, request_budget=1, seed=1)
        growth = peak_growth(
            w, EngineConfig(kind="uring", queue_size=64, batch_size=8),
            1 << 13)
    assert growth <= 64 << 10, f"{growth} B more at 4x the budget"


class TalliedCounts(LatencyCounts):
    """Counts that also tally every duration added to any of them."""

    added = 0

    def add(self, chunk):
        TalliedCounts.added += len(chunk)
        super().add(chunk)


@pytest.mark.parametrize("engine", [
    EngineConfig(kind="sync"),
    EngineConfig(kind="uring", queue_size=32, batch_size=8,
                 allow_fallback=True)], ids=["sync", "uring"])
def test_duration_run_memory_is_fixed(cached, monkeypatch, engine):
    # a 1 s run reads ~10^5-10^6 blocks; its peak stays under the fixed
    # bound whatever that number, and its record counts every read logged
    monkeypatch.setattr(engines, "LatencyCounts", TalliedCounts)
    monkeypatch.setattr(TalliedCounts, "added", 0)
    with open_target(cached, seed=7, direct=False) as h:
        peak, rec = traced_peak(WorkloadSpec(target=h, block_size=4096,
                                             duration_s=1.0, seed=1), engine)
    assert peak <= REAL_RUN_BOUND, (
        f"{peak} B peak over {rec.latency.count} reads")
    assert rec.latency.count == TalliedCounts.added > 0


@pytest.mark.parametrize("engine", [
    EngineConfig(kind="pool"),
    EngineConfig(kind="aio", queue_size=4, allow_fallback=True)],
    ids=["pool", "aio"])
def test_one_failed_worker_stops_the_run(real, monkeypatch, engine):
    # the first read (Python sync loop) or the first backend made (async
    # loop) fails; the other worker must stop at once, not run out its 30 s
    first = itertools.count()
    if engine.kind == "pool":
        monkeypatch.setattr(hotloop, "load", lambda: (None, "pinned"))
        read_block = engines.read_block

        def reader(handle, offset, buffer, flags=0):
            if next(first) == 0:
                raise IoError("injected read error")
            return read_block(handle, offset, buffer, flags)

        monkeypatch.setattr(engines, "read_block", reader)
    else:
        make = engines._make_async_backend

        class Failing(StalledBackend):
            def wait(self, min_nr, timeout_s=None):
                raise IoError("injected read error")

        monkeypatch.setattr(
            engines, "_make_async_backend",
            lambda *args: Failing() if next(first) == 0 else make(*args))
    w = workload(real, request_budget=None, duration_s=30.0, threads=2)
    t0 = time.monotonic()
    with pytest.raises(AbortedRun, match="1 worker.*injected read error"):
        run(w, engine)
    assert time.monotonic() - t0 < 2.0


def test_failed_worker_stops_a_stalled_harvest(real, monkeypatch):
    # one backend fails on its first wait, the other never completes a read;
    # the stalled worker must leave its harvest at once, not after
    # STALL_LIMIT_S, and must not count as a second failure
    first = itertools.count()
    harvesting = threading.Event()

    class Stalled(StalledBackend):
        def wait(self, min_nr, timeout_s=None):
            harvesting.set()
            return super().wait(min_nr, timeout_s)

    class Failing(StalledBackend):
        def wait(self, min_nr, timeout_s=None):
            harvesting.wait(5.0)  # fail once the other worker is harvesting
            raise IoError("injected read error")

    monkeypatch.setattr(
        engines, "_make_async_backend",
        lambda *args: Failing() if next(first) == 0 else Stalled())
    w = workload(real, request_budget=None, duration_s=30.0, threads=2)
    t0 = time.monotonic()
    with pytest.raises(AbortedRun, match="^1 worker.*injected read error"):
        run(w, EngineConfig(kind="aio", queue_size=4))
    assert time.monotonic() - t0 < 2.0


@pytest.mark.parametrize("loop", ["python", "native"])
def test_failed_worker_start_stops_the_started(real, request, monkeypatch,
                                               loop):
    # the 2nd of 3 worker starts fails: the 1st worker, which would read to
    # a 30 s deadline, is stopped and joined before the run raises, naming
    # the start that failed
    request.getfixturevalue(f"{loop}_loop")
    start, starts = threading.Thread.start, itertools.count(1)

    def failing(self):
        if next(starts) == 2:
            raise RuntimeError("can't start new thread")
        start(self)

    monkeypatch.setattr(threading.Thread, "start", failing)
    before = threading.active_count()
    t0 = time.monotonic()
    with pytest.raises(AbortedRun, match=re.escape(
            "worker 1 of 3 did not start: "
            "RuntimeError(\"can't start new thread\")")) as ei:
        run(workload(real, request_budget=None, duration_s=30.0, threads=3),
            EngineConfig(kind="pool"))
    assert time.monotonic() - t0 < 2.0
    assert threading.active_count() == before
    assert next(starts) == 3  # the 3rd worker was never started
    assert isinstance(ei.value.__cause__, RuntimeError)


def on_both_loops(monkeypatch, make):
    """(make() on the compiled loop, make() on the Python loop); each
    returns what make returns, or the error it raised."""
    def outcome():
        try:
            return make()
        except Exception as exc:  # compared by the test
            return exc

    native = outcome()
    with monkeypatch.context() as m:
        m.setattr(hotloop, "load", lambda: (None, "pinned"))
        python = outcome()
    return native, python


def counted(counts: LatencyCounts) -> list[int]:
    """Every duration the counts hold, in ascending order."""
    dense = np.repeat(np.arange(len(counts.dense)), counts.dense).tolist()
    return dense + sorted(counts.sparse.elements())


def window_run(w, engine, warm_end, deadline, after, offsets=None):
    """One worker of w in the window [warm_end, deadline): (durations
    logged, its max in flight, whether its last logged read ended after
    ``after``, its digest or None unverified, its loop)."""
    result = engines._RealWorkerResult(w)
    engines._real_worker(w, engine, 0, warm_end, deadline, ctypes.c_int(),
                         result, offsets)
    digest = result.checksum and fill.hexdigest(result.checksum.digest())
    return (len(result.counts), result.max_inflight,
            result.last_done > after, digest, result.loop)


def same_error(native, python, kind):
    """Both loops raised the same error of this kind, with the same text."""
    assert isinstance(native, kind) and type(native) is type(python)
    assert str(native) == str(python)
    cause = native.__cause__
    if cause is not None:
        assert type(cause) is type(python.__cause__)
        assert str(cause) == str(python.__cause__)


@pytest.mark.usefixtures("native_loop")
class TestNativeLoop:
    """The compiled loops against the Python loops, their reference: the
    same reads, checksums and named errors."""

    @pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
    @pytest.mark.parametrize("block", [4096, 65536])
    @pytest.mark.parametrize("kind,threads", [
        ("sync", 1), ("polled", 1), ("pool", 2)])
    def test_records_agree(self, cached, monkeypatch, kind, threads, block,
                           verify):
        # 5000 reads a worker cross an offset chunk's end
        with open_target(cached, seed=7, direct=False) as h:
            w = WorkloadSpec(target=h, block_size=block, threads=threads,
                             request_budget=5000 * threads, seed=4,
                             verify=verify)
            native, python = on_both_loops(
                monkeypatch, lambda: run(w, EngineConfig(kind=kind)))
        assert native.extra == {"max_inflight": 1, "loop": "native"}
        assert python.extra == {"max_inflight": 1, "loop": "python"}
        assert native.latency.count == python.latency.count == 5000 * threads
        assert native.data_checksum == python.data_checksum
        assert bool(native.data_checksum) == verify
        assert "Python loop" not in native.notes
        assert "native loop unavailable (pinned)" in python.notes

    @pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
    @pytest.mark.parametrize("block,offsets", [
        (4096, [0, 8192, 4096]), (65536, [65536, 0]),
        (8192, [4096, 20480, 12288])])
    def test_duration_logs_agree(self, real, monkeypatch, block, offsets,
                                 verify):
        w = workload(real, block_size=block, request_budget=4200,
                     verify=verify)
        native, python = on_both_loops(monkeypatch, lambda: engines.duration_log(
            w, EngineConfig(), offsets=offsets))
        assert len(native) == len(python) == 4200

    def test_short_read_named(self, tmp_path, monkeypatch):
        # the handle claims one block more than the file holds, and the last
        # read finds only half of it, unverified or verified
        path = str(tmp_path / "short.dat")
        prepare_target(path, size=1 << 20, seed=3).close()
        with open(path, "ab") as f:
            f.write(bytes(2048))
        with open_target(path, seed=3, direct=False) as h:
            h.capacity = (1 << 20) + 4096
            for verify in (False, True):
                w = workload(h, pattern="sequential", request_budget=257,
                             verify=verify)
                native, python = on_both_loops(monkeypatch,
                                               lambda: run_sync(w))
                same_error(native, python, AbortedRun)
                assert "short read at 1048576: 2048 of 4096 bytes" in str(
                    native)

    @pytest.mark.parametrize("offsets,error,match,budget", [
        ([0, 4096, 1 << 20], IoError, "beyond capacity", 10),
        ([0, -4096], IoError, "beyond capacity", 10),
        ([0, 6144], AlignmentError, "aligned", 10),
        ([0, 1 << 20], IoError, "beyond capacity", 1)],
        ids=["past-end", "negative", "misaligned", "past-the-budget"])
    def test_refused_offsets_named(self, real, monkeypatch, offsets, error,
                                   match, budget):
        # a chunk is refused whole, before any read, even where the budget
        # ends before its bad offset
        real.direct = True  # the refusals come before any read
        w = workload(real, request_budget=budget)
        native, python = on_both_loops(monkeypatch, lambda: engines.duration_log(
            w, EngineConfig(), offsets=offsets))
        same_error(native, python, error)
        assert match in str(native)

    def test_flipped_byte_named(self, tmp_path, monkeypatch):
        path = str(tmp_path / "bad.dat")
        prepare_target(path, size=1 << 20, seed=5).close()
        with open(path, "r+b") as f:
            f.seek(500_001)
            f.write(b"\x00" if f.read(1) != b"\x00" else b"\x01")
        with open_target(path, seed=5, direct=False) as h:
            w = workload(h, pattern="sequential", request_budget=256,
                         verify=True)
            native, python = on_both_loops(monkeypatch, lambda: run_sync(w))
        same_error(native, python, VerifyError)
        assert native.offset == python.offset == 500_000

    @pytest.mark.parametrize("block", [4096, 8192, 65536, 131072, 262144,
                                       1 << 20])
    @pytest.mark.parametrize("name", ["sync", "pool", "aio", "uring",
                                      "uring-fixed"])
    def test_flipped_words_named(self, tmp_path, monkeypatch, name, block):
        # a byte of the first, a middle or the last word of each page of
        # block 2 flipped in turn (of the first two, a middle and the last
        # two pages above 128 KiB): the compiled loop checks in C, then
        # fill.check_blocks names the word, as on the Python loop
        path = str(tmp_path / "flip.dat")
        prepare_target(path, size=max(1 << 20, 4 * block), seed=5).close()
        n = block // 4096
        pages = range(n) if n <= 32 else (0, 1, n // 2, n - 2, n - 1)
        threads = 2 if name == "pool" else 1
        engine = (EngineConfig(kind=name) if name in ("sync", "pool")
                  else async_engine(name, 4, 2))
        fd = os.open(path, os.O_RDWR)
        try:
            with open_target(path, seed=5, direct=False) as h:
                w = WorkloadSpec(target=h, pattern="sequential",
                                 block_size=block, threads=threads,
                                 request_budget=4 * threads, seed=1,
                                 verify=True)
                for page in pages:
                    for word in (0, 255, 511):
                        at = 2 * block + page * 4096 + word * 8
                        byte = os.pread(fd, 1, at + 3)
                        os.pwrite(fd, bytes([byte[0] ^ 0x10]), at + 3)
                        try:
                            native, python = on_both_loops(
                                monkeypatch, lambda: run(w, engine))
                        finally:
                            os.pwrite(fd, byte, at + 3)
                        same_error(native, python, VerifyError)
                        assert native.offset == at, (page, word)
                        assert str(native) == (
                            f"data mismatch at byte offset {at}")
        finally:
            os.close(fd)

    @pytest.mark.parametrize("name", ["sync", "pool", "aio", "uring"])
    def test_old_pattern_named(self, tmp_path, monkeypatch, name):
        # the fill of earlier versions, mix64(seed ^ o) in the word at o,
        # differs first at word 1; it fills only the first half, where
        # worker 0 of pool reads, as a run names whichever worker's bad
        # block it finds first, and worker 1 starts at the second half
        path = tmp_path / "old.dat"
        prepare_target(str(path), size=1 << 20, seed=5).close()
        words = np.arange(0, 1 << 19, 8, dtype=np.uint64) ^ np.uint64(5)
        with open(path, "r+b") as f:
            f.write(rng.mix64_array(words).astype("<u8").tobytes())
        threads = 2 if name == "pool" else 1
        engine = (EngineConfig(kind=name) if name in ("sync", "pool")
                  else async_engine(name, 4, 2))
        with open_target(str(path), seed=5, direct=False) as h:
            w = WorkloadSpec(target=h, pattern="sequential", threads=threads,
                             request_budget=4 * threads, seed=1, verify=True)
            native, python = on_both_loops(monkeypatch, lambda: run(w, engine))
        same_error(native, python, VerifyError)
        assert str(native) == ("data at byte offset 8 has the old fill "
                               "pattern; prepare the file again")

    @pytest.mark.parametrize("block", [4096, 262144, 1 << 20])
    @pytest.mark.parametrize("name", ["sync", "pool", "aio", "uring",
                                      "uring-fixed"])
    def test_verified_loop_needs_hashes(self, cached, monkeypatch, name,
                                        block):
        # every verified run checks in C, whatever the block size, hashing
        # each page from the fill seed there: the stream and page-aligned
        # explicit offsets read on the compiled loop, with the Python loop's
        # digest; offsets off the page are refused on both loops, before
        # any arena or queue is made
        threads = 2 if name == "pool" else 1
        engine = (EngineConfig(kind=name) if name in ("sync", "pool")
                  else async_engine(name, 4, 2))
        with open_target(cached, seed=7, direct=False) as h:
            w = WorkloadSpec(target=h, block_size=block, threads=threads,
                             request_budget=16 * threads, seed=4,
                             verify=True)
            for offsets in (None, [4096, 0, 3 * block]):
                native, python = on_both_loops(monkeypatch, lambda: window_run(
                    w, engine, -math.inf, math.inf, 0, offsets))
                assert native[0] == 16 and native[3]
                assert native[:4] == python[:4]
                assert (native[4], python[4]) == ("native", "python")
            native, python = on_both_loops(monkeypatch, lambda: run(w, engine))
            assert native.extra["loop"] == "native"
            assert native.data_checksum == python.data_checksum != ""
            made = []
            for hook in ("_arena", "_make_async_backend"):
                monkeypatch.setattr(engines, hook,
                                    lambda *args: made.append(args))
            native, python = on_both_loops(monkeypatch, lambda: window_run(
                w, engine, -math.inf, math.inf, 0, [2048, 8192]))
        same_error(native, python, ValueError)
        assert str(native) == "verified reads need page-aligned offsets"
        assert made == []

    @pytest.mark.parametrize("block,piece", [(4096, 3), (65536, 16)])
    @pytest.mark.parametrize("name", ["sync", "pool", "aio", "uring"])
    def test_refills_span_hash_pieces(self, cached, monkeypatch, name, block,
                                      piece):
        # offset chunks of 3 or of 16 make the Python loop's refills of 8
        # take their offsets from several of them or across their ends, and
        # the compiled loops hand over a log of 3 or 16 and a queue's depth:
        # both loops read what a run on chunks of 4096 reads
        threads = 2 if name == "pool" else 1
        engine = (EngineConfig(kind=name) if name in ("sync", "pool")
                  else async_engine(name, 32, 8))
        with open_target(cached, seed=7, direct=False) as h:
            w = WorkloadSpec(target=h, block_size=block, threads=threads,
                             request_budget=4200 * threads, seed=4,
                             verify=True)
            whole = run(w, engine)
            monkeypatch.setattr(engines, "_OFFSET_CHUNK", piece)
            native, python = on_both_loops(monkeypatch, lambda: run(w, engine))
        assert (native.extra["loop"], python.extra["loop"]) == (
            "native", "python")
        for rec in (native, python):
            assert rec.data_checksum == whole.data_checksum != ""
            assert rec.latency.count == whole.latency.count == 4200 * threads
            assert rec.extra["max_inflight"] == whole.extra["max_inflight"]

    @pytest.mark.parametrize("block", [4096, 1 << 20])
    @pytest.mark.parametrize("name", ["sync", "pool", "aio", "uring"])
    def test_compiled_check_draws_no_page_hashes(self, cached, monkeypatch,
                                                 name, block):
        # the compiled loop hashes each page from the fill seed itself: with
        # fill.page_hashes refusing once the file is prepared, a verified
        # run on it reads and digests what the Python loop does
        threads = 2 if name == "pool" else 1
        engine = (EngineConfig(kind=name) if name in ("sync", "pool")
                  else async_engine(name, 32, 8))
        budget = (4200 if block == 4096 else 40) * threads
        with open_target(cached, seed=7, direct=False) as h:
            w = WorkloadSpec(target=h, block_size=block, threads=threads,
                             request_budget=budget, seed=4, verify=True)
            with monkeypatch.context() as m:
                m.setattr(hotloop, "load", lambda: (None, "pinned"))
                python = run(w, engine)

            def refuse(*args, **kwargs):
                raise AssertionError("page hashes drawn in Python")

            monkeypatch.setattr(fill, "page_hashes", refuse)
            native = run(w, engine)
        assert (native.extra["loop"], python.extra["loop"]) == (
            "native", "python")
        assert native.latency.count == python.latency.count == budget
        assert native.data_checksum == python.data_checksum != ""

    @pytest.mark.parametrize("name", ["sync", "pool", "aio", "uring"])
    def test_disagreeing_checks_named(self, real, monkeypatch, name):
        # a ramp of zeros makes the compiled check refuse every block, which
        # fill.check_blocks passes: the run ends naming the disagreement
        lib, where = hotloop.load()
        zeros = np.zeros_like(fill.RAMP)

        def lying(loop):  # the ramp is each loop's last argument
            return lambda *args: loop(*args[:-1], zeros.ctypes.data)

        monkeypatch.setattr(hotloop, "load", lambda: (SimpleNamespace(
            rb_async_loop=lying(lib.rb_async_loop)), where))
        threads = 2 if name == "pool" else 1
        engine = (EngineConfig(kind=name) if name in ("sync", "pool")
                  else async_engine(name, 4, 2))
        w = workload(real, request_budget=8 * threads, threads=threads,
                     verify=True)
        with pytest.raises(AbortedRun) as ei:
            run(w, engine)
        cause = ei.value.__cause__
        assert type(cause) is RuntimeError
        assert re.fullmatch(r"the compiled loop refused the block at byte "
                            r"offset \d+, which fill.check_blocks passes",
                            str(cause))

    def test_polled_flags_reach_preadv2(self, real, monkeypatch):
        # an RWF bit no kernel defines: each loop passes the polled flags to
        # preadv2, which refuses them, and the run names that refusal
        monkeypatch.setattr(engines, "polled_flags", lambda *args: 0x40000000)
        w = workload(real, request_budget=8)
        native, python = on_both_loops(
            monkeypatch, lambda: run(w, EngineConfig(kind="polled")))
        same_error(native, python, AbortedRun)
        assert type(native.__cause__) is OSError
        assert native.__cause__.errno == errno.EOPNOTSUPP

    @pytest.mark.parametrize("kind", ["sync", "aio", "uring"])
    def test_closed_target_refused_before_any_arena(self, real, monkeypatch,
                                                    kind):
        # the compiled loop checks no drawn offset, so the one check of the
        # offsets refuses a closed handle too, before the arena is made
        made = []
        monkeypatch.setattr(engines, "_arena",
                            lambda *args: made.append(args))
        real.close()
        engine = (EngineConfig(kind=kind) if kind == "sync"
                  else async_engine(kind, 4, 2))
        native, python = on_both_loops(
            monkeypatch, lambda: run(workload(real), engine))
        same_error(native, python, AbortedRun)
        assert type(native.__cause__) is IoError
        assert str(native.__cause__).startswith("target has no open file")
        assert made == []

    @pytest.mark.parametrize("stream", ["random", "sequential", "list"])
    @pytest.mark.parametrize("name,threads", [
        ("sync", 1), ("pool", 1), ("pool", 2), ("aio", 1), ("aio", 2),
        ("uring", 1), ("uring", 2)])
    def test_compiled_file_loop_draws_its_own_streams(
            self, cached, monkeypatch, name, threads, stream):
        # the compiled loop draws each worker's offsets itself: with the
        # Python draws refusing, it returns only to hand over a full log,
        # and its run is the Python loop's, in reads, checksum and most in
        # flight.  A sequential worker wraps the file's 4096 blocks
        engine = (EngineConfig(kind=name) if name in ("sync", "pool")
                  else async_engine(name, 32, 8))
        if stream == "list":
            listed = [(b * 7919 % 4096) * 4096 for b in range(300)]
            worker_offsets(monkeypatch, lambda w: listed)
        lib, where = hotloop.load()
        seen = {}  # per worker's state: it, its calls, durations logged

        def counted(queue, state, *args):
            status = lib.rb_async_loop(queue, state, *args)
            entry = seen.setdefault(id(state), [state, 0, 0])
            entry[1] += 1
            entry[2] += state.logged
            return status

        def refuse(*args):
            raise AssertionError("offsets were drawn in numpy")

        for verify in (False, True):
            with open_target(cached, seed=7, direct=False) as h:
                w = WorkloadSpec(target=h, threads=threads, seed=4,
                                 pattern=("sequential" if stream == "sequential"
                                          else "random"),
                                 request_budget=5000 * threads, verify=verify)
                with monkeypatch.context() as m:
                    m.setattr(hotloop, "load", lambda: (None, "pinned"))
                    python = run(w, engine)
                with monkeypatch.context() as m:
                    m.setattr(engines, "offset_stream", refuse)
                    m.setattr(rng, "u64_chunks", refuse)
                    m.setattr(hotloop, "load", lambda: (SimpleNamespace(
                        rb_async_loop=counted), where))
                    native = run(w, engine)
            assert native.extra == {**python.extra, "loop": "native"}
            assert (native.latency.count == python.latency.count
                    == 5000 * threads)
            assert native.data_checksum == python.data_checksum
            assert bool(native.data_checksum) == verify
        assert len(seen) == 2 * threads
        for _, calls, logged in seen.values():
            assert logged == 5000
            assert calls <= -(-logged // engines._OFFSET_CHUNK) + 1

    def test_stop_word_ends_a_pool_run(self, real, monkeypatch):
        # worker 1's first read comes up short; worker 0 reads block 0 in
        # the compiled loop, which only the stop word ends before 30 s
        real.capacity += 4096
        worker_offsets(monkeypatch, lambda w: [1 << 20 if w else 0])
        w = workload(real, request_budget=None, duration_s=30.0, threads=2)
        t0 = time.monotonic()
        with pytest.raises(AbortedRun, match="^1 worker.*short read"):
            run(w, EngineConfig(kind="pool"))
        assert time.monotonic() - t0 < 1.0

    def test_window(self, real, monkeypatch):
        # a deadline already past reads nothing; a warm-up end still ahead
        # reads every block of the budget and logs none; an open window
        # logs every read, the last one done after the window opened.  A
        # verified run digests every read it made, logged or not
        now = time.perf_counter_ns()
        for verify in (False, True):
            w = workload(real, verify=verify)
            native, python = on_both_loops(monkeypatch, lambda: [
                window_run(w, EngineConfig(), *edges, now) for edges in (
                    (-math.inf, now), (now + 60 * 10 ** 9, math.inf),
                    (now, math.inf))])
            assert [r[:3] for r in native] == [
                (0, 0, False), (0, 1, False), (200, 1, True)]
            assert [r[4] for r in native] == ["native"] * 3
            assert [r[:4] for r in python] == [r[:4] for r in native]
            digests = [r[3] for r in native]
            assert (digests[1] == digests[2] != digests[0]) if verify else (
                digests == [None] * 3)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("queue,batch", [(1, 1), (7, 3), (32, 8)])
    @pytest.mark.parametrize("name", ["aio", "uring", "uring-fixed",
                                      "uring-sqpoll"])
    def test_async_records_agree(self, cached, monkeypatch, name, queue,
                                 batch, threads):
        # 5000 reads a worker cross an offset chunk's end, and refills of 3
        # split one across it.  A deadline already past submits nothing; a
        # warm-up end still ahead fills the queue and logs nothing; an open
        # window logs every read, the last one done after it opened.  A
        # verified run, checked in C on the compiled loop, digests every
        # read it made, logged or not
        engine = async_engine(name, queue, batch)
        now = time.perf_counter_ns()
        for verify in (False, True):
            with open_target(cached, seed=7, direct=False) as h:
                w = WorkloadSpec(target=h, block_size=4096, threads=threads,
                                 request_budget=5000 * threads, seed=4,
                                 verify=verify)
                native, python = on_both_loops(monkeypatch,
                                               lambda: run(w, engine))
                windows = on_both_loops(monkeypatch, lambda: [
                    window_run(w, engine, *edges, now) for edges in (
                        (-math.inf, now), (now + 60 * 10 ** 9, math.inf),
                        (now, math.inf))])
            assert native.extra == {"max_inflight": queue, "loop": "native"}
            assert python.extra == {"max_inflight": queue, "loop": "python"}
            assert (native.latency.count == python.latency.count
                    == 5000 * threads)
            assert native.data_checksum == python.data_checksum
            assert bool(native.data_checksum) == verify
            assert [r[:3] for r in windows[0]] == [
                (0, 0, False), (0, queue, False), (5000, queue, True)]
            assert [r[:4] for r in windows[1]] == [r[:4] for r in windows[0]]
            digests = [r[3] for r in windows[0]]
            assert (digests[1] == digests[2] != digests[0]) if verify else (
                digests == [None] * 3)

    @pytest.mark.parametrize("kind", ["aio", "uring"])
    def test_async_short_read_named(self, tmp_path, monkeypatch, kind):
        # the handle claims one block more than the file holds, and each
        # read of that block finds only half of it, unverified or verified
        _native_or_skip(kind)
        path = str(tmp_path / "short.dat")
        prepare_target(path, size=1 << 20, seed=3).close()
        with open(path, "ab") as f:
            f.write(bytes(2048))
        with open_target(path, seed=3, direct=False) as h:
            h.capacity = (1 << 20) + 4096
            for verify in (False, True):
                w = workload(h, request_budget=10, verify=verify)
                native, python = on_both_loops(
                    monkeypatch, lambda: engines.duration_log(
                        w, EngineConfig(kind=kind, queue_size=2),
                        offsets=[0, 1 << 20]))
                same_error(native, python, IoError)
                assert str(native) == "async read at 1048576 returned 2048"

    @pytest.mark.parametrize("kind,text", [
        ("aio", "io_submit submitted 1 of 4 reads"),
        ("uring", "async read at -4096 returned -22")])
    def test_kernel_refusal_named(self, real, monkeypatch, kind, text):
        # with the bounds check off, the kernel refuses the negative offset
        # itself: AIO at submit, after taking the read before it, and the
        # ring in that read's completion
        _native_or_skip(kind)
        monkeypatch.setattr(engines, "check_offsets", lambda *args: None)
        w = workload(real, request_budget=8)
        native, python = on_both_loops(monkeypatch, lambda: engines.duration_log(
            w, EngineConfig(kind=kind, queue_size=4), offsets=[0, -4096]))
        same_error(native, python, IoError)
        assert str(native) == text

    def test_failed_aio_run_cancels_reads_in_flight(self, real, monkeypatch):
        # worker 1's first submit stops at the kernel's refusal with one read
        # in flight, which close must cancel before the buffers are freed;
        # worker 0 stops and drains its queue
        _native_or_skip("aio")
        destroy, closed = aio_native._destroy, []

        def recording(ctx, drained):
            closed.append(drained)
            destroy(ctx, drained)

        monkeypatch.setattr(aio_native, "_destroy", recording)
        monkeypatch.setattr(engines, "check_offsets", lambda *args: None)
        worker_offsets(monkeypatch, lambda w: [0, -4096] if w else None)
        w = workload(real, request_budget=None, duration_s=30.0, threads=2)
        with pytest.raises(AbortedRun,
                           match="^1 worker.*io_submit submitted 1 of 4"):
            run(w, EngineConfig(kind="aio", queue_size=4))
        assert sorted(closed) == [False, True]

    def test_stop_word_ends_a_ring_run(self, real, monkeypatch):
        # worker 1's reads lie past the file's end; worker 0 reads block 0
        # in the compiled loop, which only the stop word ends before 30 s
        _native_or_skip("uring")
        real.capacity += 4096
        worker_offsets(monkeypatch, lambda w: [1 << 20 if w else 0])
        w = workload(real, request_budget=None, duration_s=30.0, threads=2)
        t0 = time.monotonic()
        with pytest.raises(AbortedRun, match="^1 worker.*async read at "
                                             "1048576 returned 0"):
            run(w, EngineConfig(kind="uring", queue_size=8, batch_size=2))
        assert time.monotonic() - t0 < 1.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_ring_overflow_named(self, real, monkeypatch, threads):
        # the first ring counts 3 completions dropped as soon as it is
        # built: the compiled loop, which never calls wait, ends the run
        # naming them at its first wait, where it would otherwise wait for
        # them until STALL_LIMIT_S
        _native_or_skip("uring")
        init, made = uring_native.UringQueue.__init__, itertools.count()

        def lossy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if next(made) == 0:
                self._cq_overflow.value = 3

        def refuse(self, *args):
            raise AssertionError("the compiled loop called wait")

        monkeypatch.setattr(uring_native.UringQueue, "__init__", lossy)
        monkeypatch.setattr(uring_native.UringQueue, "wait", refuse)
        monkeypatch.setattr(engines, "STALL_LIMIT_S", 5.0)
        for verify in (False, True):
            made = itertools.count()  # the first ring of each run is lossy
            w = workload(real, request_budget=None, duration_s=30.0,
                         threads=threads, verify=verify)
            t0 = time.monotonic()
            with pytest.raises(AbortedRun, match="^1 worker") as ei:
                run(w, EngineConfig(kind="uring", queue_size=8, batch_size=2))
            assert time.monotonic() - t0 < 2.0
            assert isinstance(ei.value.__cause__, IoError)
            assert str(ei.value.__cause__) == (
                "completion ring overflowed: 3 completion(s) lost")


    @pytest.mark.parametrize("data,slot", [(9, 9), (2 ** 64 - 1, -1), (0, 0)],
                             ids=["past-queue", "negative", "repeated"])
    @pytest.mark.parametrize("kind", ["aio", "uring"])
    def test_unknown_slot_named(self, real, monkeypatch, kind, data, slot):
        # slot 1's request block carries another slot's user data, so the
        # kernel posts its completion for that slot: one past the queue,
        # -1 (the ring's slot is the low word), or slot 0 a second time
        _native_or_skip(kind)
        make = engines._make_async_backend

        def misnumbered(*args):
            q = make(*args)
            if kind == "aio":
                q._iocbs["aio_data"][1] = data
            else:
                sqes = np.frombuffer(q._mmaps[1], dtype=uring_native._SQE)
                sqes["user_data"][1] = data
                del sqes  # a view of the mapping would keep close from it
            return q

        monkeypatch.setattr(engines, "_make_async_backend", misnumbered)
        for verify in (False, True):
            w = workload(real, request_budget=4, verify=verify)
            native, python = on_both_loops(
                monkeypatch, lambda: engines.duration_log(
                    w, EngineConfig(kind=kind, queue_size=4)))
            same_error(native, python, IoError)
            assert str(native) == (f"completion for unknown slot {slot} of "
                                   "4 (no read in flight)")

    def test_stalled_ring_named(self, real, monkeypatch, pipe_rings):
        # the ring reads an empty pipe, so no read ever completes
        _native_or_skip("uring")
        monkeypatch.setattr(engines, "HARVEST_TIMEOUT_S", 0.05)
        monkeypatch.setattr(engines, "STALL_LIMIT_S", 0.2)
        for verify in (False, True):
            w = workload(real, request_budget=4, verify=verify)
            native, python = on_both_loops(
                monkeypatch, lambda: engines.duration_log(
                    w, EngineConfig(kind="uring", queue_size=4)))
            for exc in (native, python):
                assert type(exc) is IoError
                assert str(exc).startswith(
                    "harvest stalled: no completion in 0.")

    def test_timed_out_wait_noted(self, real, monkeypatch, pipe_rings):
        # each read of the pipe completes once a writer fills it, 0.1 s
        # later: the waits before run out their timeout, and the run says so
        _native_or_skip("uring")
        wfd = pipe_rings
        monkeypatch.setattr(engines, "HARVEST_TIMEOUT_S", 0.02)

        def write():
            for _ in range(2):
                time.sleep(0.1)
                os.write(wfd, bytes(4096))

        def noted():
            writer = threading.Thread(target=write)
            writer.start()
            try:
                return run(workload(real, request_budget=2),
                           EngineConfig(kind="uring"))
            finally:
                writer.join(5.0)

        native, python = on_both_loops(monkeypatch, noted)
        assert native.extra["loop"] == "native"
        for rec in (native, python):
            assert rec.latency.count == 2
            assert "harvest stalled beyond timeout" in rec.notes

    def test_failed_worker_stops_a_stalled_ring(self, real, monkeypatch,
                                                pipe_rings):
        # worker 0's ring reads an empty pipe; worker 1 fails 0.2 s in, and
        # worker 0 must leave its wait at once, not after STALL_LIMIT_S, and
        # not count as a second failure
        _native_or_skip("uring")

        def failing(w):
            if w:
                time.sleep(0.2)
                raise IoError("injected offset error")

        worker_offsets(monkeypatch, failing)
        monkeypatch.setattr(engines, "HARVEST_TIMEOUT_S", 0.05)
        monkeypatch.setattr(engines, "STALL_LIMIT_S", 5.0)
        w = workload(real, request_budget=None, duration_s=30.0, threads=2)
        t0 = time.monotonic()
        with pytest.raises(AbortedRun, match="^1 worker.*injected offset"):
            run(w, EngineConfig(kind="uring", queue_size=4))
        assert time.monotonic() - t0 < 2.0


def worker_offsets(monkeypatch, given):
    """Has worker w of each real run read the offsets ``given(w)``: a list,
    or None for its own stream; an error it raises is the worker's."""
    worker = engines._real_worker
    monkeypatch.setattr(engines, "_real_worker",
                        lambda workload, engine, w, *args: worker(
                            workload, engine, w, *args, given(w)))


@pytest.fixture
def pipe_rings(monkeypatch):
    """Makes every async backend of a run a ring that reads an empty pipe,
    whose reads complete only once written; yields the pipe's write end."""
    rfd, wfd = os.pipe()
    monkeypatch.setattr(
        engines, "_make_async_backend",
        lambda engine, handle, depth, bufs, notes: uring_native.UringQueue(
            rfd, depth, bufs))
    yield wfd
    os.close(rfd)
    os.close(wfd)


def async_engine(name, queue, batch):
    """The EngineConfig of a QUEUES name, or a skip."""
    kind, features = name.split("-")[0], QUEUES[name] or {}
    ok, why = (aio_native.probe() if kind == "aio" else uring_native.probe(
        **{k: v for k, v in features.items() if k != "fixed_files"}))
    if not ok:
        pytest.skip(why)
    return EngineConfig(kind=kind, queue_size=queue, batch_size=batch,
                        **features)


def test_no_compiler_falls_back_with_a_note(real, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    hotloop.load.cache_clear()
    try:
        rec = run(workload(real), EngineConfig(kind="sync"))
        probed = probe_engines()["loop"]
    finally:
        hotloop.load.cache_clear()
    why = "no C compiler: cc is not on PATH"
    assert rec.latency.count == 200
    assert rec.extra["loop"] == "python"
    assert rec.notes == f"native loop unavailable ({why}), reads timed on " \
                        "the Python loop"
    assert probed == {"native": False, "detail": why}
    assert not (tmp_path / "cache").exists()


def test_loop_source_compiles_without_warnings(tmp_path):
    # built as load builds it, since some warnings (-Wmaybe-uninitialized)
    # fire only once optimised; skips only where there is no cc, as the
    # native_loop fixture does
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler: cc is not on PATH")
    proc = subprocess.run(
        [cc, *hotloop._CFLAGS, "-Wall", "-Wextra", "-Werror", "-o",
         str(tmp_path / "loop.so"), str(hotloop.SOURCE), *hotloop._LIBS],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


#: each ctypes mirror of a struct of the compiled loops, and its C name
MIRRORS = {hotloop.Queue: "rb_queue", hotloop.AsyncState: "rb_async",
           hotloop.SimLoop: "rb_sim", hotloop.Streams: "rb_streams"}


def test_ctypes_mirrors_match_the_structs(tmp_path):
    # a probe built with the loop source prints each struct's size and the
    # offset of every field the mirror names; skips only where there is no cc
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler: cc is not on PATH")
    lines = [f'printf("%zu\\n", sizeof(struct {c}));\n' + "".join(
        f'printf("%zu\\n", offsetof(struct {c}, {name}));\n'
        for name, _ in mirror._fields_) for mirror, c in MIRRORS.items()]
    probe = tmp_path / "probe.c"
    probe.write_text(f'#include "{hotloop.SOURCE}"\n#include <stddef.h>\n'
                     f'#include <stdio.h>\nint main(void)\n{{\n'
                     f'{"".join(lines)}return 0;\n}}\n')
    built = subprocess.run(
        [cc, "-o", str(tmp_path / "probe"), str(probe), "-lm"],
        capture_output=True, text=True, timeout=120)
    assert built.returncode == 0, built.stderr
    printed = subprocess.run([str(tmp_path / "probe")], capture_output=True,
                             text=True, timeout=60, check=True).stdout
    want = [n for mirror in MIRRORS for n in (
        ctypes.sizeof(mirror),
        *(getattr(mirror, name).offset for name, _ in mirror._fields_))]
    assert list(map(int, printed.split())) == want


#: runs of every compiled path, each checked for its read count and loop,
#: and the heavy-tail jitter of 5000 draws, checked against Python's, in a
#: child whose loops are built with the flags given as its arguments
_SANITIZED_RUNS = """
import itertools, sys
import numpy as np
from readbench import aio_native, hotloop, rng, uring_native
from readbench.devicesim import DeviceModel, preset_model
from readbench.engines import EngineConfig, WorkloadSpec, duration_log, run
from readbench.target import open_target, prepare_target, simulated_target

hotloop._CFLAGS += tuple(sys.argv[2:])
hotloop.load.cache_clear()
lib, detail = hotloop.load()
if lib is None:
    sys.exit(f"unbuilt: {detail}")
draws = np.array([0.0, 2.0 ** -64, 1 - 2.0 ** -53, 1.0,
                  *itertools.islice(rng.uniform_floats(1), 5000)])
got = np.empty_like(draws)
lib.rb_heavy_tail(draws.ctypes.data, got.ctypes.data, len(draws), 9.0)
assert got.tobytes() == np.array([u ** 9 for u in draws.tolist()]).tobytes()
configs = [EngineConfig(kind="sync"), EngineConfig(kind="polled"),
           EngineConfig(kind="pool")]
if aio_native.probe()[0]:
    configs.append(EngineConfig(kind="aio", queue_size=4, batch_size=2))
if uring_native.probe(fixed_buffers=True)[0]:
    configs += [EngineConfig(kind="uring", queue_size=4, batch_size=2),
                EngineConfig(kind="uring", queue_size=4, batch_size=2,
                             fixed_files=True, fixed_buffers=True)]
prepare_target(sys.argv[1], size=1 << 22, seed=3).close()
with open_target(sys.argv[1], seed=3, direct=False) as real:
    for engine in configs:  # the check hashes 256 pages of a 1 MiB block
        threads = 2 if engine.kind == "pool" else 1
        rec = run(WorkloadSpec(target=real, block_size=1 << 20,
                               threads=threads, seed=3,
                               request_budget=40 * threads, verify=True),
                  engine)
        assert rec.latency.count == 40 * threads, engine
        assert rec.extra["loop"] == "native", engine
    for verify in (False, True):
        for engine in configs:  # each stream, one worker and two if it can
            for pattern in ("random", "sequential"):
                for threads in ((1,) if engine.kind in ("sync", "polled")
                                else (1, 2)):
                    rec = run(WorkloadSpec(
                        target=real, pattern=pattern, threads=threads,
                        seed=3, request_budget=5000 * threads,
                        verify=verify), engine)
                    assert rec.latency.count == 5000 * threads, engine
                    assert rec.extra["loop"] == "native", engine
            log = duration_log(WorkloadSpec(target=real, request_budget=5000,
                                            verify=verify),
                               engine, [0, 8192, 4096])
            assert len(log) == 5000, engine
        # the disk, a model whose requests in service are a ring (ull), and
        # one whose jitter reorders them in the heap, 8 deep at two workers
        for model in (preset_model("hdd"), preset_model("ull"),
                      DeviceModel(kind="custom", base_latency_us=5.0,
                                  parallelism=16, jitter_kind="uniform",
                                  jitter_scale_us=200.0, rng_seed=23)):
            with simulated_target(model, 1 << 26) as sim:
                for pattern in ("random", "sequential"):
                    for threads in (1, 2):
                        rec = run(WorkloadSpec(
                            target=sim, pattern=pattern, threads=threads,
                            request_budget=5000 * threads, verify=verify),
                            EngineConfig(kind="aio", queue_size=4,
                                         batch_size=2))
                        assert rec.latency.count == 5000 * threads, model
                log = duration_log(
                    WorkloadSpec(target=sim, request_budget=5000,
                                 verify=verify),
                    EngineConfig(kind="aio", queue_size=4, batch_size=2),
                    [0, 8192, 4096])
                assert len(log) == 5000, model
"""


def test_loops_clean_under_ubsan(tmp_path):
    # every compiled path, built with UBSan, which aborts the child at its
    # first report; skips only where cc cannot build the loops so
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler: cc is not on PATH")
    src = os.path.dirname(os.path.dirname(engines.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _SANITIZED_RUNS, str(tmp_path / "real.dat"),
         "-fsanitize=undefined,float-cast-overflow",
         "-fno-sanitize-recover=all"],
        env=env, capture_output=True, text=True, timeout=300)
    if proc.stderr.startswith("unbuilt: "):
        pytest.skip(f"cc cannot build the loops with UBSan: "
                    f"{proc.stderr[9:].strip()}")
    assert proc.returncode == 0, proc.stderr


def test_loop_built_once_per_cache(tmp_path, monkeypatch, native_loop):
    # built under a temporary name and renamed, then loaded from the cache;
    # a cache that cannot be a directory builds into a private one
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    try:
        hotloop.load.cache_clear()
        built = hotloop.load()[1]
        stamp = os.stat(built).st_mtime_ns
        hotloop.load.cache_clear()
        assert hotloop.load()[1] == built
        assert os.stat(built).st_mtime_ns == stamp
        assert os.listdir(tmp_path / "cache" / "readbench") == [
            os.path.basename(built)]
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        hotloop.load.cache_clear()
        loop, private = hotloop.load()
    finally:
        hotloop.load.cache_clear()
    assert loop is not None
    assert not private.startswith(str(tmp_path))

"""Engine configuration, simulated runs, and real-file cross-checks."""

import ctypes
import errno
import threading
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readbench import aio_native, engines, uring_native
from readbench.devicesim import DeviceModel, preset_model
from readbench.engines import (EngineConfig, RunRecord, WorkloadSpec,
                               offset_stream, probe_engines, read_scattered,
                               run, run_kernel_async, run_polled, run_ring,
                               run_sync, run_threadpool, split_budget)
from readbench.errors import (AbortedRun, EngineUnsupported, IoError,
                              VerifyError)
from readbench.target import open_target, prepare_target, simulated_target


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
            def submit_reads(self, entries):
                self.slots = [slot for slot, _, _ in entries]

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

    def submit_reads(self, entries):
        pass

    def wait(self, min_nr, timeout_s=None):
        return []

    def close(self):
        pass


class TrickleBackend:
    """Completes one read per wait call, oldest first."""

    def __init__(self):
        self.queued = deque()
        self.submits = []  # entries per submit_reads call

    def submit_reads(self, entries):
        self.submits.append(len(entries))
        self.queued.extend(entries)

    def wait(self, min_nr, timeout_s=None):
        slot, _, buf = self.queued.popleft()
        return [(slot, len(buf))]

    def close(self):
        pass


def _native_or_skip(kind):
    ok, why = {"aio": aio_native, "uring": uring_native}[kind].probe()
    if not ok:
        pytest.skip(why)


class TestFaults:
    @pytest.fixture
    def real(self, tmp_path):
        path = str(tmp_path / "real.dat")
        prepare_target(path, size=1 << 20, seed=3).close()
        with open_target(path, seed=3, direct=False) as h:
            yield h

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

    def test_harvest_waits_for_a_full_batch(self, real, monkeypatch):
        made = []

        def trickle(*args):
            made.append(TrickleBackend())
            return made[-1]

        monkeypatch.setattr(engines, "_make_async_backend", trickle)
        run(workload(real, request_budget=40),
            EngineConfig(kind="aio", queue_size=8, batch_size=4))
        assert made[0].submits == [8] + [4] * 8
        stats = read_scattered(workload(real, request_budget=5),
                               EngineConfig(kind="aio", queue_size=4))
        assert stats.count == 5
        assert made[1].submits == [4] * 5

    def test_uring_wait_honours_timeout(self, real):
        _native_or_skip("uring")
        q = uring_native.UringQueue(real.fd, 4)
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
        assert out["done"] == [] and out["s"] < 1.0

    def test_uring_short_submit_raises(self, real, monkeypatch):
        _native_or_skip("uring")
        bufs = [memoryview(bytearray(4096)) for _ in range(2)]
        q = uring_native.UringQueue(real.fd, 4)
        try:
            monkeypatch.setattr(q, "_enter", lambda *args: 1)
            with pytest.raises(IoError, match="submitted 1 of 2"):
                q.submit_reads([(i, i * 4096, b) for i, b in enumerate(bufs)])
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

    def test_emulated_queue_wait_honours_timeout(self, real):
        buf = memoryview(bytearray(4096))
        q = engines._EmulatedAsyncQueue(real, 1, [buf])
        try:
            t0 = time.monotonic()
            assert q.wait(1, 0.1) == []
            assert time.monotonic() - t0 < 0.2
            q.submit_reads([(0, 8192, buf)])
            assert q.wait(1, 5.0) == [(0, 4096)]
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

        bufs = [memoryview(bytearray(4096)) for _ in range(2)]
        q = aio_native.AioQueue(real.fd, 4)
        try:
            q.submit_reads([(i, i * 4096, b) for i, b in enumerate(bufs)])
            fake = Interrupting()
            monkeypatch.setattr(aio_native, "_libc", fake)
            done = []
            while len(done) < 2:
                done += q.wait(2 - len(done), 1.0)
            assert fake.interrupted == 1
            assert sorted(done) == [(0, 4096), (1, 4096)]
        finally:
            monkeypatch.undo()
            q.close()


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
    with open_target(path, seed=5, direct=False) as h:
        with pytest.raises(VerifyError) as ei:
            run(WorkloadSpec(target=h, pattern="sequential", block_size=4096,
                             request_budget=250, threads=threads, seed=1,
                             verify=True), engine)
    assert ei.value.offset == 984040


def test_probe_engines_shape():
    info = probe_engines()
    assert set(info) == {"sync", "polled", "pool", "aio", "uring"}
    for v in info.values():
        assert "available" in v


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_split_budget_property(total, threads):
    parts = [split_budget(total, threads, w) for w in range(threads)]
    assert sum(parts) == total
    assert max(parts) - min(parts) <= 1

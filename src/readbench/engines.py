"""The five reading strategies and their execution backends.

Engine kinds:

* ``sync``   — one thread, positional reads one at a time.
* ``polled`` — like sync but through the kernel's polled-completion path.
* ``pool``   — a pool of threads each running an independent sync loop.
* ``aio``    — kernel async queue (one per worker): keep the queue full,
  wait for at least batch_size completions, refill by as many.
* ``uring``  — same fill/harvest contract over a submission/completion
  ring, with optional fixed files, fixed buffers, and a kernel-side
  submission poll thread.

Simulated targets never spawn threads: workers become logical entities in
a single deterministic event-driven loop over the device scheduler, so a
re-run with identical seeds reproduces identical statistics bit for bit.
Real-file targets use actual threads and the native syscall backends.
Scattered multi-block reads and sequential whole-target scans run on these
same two loops, through :func:`duration_log`.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import queue as queue_mod
import threading
import time
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Iterator

import numpy as np

from . import aio_native, fill, uring_native
from .devicesim import SimRequest, SimState, advance, submit
from .errors import AbortedRun, EngineUnsupported, IoError, VerifyError
from .measurement import (CpuUsage, LatencyStats, aggregate_latencies,
                          compute_throughput, measure_cpu, snapshot_cpu)
from .rng import GOLDEN, MASK64, worker_seed
from .target import TargetHandle, alloc_aligned, read_block, read_block_polled

ENGINE_KINDS = ("sync", "polled", "pool", "aio", "uring")
ASYNC_KINDS = ("aio", "uring")

MIN_BLOCK = 4096
MAX_BLOCK = 64 << 20
MAX_QUEUE = 4096

#: how long a harvest may wait before the run is flagged as stalled
HARVEST_TIMEOUT_S = 1.0

#: a harvest that sees no completion for this long ends the run
STALL_LIMIT_S = 30.0

#: with verify on, sync, polled and pool workers read into up to this many
#: arena slots and check them in one batch once the arena is full
VERIFY_SLOTS = 32

#: random offsets are drawn this many at a time
_OFFSET_CHUNK = 4096


@dataclass(frozen=True)
class EngineConfig:
    kind: str = "sync"
    queue_size: int = 1
    batch_size: int = 1
    fixed_files: bool = False
    fixed_buffers: bool = False
    kernel_poll: bool = False
    # permit falling back to an emulated backend / plain reads when the
    # kernel lacks the native interface
    allow_fallback: bool = False

    def __post_init__(self):
        if self.kind not in ENGINE_KINDS:
            raise ValueError(f"unknown engine kind {self.kind!r}")
        if not 1 <= self.queue_size <= MAX_QUEUE:
            raise ValueError("queue_size must be in 1..4096")
        if not 1 <= self.batch_size <= self.queue_size:
            raise ValueError("batch_size must be in 1..queue_size")
        if self.kind not in ASYNC_KINDS and self.queue_size != 1:
            raise ValueError(f"{self.kind} engine has no queue")
        if self.kind != "uring" and (self.fixed_files or self.fixed_buffers
                                     or self.kernel_poll):
            raise ValueError("ring flags are only valid for the uring engine")

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "queue_size": self.queue_size,
            "batch_size": self.batch_size, "fixed_files": self.fixed_files,
            "fixed_buffers": self.fixed_buffers, "kernel_poll": self.kernel_poll,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EngineConfig":
        return cls(kind=d["kind"], queue_size=d["queue_size"],
                   batch_size=d["batch_size"], fixed_files=d["fixed_files"],
                   fixed_buffers=d["fixed_buffers"], kernel_poll=d["kernel_poll"])


@dataclass
class WorkloadSpec:
    target: TargetHandle
    pattern: str = "random"  # random | sequential
    block_size: int = 4096
    threads: int = 1
    warmup_s: float = 0.0
    duration_s: float | None = None
    request_budget: int | None = None
    seed: int = 0
    verify: bool = False

    def __post_init__(self):
        if self.pattern not in ("random", "sequential"):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        b = self.block_size
        if b < MIN_BLOCK or b > MAX_BLOCK or b & (b - 1):
            raise ValueError("block_size must be a power of two in 4KiB..64MiB")
        if self.target.capacity % b:
            raise ValueError("block_size must divide target capacity")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if (self.duration_s is None) == (self.request_budget is None):
            raise ValueError("set exactly one of duration_s / request_budget")

    def describe(self) -> dict:
        return {
            "target": self.target.describe(), "pattern": self.pattern,
            "block_size": self.block_size, "threads": self.threads,
            "warmup_s": self.warmup_s, "duration_s": self.duration_s,
            "request_budget": self.request_budget, "seed": self.seed,
            "verify": self.verify,
        }


@dataclass
class RunRecord:
    workload: dict
    engine: EngineConfig
    throughput_mb_s: float
    latency: LatencyStats
    cpu: CpuUsage
    label: str
    started_at: str
    notes: str = ""
    data_checksum: str = ""
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = {
            "workload": self.workload,
            "engine": self.engine.as_dict(),
            "throughput_mb_s": self.throughput_mb_s,
            "latency": self.latency.as_dict(),
            "cpu": self.cpu.as_dict(),
            "label": self.label,
            "started_at": self.started_at,
            "notes": self.notes,
            "data_checksum": self.data_checksum,
        }
        d.update(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        known = {"workload", "engine", "throughput_mb_s", "latency", "cpu",
                 "label", "started_at", "notes", "data_checksum"}
        extra = {k: v for k, v in d.items() if k not in known}
        return cls(
            workload=d["workload"],
            engine=EngineConfig.from_dict(d["engine"]),
            throughput_mb_s=d["throughput_mb_s"],
            latency=LatencyStats.from_dict(d["latency"]),
            cpu=CpuUsage.from_dict(d["cpu"]),
            label=d["label"],
            started_at=d["started_at"],
            notes=d.get("notes", ""),
            data_checksum=d.get("data_checksum", ""),
            extra=extra,
        )


def offset_stream(workload: WorkloadSpec, worker: int) -> Iterator[int]:
    """Per-worker stream of block-aligned offsets.

    Random offsets are ``(SplitMix64(worker_seed).next_u64() % nblocks) *
    block_size``; the sequence is computed in numpy chunks, the k-th value
    being ``mix64(seed + k * GOLDEN)``.
    """
    nblocks = workload.target.capacity // workload.block_size
    if workload.pattern == "random":
        state = worker_seed(workload.seed, worker)
        steps = np.arange(1, _OFFSET_CHUNK + 1, dtype=np.uint64) * np.uint64(GOLDEN)
        while True:
            words = fill._mix64_array(steps + np.uint64(state))
            yield from ((words % np.uint64(nblocks))
                        * np.uint64(workload.block_size)).tolist()
            state = (state + _OFFSET_CHUNK * GOLDEN) & MASK64
    else:
        i = (nblocks // workload.threads) * worker
        while True:
            yield (i % nblocks) * workload.block_size
            i += 1


def split_budget(total: int, threads: int, worker: int) -> int:
    return total // threads + (1 if worker < total % threads else 0)


_CHECKSUM_MOD = 1 << 256


class _Checksum:
    """Order-independent digest of every block read (sum of block hashes)."""

    def __init__(self):
        self.value = 0
        self.blocks = 0

    def add(self, data) -> None:
        h = hashlib.sha256(data).digest()
        self.value = (self.value + int.from_bytes(h, "big")) % _CHECKSUM_MOD
        self.blocks += 1

    def hexdigest(self) -> str:
        return format(self.value, "064x")


def _depth_and_batch(engine: EngineConfig) -> tuple[int, int]:
    if engine.kind in ASYNC_KINDS:
        return engine.queue_size, engine.batch_size
    return 1, 1


# ---------------------------------------------------------------------------
# simulated execution (virtual time, no threads)
# ---------------------------------------------------------------------------

class _SimWorker:
    __slots__ = ("tag", "stream", "remaining", "outstanding", "ready",
                 "max_outstanding")

    def __init__(self, tag, stream, remaining):
        self.tag = tag
        self.stream = stream
        self.remaining = remaining  # None in duration mode
        self.outstanding = 0
        self.ready = 0  # completed but not yet harvested
        self.max_outstanding = 0


def _simulate(workload: WorkloadSpec, engine: EngineConfig,
              offsets: Iterator[int] | None = None):
    """Run the workload in virtual time; returns (duration log, bytes,
    elapsed_s, checksum hex, notes, extra).  ``offsets``, when given,
    replaces the offset stream of a single-worker run."""
    depth, batch = _depth_and_batch(engine)
    polled = engine.kind == "polled"
    state: SimState = workload.target.fresh_sim_state()
    block = workload.block_size
    fill_seed = workload.target.fill_seed
    budget_mode = workload.request_budget is not None
    warmup_us = workload.warmup_s * 1e6
    measure_end = None
    if not budget_mode:
        measure_end = warmup_us + workload.duration_s * 1e6
    windowed = measure_end is not None or warmup_us > 0

    workers = []
    for w in range(workload.threads):
        remaining = (split_budget(workload.request_budget, workload.threads, w)
                     if budget_mode else None)
        stream = offset_stream(workload, w) if offsets is None else offsets
        workers.append(_SimWorker(w, stream, remaining))

    checksum = _Checksum() if workload.verify else None
    outstanding = 0

    def refill(wk: _SimWorker, n: int, now: float) -> None:
        """Submit up to n more requests for one worker at virtual time now."""
        nonlocal outstanding
        if budget_mode:
            n = min(n, wk.remaining)
            wk.remaining -= n
        elif now >= measure_end:
            return
        stream, tag = wk.stream, wk.tag
        for _ in range(n):
            offset = next(stream)
            submit(state, SimRequest(offset, block, now, polled, tag))
            if checksum is not None:
                checksum.add(fill.pattern_bytes(fill_seed, offset, block))
        wk.outstanding += n
        outstanding += n
        if wk.outstanding > wk.max_outstanding:
            wk.max_outstanding = wk.outstanding

    for wk in workers:
        refill(wk, depth, 0.0)

    log = array("q")
    last_completion = warmup_us

    while outstanding:
        for req, t in advance(state):
            submitted = req.submit_time
            if not windowed or (submitted >= warmup_us and (
                    measure_end is None or submitted < measure_end)):
                log.append(round(t - submitted))
                if t > last_completion:
                    last_completion = t
            workers[req.tag].ready += 1
        now = state.clock
        for wk in workers:
            # harvest once >= batch completions are ready, or on final drain
            # when nothing more will be submitted; that is never a short
            # harvest, so simulated runs report none
            n = wk.ready
            if n and (n >= batch or (wk.remaining == 0 if budget_mode
                                     else now >= measure_end)):
                wk.ready = 0
                wk.outstanding -= n
                outstanding -= n
                refill(wk, n, now)

    elapsed_s = max(last_completion - warmup_us, 1e-9) / 1e6
    notes = ["simulated"]
    extra = {"max_inflight": max(wk.max_outstanding for wk in workers),
             "short_harvests": 0}
    return log, len(log) * block, elapsed_s, (
        checksum.hexdigest() if checksum else ""), notes, extra


# ---------------------------------------------------------------------------
# real-file execution (actual threads and syscalls)
# ---------------------------------------------------------------------------

class _EmulatedAsyncQueue:
    """Thread-pool stand-in for a kernel async queue, used as an explicit
    fallback when the native interface is unavailable."""

    def __init__(self, handle: TargetHandle, depth: int, buffers):
        self.handle = handle
        self.buffers = buffers
        self._work: queue_mod.Queue = queue_mod.Queue()
        self._done: queue_mod.Queue = queue_mod.Queue()
        self._threads = [threading.Thread(target=self._serve, daemon=True)
                         for _ in range(depth)]
        for t in self._threads:
            t.start()

    def _serve(self):
        while True:
            item = self._work.get()
            if item is None:
                return
            data, offset, buf = item
            try:
                n = os.preadv(self.handle.fd, [buf], offset)
                self._done.put((data, n))
            except OSError as exc:
                self._done.put((data, -exc.errno))

    def submit_reads(self, entries):
        for entry in entries:
            self._work.put(entry)

    def wait(self, min_nr: int, timeout_s=None):
        """Up to min_nr completions, fewer if timeout_s runs out first."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        out = []
        try:
            while len(out) < min_nr:
                left = None if deadline is None else max(deadline - time.monotonic(), 0)
                out.append(self._done.get(timeout=left))
            while True:
                out.append(self._done.get_nowait())
        except queue_mod.Empty:
            return out

    def close(self):
        for _ in self._threads:
            self._work.put(None)
        for t in self._threads:
            t.join()


def _make_async_backend(engine: EngineConfig, handle: TargetHandle,
                        depth: int, buffers, notes: list[str]):
    try:
        if engine.kind == "aio":
            return aio_native.AioQueue(handle.fd, depth)
        return uring_native.UringQueue(
            handle.fd, depth, fixed_files=engine.fixed_files,
            fixed_buffers=engine.fixed_buffers,
            kernel_poll=engine.kernel_poll, buffers=buffers)
    except EngineUnsupported:
        if not engine.allow_fallback:
            raise
        notes.append(f"{engine.kind}: native interface unavailable, "
                     "using emulated thread backend")
        return _EmulatedAsyncQueue(handle, depth, buffers)


def _arena(n: int, block: int) -> tuple[list[memoryview], np.ndarray]:
    """n one-block slot buffers carved from one page-aligned mapping, and the
    (n, block // 8) uint64 view of them that batched verification reads."""
    mem = alloc_aligned(n * block)
    slots = [mem[i * block:(i + 1) * block] for i in range(n)]
    return slots, np.frombuffer(mem, dtype="<u8").reshape(n, block // fill.WORD)


def _harvest(backend, min_nr: int, notes: list[str]) -> list[tuple[int, int]]:
    """Wait for at least min_nr completions; IoError once none arrived for
    STALL_LIMIT_S."""
    done: list[tuple[int, int]] = []
    start = time.monotonic()
    while len(done) < min_nr:
        got = backend.wait(min_nr - len(done), HARVEST_TIMEOUT_S)
        if got:
            done += got
            start = time.monotonic()
            continue
        if "harvest stalled beyond timeout" not in notes:
            notes.append("harvest stalled beyond timeout")
        waited = time.monotonic() - start
        if waited >= STALL_LIMIT_S:
            raise IoError(f"harvest stalled: no completion in {waited:.1f} s")
    return done


def _check_batch(rows: np.ndarray, offsets: list[int], bufs: list[memoryview],
                 seed: int, checksum: "_Checksum") -> None:
    """Verify read blocks in one compare, then add them to the checksum."""
    fill.check_blocks(rows, offsets, seed)
    for buf in bufs:
        checksum.add(buf)


class _RealWorkerResult:
    __slots__ = ("submits", "durations", "checksum", "error", "notes",
                 "max_inflight")

    def __init__(self):
        self.submits = array("d")  # monotonic submit time, s
        self.durations = array("q")  # us, same index as submits
        self.checksum = _Checksum()
        self.error: BaseException | None = None
        self.notes: list[str] = []
        self.max_inflight = 0


def _real_worker(workload: WorkloadSpec, engine: EngineConfig, w: int,
                 deadline: float | None, result: _RealWorkerResult,
                 offsets: Iterator[int] | None = None) -> None:
    handle = workload.target
    block = workload.block_size
    depth, batch = _depth_and_batch(engine)
    stream = offset_stream(workload, w) if offsets is None else offsets
    remaining = (split_budget(workload.request_budget, workload.threads, w)
                 if workload.request_budget is not None else None)
    seed = handle.fill_seed
    verify = workload.verify
    submits, durations, checksum = result.submits, result.durations, result.checksum

    def want_more(issued: int, now: float) -> bool:
        if remaining is not None:
            return issued < remaining
        return now < deadline

    if engine.kind not in ASYNC_KINDS:
        nslots = 1
        if verify:
            # large blocks gain nothing from batching; keep their arena small
            nslots = max(1, min(VERIFY_SLOTS, fill.CHECK_CHUNK_BYTES // block))
        bufs, rows = _arena(nslots, block)
        offsets = [0] * nslots
        reader = read_block_polled if engine.kind == "polled" else read_block
        issued = n = 0
        while True:
            now = time.monotonic()
            if not want_more(issued, now):
                break
            offset = next(stream)
            durations.append(reader(handle, offset, bufs[n]))
            submits.append(now)
            issued += 1
            if verify:
                offsets[n] = offset
                n += 1
                if n == nslots:
                    _check_batch(rows, offsets, bufs, seed, checksum)
                    n = 0
        if n:
            _check_batch(rows[:n], offsets[:n], bufs[:n], seed, checksum)
        result.max_inflight = min(issued, 1)
        if engine.kind == "polled" and handle.polled_fallback:
            result.notes.append("polled reads unsupported, fell back to plain reads")
        return

    bufs, rows = _arena(depth, block)
    backend = _make_async_backend(engine, handle, depth, bufs, result.notes)
    try:
        inflight: dict[int, tuple[float, int]] = {}  # slot -> (submit, offset)
        free = deque(range(depth))
        issued = 0

        def fill_queue() -> None:
            nonlocal issued
            entries = []
            now = time.monotonic()
            while free and want_more(issued, now):
                slot = free.popleft()
                offset = next(stream)
                entries.append((slot, offset, bufs[slot]))
                inflight[slot] = (now, offset)
                issued += 1
            if entries:
                backend.submit_reads(entries)
            result.max_inflight = max(result.max_inflight, len(inflight))

        fill_queue()
        while inflight:
            done = _harvest(backend, min(batch, len(inflight)), result.notes)
            now = time.monotonic()
            slots, offsets = [], []
            for data, res in done:
                slot = int(data)
                submit_t, offset = inflight.pop(slot)
                if res != block:
                    raise IoError(f"async read at {offset} returned {res}")
                submits.append(submit_t)
                durations.append(int((now - submit_t) * 1e6))
                slots.append(slot)
                offsets.append(offset)
            if verify:
                # before the slots are refilled
                _check_batch(rows[slots], offsets, [bufs[s] for s in slots],
                             seed, checksum)
            free.extend(slots)
            fill_queue()
    finally:
        backend.close()


def _run_real(workload: WorkloadSpec, engine: EngineConfig):
    start_wall = time.monotonic()
    deadline = None
    if workload.duration_s is not None:
        deadline = start_wall + workload.warmup_s + workload.duration_s
    results = [_RealWorkerResult() for _ in range(workload.threads)]

    def runner(w: int) -> None:
        try:
            _real_worker(workload, engine, w, deadline, results[w])
        except BaseException as exc:  # collected and re-raised by the parent
            results[w].error = exc

    if workload.threads == 1:
        runner(0)
    else:
        threads = [threading.Thread(target=runner, args=(w,))
                   for w in range(workload.threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    for r in results:
        if isinstance(r.error, VerifyError):
            raise r.error
    failed = [r.error for r in results if r.error is not None]
    if failed:
        if isinstance(failed[0], EngineUnsupported):
            raise failed[0]
        raise AbortedRun(f"{len(failed)} worker(s) failed: {failed[0]!r}") from failed[0]

    warmup_cut = start_wall + workload.warmup_s
    submits = np.concatenate([np.array(r.submits, dtype=np.float64)
                              for r in results])
    durations = np.concatenate([np.array(r.durations, dtype=np.int64)
                                for r in results])
    keep = submits >= warmup_cut
    if deadline is not None:
        keep &= submits < deadline
    submits, durations = submits[keep], durations[keep]
    last = warmup_cut
    if durations.size:
        last = max(last, float((submits + durations / 1e6).max()))
    elapsed = max(last - warmup_cut, 1e-9)

    checksum = _Checksum()
    if workload.verify:
        checksum.value = sum(r.checksum.value for r in results) % _CHECKSUM_MOD
    notes: list[str] = []
    for r in results:
        for n in r.notes:
            if n not in notes:
                notes.append(n)
    extra = {"max_inflight": max(r.max_inflight for r in results)}
    log = np.maximum(durations, 0)
    return log, log.size * workload.block_size, elapsed, (
        checksum.hexdigest() if workload.verify else ""), notes, extra


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(workload: WorkloadSpec, engine: EngineConfig) -> RunRecord:
    """Execute one (workload, engine) combination and assemble its record."""
    if engine.kind in ("sync", "polled") and workload.threads != 1:
        raise ValueError(f"{engine.kind} engine runs single-threaded")
    from .report import encode_label  # local import: report depends on us

    started_at = datetime.now(timezone.utc).isoformat()
    if workload.target.is_simulated:
        log, nbytes, elapsed_s, checksum, notes, extra = _simulate(
            workload, engine)
        # the device model spends no host CPU, and host CPU would make
        # replays, selection and plots differ from run to run
        cpu = CpuUsage.of(0.0, elapsed_s)
    else:
        cpu_before = snapshot_cpu()
        wall0 = time.monotonic()
        log, nbytes, elapsed_s, checksum, notes, extra = _run_real(
            workload, engine)
        wall = max(time.monotonic() - wall0, 1e-9)
        cpu = measure_cpu(cpu_before, snapshot_cpu(), wall)

    label = encode_label(engine, workload.threads)
    if label.note:
        notes = notes + [label.note]
    return RunRecord(
        workload=workload.describe(),
        engine=engine,
        throughput_mb_s=compute_throughput(nbytes, elapsed_s),
        latency=aggregate_latencies(log),
        cpu=cpu,
        label=label.text,
        started_at=started_at,
        notes="; ".join(notes),
        data_checksum=checksum,
        extra=extra,
    )


def run_sync(workload: WorkloadSpec) -> RunRecord:
    return run(workload, EngineConfig(kind="sync"))


def run_polled(workload: WorkloadSpec) -> RunRecord:
    return run(workload, EngineConfig(kind="polled"))


def run_threadpool(workload: WorkloadSpec) -> RunRecord:
    return run(workload, EngineConfig(kind="pool"))


def run_kernel_async(workload: WorkloadSpec, engine: EngineConfig) -> RunRecord:
    if engine.kind != "aio":
        raise ValueError("run_kernel_async requires an aio engine config")
    return run(workload, engine)


def run_ring(workload: WorkloadSpec, engine: EngineConfig) -> RunRecord:
    if engine.kind != "uring":
        raise ValueError("run_ring requires a uring engine config")
    return run(workload, engine)


def duration_log(workload: WorkloadSpec, engine: EngineConfig,
                 offsets: Iterator[int] | None = None) -> array:
    """Per-request latencies (us), in harvest order, of a single-worker
    request-budget run without warm-up; ``offsets``, when given, replaces
    the offset stream."""
    if workload.target.is_simulated:
        return _simulate(workload, engine, offsets)[0]
    result = _RealWorkerResult()
    _real_worker(workload, engine, 0, None, result, offsets)
    return result.durations


def read_scattered(workload: WorkloadSpec, engine: EngineConfig,
                   offsets: list[int] | None = None) -> LatencyStats:
    """Multi-block single-wait reads: submit a group of blocks at once,
    wait for all of them, record the group's makespan.  Repeats for the
    request budget (one budget unit = one group).

    One worker runs with queue = batch = group size, so every harvest is
    one whole group and a makespan is the slowest read of its group."""
    if engine.kind not in ASYNC_KINDS:
        raise ValueError("scattered reads require an async engine")
    if workload.request_budget is None:
        raise ValueError("scattered reads run in request-budget mode")
    if offsets is not None and len(offsets) > engine.queue_size:
        raise ValueError("more offsets than queue slots")

    n = engine.queue_size if offsets is None else len(offsets)
    reps = workload.request_budget
    log = duration_log(
        replace(workload, threads=1, warmup_s=0.0, request_budget=reps * n),
        replace(engine, queue_size=n, batch_size=n),
        None if offsets is None else itertools.cycle(offsets))
    return aggregate_latencies(np.asarray(log).reshape(reps, n).max(axis=1))


def probe_engines() -> dict[str, dict]:
    """Which engines (and ring features) this system supports."""
    info: dict[str, dict] = {
        "sync": {"available": True, "detail": "positional reads"},
        "polled": {"available": hasattr(os, "preadv"),
                   "detail": "preadv2 high-priority reads; falls back to "
                             "plain reads where unsupported"},
        "pool": {"available": True, "detail": "thread pool of positional reads"},
    }
    ok, err = aio_native.probe()
    info["aio"] = {"available": ok, "detail": err or "kernel async queue"}
    ok, err = uring_native.probe()
    entry = {"available": ok, "detail": err or "submission/completion ring"}
    if ok:
        for feature, kwargs in (("fixed_buffers", {"fixed_buffers": True}),
                                ("kernel_poll", {"kernel_poll": True})):
            fok, ferr = uring_native.probe(**kwargs)
            entry[feature] = fok
    info["uring"] = entry
    return info

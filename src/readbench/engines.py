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
re-run with identical seeds reproduces identical statistics bit for bit;
that loop runs in C where :mod:`readbench.hotloop` builds, on the offset
streams and device draws it computes itself, and else in Python over
:mod:`readbench.devicesim`, with the same steps, streams and records.
Real-file targets use actual threads and the native syscall backends, on
one loop over a queue: a kernel queue (aio, uring) or a depth-1 sync
queue (sync, polled, pool; :class:`_SyncQueue`).  The loop runs in C
where :mod:`readbench.hotloop` builds: it draws each refill's offsets from
the worker's stream itself, as the simulated loop does, checks each
completion's slot against the slots in flight, and submits, waits, checks
and stamps without the interpreter, returning only to hand over its log.
Else :func:`_python_loop` takes the same steps in Python, over the
queue's ``submit_reads`` and ``wait``, on the offsets of
:func:`offset_stream`.  Drawn offsets are in range and aligned by
construction; a given list is refused whole (:func:`check_offsets`),
once, before any read.  Every loop counts its own request budget.  Both
time a read from the top of the pass that submits it to the stamp after
the harvest that reaps it, in integer ns of the clock of
``time.perf_counter_ns``, round durations to the nearest us, halves up,
and fold them into the worker's :class:`LatencyCounts` a chunk at a time.
Verified reads, at page-aligned offsets, check against the fill pattern:
in C on the compiled loop, which hashes each page from the fill seed, and
else by :func:`fill.check_blocks`, which also names a bad block.  Scattered
reads and whole-target scans keep theirs in order, by :func:`duration_log`.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import threading
import time
from array import array
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from typing import Iterator

import numpy as np

from . import aio_native, fill, hotloop, uring_native
from .devicesim import SimState, advance, check_service, submit
from .errors import (BAD_DATA, BAD_RESULT, CALL_FAILED, OUTSIDE, STALLED,
                     UNKNOWN_SLOT, AbortedRun, Backpressure, EngineUnsupported,
                     VerifyError, async_error)
from .measurement import (CpuUsage, LatencyCounts, LatencyStats,
                          aggregate_latencies, compute_throughput,
                          from_fields, measure_cpu, snapshot_cpu)
from .rng import u64_chunks, worker_seed
from .target import (TargetHandle, alloc_aligned, check_offsets, polled_flags,
                     read_block, read_error)

ENGINE_KINDS = ("sync", "polled", "pool", "aio", "uring")
ASYNC_KINDS = ("aio", "uring")
PATTERNS = ("random", "sequential")

MIN_BLOCK = 4096
MAX_BLOCK = 64 << 20
MAX_QUEUE = 4096

#: how long a harvest may wait before the run is flagged as stalled
HARVEST_TIMEOUT_S = 1.0

#: a harvest that sees no completion for this long ends the run
STALL_LIMIT_S = 30.0

#: offsets are drawn this many at a time
_OFFSET_CHUNK = 4096


@dataclass(frozen=True)
class EngineConfig:
    kind: str = "sync"
    queue_size: int = 1
    batch_size: int = 1
    fixed_files: bool = False
    fixed_buffers: bool = False
    kernel_poll: bool = False
    # permit falling back to the emulated async backend when the kernel
    # lacks the native interface (polled reads fall back to plain reads
    # without it)
    allow_fallback: bool = False

    #: fields a record leaves out: a permission for one run, not part of the
    #: configuration measured (a fallback it took shows in the notes)
    _UNRECORDED = ("allow_fallback",)

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
        return {k: v for k, v in vars(self).items()
                if k not in self._UNRECORDED}

    @classmethod
    def from_dict(cls, d: dict) -> "EngineConfig":
        return from_fields(cls, d, optional=cls._UNRECORDED)


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
        if self.pattern not in PATTERNS:
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
        if self.request_budget is not None and self.request_budget < 1:
            raise ValueError("request_budget must be >= 1")
        if not 0 <= self.warmup_s < math.inf:  # NaN fails every test
            raise ValueError("warmup_s must be finite and >= 0")
        if self.duration_s is not None and not 0 < self.duration_s < math.inf:
            raise ValueError("duration_s must be finite and > 0")

    def describe(self) -> dict:
        """The record form: every field, the target as its description."""
        return ({f.name: getattr(self, f.name) for f in fields(self)}
                | {"target": self.target.describe()})


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
        """Every field, with the keys of ``extra`` at the top level.  Its
        dicts and lists are new, so changing them leaves the record as it
        is; the values in them are shared."""
        d = vars(self) | {"workload": _copied(self.workload),
                          "engine": self.engine.as_dict(),
                          "latency": vars(self.latency).copy(),
                          "cpu": vars(self.cpu).copy()}
        d.update(_copied(d.pop("extra")))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """The inverse of as_dict: keys that are not fields go to ``extra``.
        Only ``notes`` and ``data_checksum`` may be missing."""
        if type(d["workload"]["block_size"]) is not int:
            raise TypeError("workload block_size is not int")
        stored = {f.name for f in fields(cls)} - {"extra"}
        return from_fields(cls, {
            **d, "engine": EngineConfig.from_dict(d["engine"]),
            "latency": from_fields(LatencyStats, d["latency"]),
            "cpu": from_fields(CpuUsage, d["cpu"]),
            "extra": {k: v for k, v in d.items() if k not in stored},
        }, optional=("notes", "data_checksum"))


def _copied(value):
    """A JSON-like value with each dict and list in it rebuilt."""
    if isinstance(value, dict):
        return {k: _copied(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copied(v) for v in value]
    return value


def _streams(workload: WorkloadSpec, offsets: list[int] | None = None
             ) -> tuple[hotloop.Streams, list[int]]:
    """The run's offset streams, as the compiled loops draw from them, and
    where each worker's starts: at the first of ``offsets``, if given; else
    at the seed of its random words, or at the block it reads first, the
    start of its share."""
    nblocks = workload.target.capacity // workload.block_size
    listed = np.array(() if offsets is None else offsets, dtype=np.int64)
    streams = hotloop.Streams(listed.ctypes.data, len(listed), nblocks,
                              workload.pattern == "random",
                              workload.block_size)
    streams.offsets = listed
    workers = range(workload.threads)
    if offsets is not None:
        return streams, [0 for _ in workers]
    if workload.pattern == "random":
        return streams, [worker_seed(workload.seed, w) for w in workers]
    return streams, [nblocks // workload.threads * w for w in workers]


def offset_stream(workload: WorkloadSpec, worker: int,
                  offsets: list[int] | None = None) -> Iterator[int]:
    """Per-worker block-aligned offsets, one int at a time.

    Random offsets are ``(SplitMix64(worker_seed).next_u64() % nblocks) *
    block_size``, the k-th word being ``mix64(seed + k * GOLDEN)``, drawn
    _OFFSET_CHUNK at a time; sequential ones start at the worker's share of
    the target and wrap.  ``offsets``, when given, replace them, cycled in
    order.
    """
    streams, starts = _streams(workload, offsets)
    nblocks, block, first = streams.nblocks, streams.block, starts[worker]
    if streams.nlist:
        return itertools.cycle(streams.offsets.tolist())
    if not streams.random:
        return (b % nblocks * block for b in itertools.count(first))
    return itertools.chain.from_iterable(
        ((words % np.uint64(nblocks)) * np.uint64(block)).tolist()
        for words in u64_chunks(first, _OFFSET_CHUNK))


def split_budget(total: int, threads: int, worker: int) -> int:
    return total // threads + (1 if worker < total % threads else 0)


class _Checksum:
    """Order-independent digest of the offsets of every verified block, with
    the verification scratch of the worker that owns it.

    Its lanes add mod 2^64 (:func:`fill.digest_offsets`): workers merge by
    adding lanes, and a simulated run, which digests the offsets it submits,
    gets the value a real run over them verifies.  Offsets are digested
    _OFFSET_CHUNK at a time, and the rest by :meth:`digest`.
    """

    def __init__(self, workload: WorkloadSpec):
        self.nbytes, self.seed = workload.block_size, workload.target.fill_seed
        self.lanes = np.zeros(fill.LANES, dtype=np.uint64)
        self.undigested = array("q")
        self.scratch = fill.new_scratch()

    def add(self, rows: np.ndarray, offsets: np.ndarray) -> None:
        """Verify one batch of read blocks, then keep their offsets."""
        fill.check_blocks(rows, offsets, self.seed, self.scratch)
        self.keep(offsets)

    def keep(self, offsets) -> None:
        """Keep the offsets of verified blocks, a list or an int64 array."""
        if isinstance(offsets, np.ndarray):
            self.undigested.frombytes(offsets.tobytes())
        else:
            self.undigested.extend(offsets)
        if len(self.undigested) >= _OFFSET_CHUNK:
            self.digest()

    def raise_refused(self, row: np.ndarray, offset: int) -> None:
        """Raise the error of a block that failed the compiled loop's page
        check: :func:`fill.check_blocks`'s VerifyError, or, should that pass
        the block, an error naming the two checks' disagreement."""
        fill.check_blocks(row[None, :], (offset,), self.seed, self.scratch)
        raise RuntimeError(f"the compiled loop refused the block at byte "
                           f"offset {offset}, which fill.check_blocks passes")

    def digest(self) -> np.ndarray:
        """The lanes, with every offset kept so far digested."""
        fill.digest_offsets(self.undigested, self.nbytes, self.seed,
                            self.lanes)
        del self.undigested[:]
        return self.lanes


# ---------------------------------------------------------------------------
# simulated execution (virtual time, no threads)
# ---------------------------------------------------------------------------

def _simulate(workload: WorkloadSpec, engine: EngineConfig, sink,
              offsets: list[int] | None = None):
    """Run the workload in virtual time, the logged durations passed to
    ``sink`` in chunks; returns (elapsed_s, checksum hex, notes, extra).
    ``offsets``, when given, replaces the offset stream of one worker.
    The loop runs in C (:mod:`readbench.hotloop`) where it builds, else in
    Python; both give the same log in the same order."""
    state = SimState(workload.target.model, workload.target.capacity,
                     polled=engine.kind == "polled")
    check_service(state.terms, workload.block_size)
    budget_mode = workload.request_budget is not None
    # a request is logged iff warmup_us <= its submit time < window_end
    warmup_us = workload.warmup_s * 1e6
    window = (warmup_us, math.inf if budget_mode
              else warmup_us + workload.duration_s * 1e6)
    budgets = [split_budget(workload.request_budget, workload.threads, w)
               if budget_mode else None for w in range(workload.threads)]
    # simulated reads return no data: digest the submitted offsets
    checksum = _Checksum(workload) if workload.verify else None
    lib, _ = hotloop.load()
    args = (workload, engine, state, sink, offsets, budgets, window, checksum)
    # C divides offsets by the capacity as doubles, which Python's int
    # division matches only below 2^53
    last_completion, max_inflight = (
        _python_sim(*args) if lib is None or state.capacity >> 53
        else _native_sim(lib.rb_sim_loop, *args))
    elapsed_s = max(last_completion - warmup_us, 1e-9) / 1e6
    digest = "" if checksum is None else fill.hexdigest(checksum.digest())
    return elapsed_s, digest, ["simulated"], {"max_inflight": max_inflight,
                                              "short_harvests": 0}


def _python_sim(workload: WorkloadSpec, engine: EngineConfig,
                state: SimState, sink, offsets: list[int] | None,
                budgets: list, window: tuple[float, float],
                checksum: _Checksum | None) -> tuple[float, int]:
    """The simulated loop in Python, over :mod:`readbench.devicesim`, in the
    steps of ``rb_sim_loop``: the time of the last logged completion, and
    the most reads a worker had in flight."""
    depth, batch = engine.queue_size, engine.batch_size
    block = workload.block_size
    budget_mode = budgets[0] is not None
    warmup_us, window_end = window
    workers = range(workload.threads)
    streams = [offset_stream(workload, w, offsets) for w in workers]
    # per worker, as rb_sim_loop keeps them: budget left, reads to refill
    # (depth at first), reads in flight, most in flight, and reads ready
    left, owed = list(budgets), [depth] * len(budgets)
    out, most, ready = ([0] * len(budgets) for _ in range(3))
    outstanding = 0
    log = array("q")  # the durations logged since the last call of sink
    last_completion = warmup_us
    now = state.clock

    while True:
        for w in workers:
            n = owed[w]
            if not n:  # an empty refill would still slice and keep
                continue
            owed[w] = 0
            if budget_mode:
                n = min(n, left[w])
                left[w] -= n
            elif now >= window_end:
                continue
            fresh = list(itertools.islice(streams[w], n))
            for offset in fresh:
                submit(state, offset, block, now, w)
            if checksum is not None:
                checksum.keep(fresh)
            out[w] += n
            outstanding += n
            if out[w] > most[w]:
                most[w] = out[w]
        if not outstanding:
            break
        # up to the first event that leaves a worker batch ready completions:
        # the next submit comes no earlier, and a draining worker submits
        # nothing, so when it harvests changes nothing
        for t, _, _, submitted in advance(state, ready, batch):
            if warmup_us <= submitted < window_end:
                log.append(round(t - submitted))
                last_completion = t  # event times never decrease
        if len(log) >= _OFFSET_CHUNK:
            sink(log)
            del log[:]
        now = state.clock  # of this harvest and the refills after it
        for w in workers:
            # harvest once >= batch completions are ready, or on final drain
            # when nothing more will be submitted; that is never a short
            # harvest, so simulated runs report none
            n = ready[w]
            if n and (n >= batch or (left[w] == 0 if budget_mode
                                     else now >= window_end)):
                ready[w] = 0
                out[w] -= n
                outstanding -= n
                owed[w] = n
    sink(log)
    return last_completion, max(most)


def _native_sim(sim_loop, workload: WorkloadSpec, engine: EngineConfig,
                state: SimState, sink, offsets: list[int] | None,
                budgets: list, window: tuple[float, float],
                checksum: _Checksum | None) -> tuple[float, int]:
    """The loop of :func:`_python_sim` in C (:mod:`readbench.hotloop`), on
    the model of ``state``.  C draws each worker's offsets as
    :func:`offset_stream` does and the device's draws as ``devicesim``
    does; after each call Python passes on its log and, if verified, the
    offsets it submitted."""
    sim = hotloop.SimLoop(state, engine.queue_size, engine.batch_size,
                          budgets, *window, *_streams(workload, offsets))
    # the durations logged and, verified, the offsets submitted
    verified = checksum is not None
    room = workload.threads * engine.queue_size + _OFFSET_CHUNK
    log = np.empty((1 + verified, room), dtype=np.int64)
    sim.log, sim.nlog, sim.verified = log.ctypes.data, room, verified
    while True:
        status = sim_loop(sim)
        sink(log[0, :sim.logged])
        if checksum is not None:
            checksum.keep(log[1, :sim.kept])
        if status != hotloop.MORE:
            break
    if status == hotloop.FAILED:
        if sim.fault == OUTSIDE:
            raise ValueError("request outside device capacity")
        raise Backpressure(f"more than {state.pending_bound} requests queued")
    return sim.last_completion, int(sim.workers[sim.MOST].max())


# ---------------------------------------------------------------------------
# real-file execution (actual threads and syscalls)
# ---------------------------------------------------------------------------

class _EmulatedAsyncQueue:
    """Thread-pool stand-in for a kernel async queue, used as an explicit
    fallback when the native interface is unavailable: a pool of ``depth``
    threads that makes each read a task, and the tasks not yet waited
    for."""

    def __init__(self, handle: TargetHandle, depth: int, buffers):
        # imported here, not at module import, which it would slow by ~7 ms
        from concurrent import futures
        self.handle, self.buffers, self.futures = handle, buffers, futures
        self.pool = futures.ThreadPoolExecutor(depth)
        self.pending = set()

    def _read(self, slot: int, offset: int) -> tuple[int, int]:
        try:
            return slot, os.preadv(self.handle.fd, [self.buffers[slot]],
                                   offset)
        except OSError as exc:
            return slot, -exc.errno

    def submit_reads(self, slots, offsets):
        for slot, offset in zip(slots, offsets):
            self.pending.add(self.pool.submit(self._read, slot, offset))

    def wait(self, min_nr: int, timeout_s: float) -> list[tuple[int, int]]:
        """Every read done by the first to end within timeout_s; the caller
        waits again while it has fewer than min_nr."""
        done, self.pending = self.futures.wait(
            self.pending, timeout_s, self.futures.FIRST_COMPLETED)
        return [f.result() for f in done]

    def close(self):
        self.pool.shutdown()


class _SyncQueue:
    """The depth-1 queue of the sync family: its submit makes one
    :func:`read_block` per slot, looked up at each call, so that patches
    and tracers see every read, and its wait returns those reads.  A read
    that fails raises :func:`read_block`'s error, the error the compiled
    loop's sync queue names (:meth:`loop_queue`)."""

    def __init__(self, handle: TargetHandle, flags: int, buffers):
        self.handle, self.flags, self.buffers = handle, flags, buffers
        self.done = []  # (slot, res) of each read not yet waited for

    def submit_reads(self, slots, offsets):
        for slot, offset in zip(slots, offsets):
            buffer = self.buffers[slot]
            read_block(self.handle, offset, buffer, self.flags)
            self.done.append((slot, len(buffer)))

    def wait(self, min_nr: int, timeout_s: float) -> list[tuple[int, int]]:
        """Every read submitted since the last wait; each is done."""
        done, self.done = self.done, []
        return done

    def loop_queue(self) -> hotloop.Queue:
        """This queue as the compiled loop works it: its submit reads the
        slot into row 0 of the arena with one ``preadv2(flags)``, its reap
        takes that read's result."""
        words = np.zeros(5, dtype=np.int64)  # offset, then (slot, -, res, -)
        queue = hotloop.Queue(
            kind=hotloop.SYNC, handle=self.handle.fd, depth=1,
            block=len(self.buffers[0]), flags=self.flags,
            off=words.ctypes.data, events=words[1:].ctypes.data)
        queue.words = words  # kept as long as the queue
        return queue

    def close(self):
        pass


def _make_async_backend(engine: EngineConfig, handle: TargetHandle,
                        depth: int, buffers, notes: list[str]):
    try:
        if engine.kind == "aio":
            return aio_native.AioQueue(handle.fd, depth, buffers)
        return uring_native.UringQueue(
            handle.fd, depth, buffers, fixed_files=engine.fixed_files,
            fixed_buffers=engine.fixed_buffers,
            kernel_poll=engine.kernel_poll)
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


#: the note of a run in which a harvest's wait ran out its timeout
_STALLED = "harvest stalled beyond timeout"


def _harvest(backend, min_nr: int, notes: list[str],
             stop: ctypes.c_int) -> list | None:
    """Wait for at least min_nr completions, as (slot, res) pairs; None once
    stop is set and a wait came back empty; IoError once none arrived for
    STALL_LIMIT_S."""
    done = []
    start = time.perf_counter_ns()
    while len(done) < min_nr:
        pairs = backend.wait(min_nr - len(done), HARVEST_TIMEOUT_S)
        if pairs:
            done += pairs
            start = time.perf_counter_ns()
            continue
        if stop.value:
            return None
        if _STALLED not in notes:
            notes.append(_STALLED)
        waited = time.perf_counter_ns() - start
        if waited >= STALL_LIMIT_S * 1e9:
            raise async_error(STALLED, waited)
    return done


class _RealWorkerResult:
    __slots__ = ("counts", "sink", "last_done", "checksum", "error",
                 "notes", "max_inflight", "loop")

    def __init__(self, workload: WorkloadSpec, sink=None):
        self.counts = LatencyCounts()  # of the durations (us) of logged reads
        self.sink = self.counts.add if sink is None else sink  # or a log's
        self.last_done = 0  # ns time of the last logged completion
        self.checksum = _Checksum(workload) if workload.verify else None
        self.error: BaseException | None = None
        self.notes: list[str] = []
        self.max_inflight = 0
        self.loop = "python"  # or "native": the compiled loop read


def _ns(t: float) -> int:
    """A window edge as int64 ns, the infinite ones clamped."""
    return int(min(max(t, -2 ** 63), 2 ** 63 - 1))


def _python_loop(backend, batch: int, left: int, offsets: Iterator[int],
                 rows: np.ndarray, warm_end: float, deadline: float,
                 stop: ctypes.c_int, result: _RealWorkerResult) -> None:
    """The steps of ``rb_async_loop`` in Python, over ``backend``'s
    ``submit_reads`` and ``wait``, a slot per row of the arena: refill each
    harvest's slots from ``offsets``, at most ``left`` reads in all, and
    check, log and, if the result has a checksum, verify its reads."""
    durations, checksum = array("q"), result.checksum
    clock = time.perf_counter_ns
    depth, block = rows.shape[0], rows.shape[1] * fill.WORD
    per = max(1, fill.CHECK_CHUNK_BYTES // block)  # blocks per check
    # per slot: submit stamp, offset, in flight; the slots to submit next
    slot_ns, slot_off, busy = [0] * depth, [0] * depth, [False] * depth
    refill = list(range(depth))
    inflight = 0
    while True:
        now = clock()
        n = min(len(refill), left)
        if n and (now >= deadline or stop.value):
            n = 0
        if n:
            slots = refill[:n]
            fresh = list(itertools.islice(offsets, n))
            for slot, offset in zip(slots, fresh):
                slot_ns[slot], slot_off[slot], busy[slot] = now, offset, True
            backend.submit_reads(slots, fresh)
            left -= n
            inflight += n
            result.max_inflight = max(result.max_inflight, inflight)
        if not inflight:
            break
        done = _harvest(backend, min(batch, inflight), result.notes, stop)
        if done is None:  # another worker failed
            break
        now = clock()
        refill, bad = [], None  # the slots not refilled at once never are
        for slot, res in done:
            if not 0 <= slot < depth or not busy[slot]:
                raise async_error(UNKNOWN_SLOT, slot, depth)
            busy[slot] = False
            refill.append(slot)
            if res != block and bad is None:
                bad = (slot_off[slot], res)
        inflight -= len(refill)
        if bad is not None:
            raise async_error(BAD_RESULT, *bad)
        logged = len(durations)
        for slot in refill:  # to the nearest us, halves up
            if slot_ns[slot] >= warm_end:
                durations.append((now - slot_ns[slot] + 500) // 1000)
        if len(durations) > logged:
            result.last_done = now
        if len(durations) >= _OFFSET_CHUNK:
            result.sink(durations)
            del durations[:]
        if checksum is not None:  # before the refill
            for i in range(0, len(refill), per):
                group = refill[i:i + per]
                checksum.add(rows[group], [slot_off[s] for s in group])
    result.sink(durations)


def _native_async(async_loop, backend, batch: int, left: int,
                  streams: hotloop.Streams, start: int, rows: np.ndarray,
                  warm_end: float, deadline: float, stop: ctypes.c_int,
                  result: _RealWorkerResult) -> None:
    """The loop of :func:`_python_loop` in C (:mod:`readbench.hotloop`),
    over the ``loop_queue`` of ``backend``, a kernel queue or a
    :class:`_SyncQueue`.  C draws the worker's offsets from ``streams`` at
    ``start`` (:func:`_streams`) as :func:`offset_stream` does, so the
    refills are the Python loop's; it returns only to pass on a full log.
    A verified run has each harvest checked in C against the fill seed's
    pattern.  An AIO ``backend`` gets the reads left in flight, so that its
    close cancels them."""
    queue = backend.loop_queue()
    checksum = result.checksum
    pages, seed = ((0, 0) if checksum is None
                   else (queue.block // fill.PAGE, checksum.seed))
    state = hotloop.AsyncState(queue.depth, batch, left, rows, pages, seed,
                               streams, start)
    # the durations logged and the offsets checked
    room = _OFFSET_CHUNK + queue.depth
    log = np.empty((2, room), dtype=np.int64)
    state.log, state.nlog = log.ctypes.data, room
    try:
        while True:
            # the limits are read at each call, so that patches apply
            status = async_loop(
                queue, state, _ns(warm_end), _ns(deadline),
                ctypes.addressof(stop),
                round(HARVEST_TIMEOUT_S * 1e9), round(STALL_LIMIT_S * 1e9),
                fill.RAMP.ctypes.data)
            result.sink(log[0, :state.logged])
            if state.checked:
                checksum.keep(log[1, :state.checked])
            if status != hotloop.MORE:
                break
    finally:
        if queue.kind == hotloop.AIO:
            backend.inflight = state.inflight
    result.max_inflight, result.last_done = state.max_inflight, state.last_done
    if state.stalled and _STALLED not in result.notes:
        result.notes.append(_STALLED)
    if status == hotloop.FAILED:
        if state.fault == BAD_DATA:
            slot = state.fault_a
            checksum.raise_refused(rows[slot], int(state.slots[1, slot]))
        if state.fault == BAD_RESULT and queue.kind == hotloop.SYNC:
            raise read_error(state.fault_a, state.fault_b, queue.block)
        # io_getevents fails, io_submit falls short
        call = ("io_uring_enter" if queue.kind == hotloop.URING else
                "io_getevents" if state.fault == CALL_FAILED else "io_submit")
        raise async_error(state.fault, state.fault_a, state.fault_b, call)


def _real_worker(workload: WorkloadSpec, engine: EngineConfig, w: int,
                 warm_end: float, deadline: float, stop: ctypes.c_int,
                 result: _RealWorkerResult,
                 offsets: list[int] | None = None) -> None:
    """Log each read submitted at or after warm_end, and submit none at or
    after deadline (perf_counter_ns; infinite in request-budget mode).
    Verify each block only if the result has a checksum."""
    handle = workload.target
    block = workload.block_size
    # reads the budget allows, all there can be without one
    remaining = (2 ** 63 - 1 if workload.request_budget is None else
                 split_budget(workload.request_budget, workload.threads, w))
    # drawn offsets are aligned and in range; a given list is refused whole
    streams, starts = _streams(workload, offsets)
    if result.checksum is not None and (streams.offsets % fill.PAGE).any():
        raise ValueError("verified reads need page-aligned offsets")
    check_offsets(handle, streams.offsets, block)
    lib, detail = hotloop.load()
    if lib is None:
        result.notes.append(f"native loop unavailable ({detail}), "
                            "reads timed on the Python loop")
    bufs, rows = _arena(engine.queue_size, block)
    if engine.kind in ASYNC_KINDS:
        backend = _make_async_backend(engine, handle, engine.queue_size,
                                      bufs, result.notes)
    else:
        flags = polled_flags(handle, bufs[0]) if engine.kind == "polled" else 0
        if engine.kind == "polled" and not flags:
            result.notes.append("polled reads unsupported, fell back to plain reads")
        backend = _SyncQueue(handle, flags, bufs)
    try:
        if lib is not None and type(backend) in (
                _SyncQueue, aio_native.AioQueue, uring_native.UringQueue):
            result.loop = "native"
            _native_async(lib.rb_async_loop, backend, engine.batch_size,
                          remaining, streams, starts[w], rows, warm_end,
                          deadline, stop, result)
        else:
            _python_loop(backend, engine.batch_size, remaining,
                         offset_stream(workload, w, offsets), rows, warm_end,
                         deadline, stop, result)
    finally:
        backend.close()


def _run_real(workload: WorkloadSpec, engine: EngineConfig, counts):
    """Run on the file; each worker's counts are merged into ``counts``."""
    warm_end = time.perf_counter_ns() + round(workload.warmup_s * 1e9)
    deadline = (math.inf if workload.duration_s is None
                else warm_end + round(workload.duration_s * 1e9))
    results = [_RealWorkerResult(workload) for _ in range(workload.threads)]
    # set by the first worker to fail; both loops test it before each refill
    # and after an empty wait, the compiled one at its address
    stop = ctypes.c_int(0)

    def runner(w: int) -> None:
        try:
            _real_worker(workload, engine, w, warm_end, deadline, stop,
                         results[w])
        except BaseException as exc:  # collected and re-raised by the parent
            results[w].error = exc
            stop.value = 1

    if workload.threads == 1:
        runner(0)
    else:
        threads = []
        for w in range(workload.threads):
            threads.append(threading.Thread(target=runner, args=(w,)))
            try:
                threads[-1].start()
            except Exception as exc:  # the started workers stop first
                stop.value = 1
                for t in threads[:-1]:
                    t.join()
                raise AbortedRun(f"worker {w} of {workload.threads} did not "
                                 f"start: {exc!r}") from exc
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

    for r in results:
        counts.merge(r.counts)
    elapsed = max(max(r.last_done for r in results) - warm_end, 1) / 1e9

    # workers' digests merge by adding lanes, mod 2^64
    checksum = (fill.hexdigest(sum(r.checksum.digest() for r in results))
                if workload.verify else "")
    notes = list(dict.fromkeys(n for r in results for n in r.notes))
    extra = {"max_inflight": max(r.max_inflight for r in results),
             "loop": results[0].loop}
    return elapsed, checksum, notes, extra


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(workload: WorkloadSpec, engine: EngineConfig) -> RunRecord:
    """Execute one (workload, engine) combination and assemble its record."""
    if engine.kind in ("sync", "polled") and workload.threads != 1:
        raise ValueError(f"{engine.kind} engine runs single-threaded")
    from .report import encode_label  # local import: report depends on us

    started_at = datetime.now(timezone.utc).isoformat()
    counts = LatencyCounts()
    if workload.target.is_simulated:
        elapsed_s, checksum, notes, extra = _simulate(workload, engine,
                                                      counts.add)
        # the device model spends no host CPU, and host CPU would make
        # replays, selection and plots differ from run to run
        cpu = CpuUsage.of(0.0, elapsed_s)
    else:
        hotloop.load()  # built at first use, before the clocks start
        cpu_before = snapshot_cpu()
        wall0 = time.perf_counter_ns()
        elapsed_s, checksum, notes, extra = _run_real(workload, engine, counts)
        wall = max(time.perf_counter_ns() - wall0, 1) / 1e9
        cpu = measure_cpu(cpu_before, snapshot_cpu(), wall)

    label = encode_label(engine, workload.threads)
    if label.note:
        notes = notes + [label.note]
    return RunRecord(
        workload=workload.describe(),
        engine=engine,
        throughput_mb_s=compute_throughput(
            len(counts) * workload.block_size, elapsed_s),
        latency=aggregate_latencies(counts),
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
                 offsets: list[int] | None = None) -> array:
    """Per-request latencies (us), in harvest order, of a single-worker
    request-budget run without warm-up; ``offsets``, when given, replace
    the offset stream, repeated in order."""
    if workload.threads != 1 or workload.duration_s or workload.warmup_s:
        raise ValueError("duration_log runs one worker to a request budget "
                         "without warm-up")
    if offsets is not None and not len(offsets):
        raise ValueError("the offset list is empty")
    log = array("q")

    def keep(chunk) -> None:  # an array('q') or an int64 ndarray, in order
        log.frombytes(np.asarray(chunk).tobytes())

    if workload.target.is_simulated:
        _simulate(workload, engine, keep, offsets)
    else:
        _real_worker(workload, engine, 0, -math.inf, math.inf,
                     ctypes.c_int(), _RealWorkerResult(workload, keep),
                     offsets)
    return log


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
    if offsets is not None and not len(offsets):
        raise ValueError("the offset list is empty")
    if offsets is not None and len(offsets) > engine.queue_size:
        raise ValueError("more offsets than queue slots")

    n = engine.queue_size if offsets is None else len(offsets)
    reps = workload.request_budget
    log = duration_log(
        replace(workload, threads=1, warmup_s=0.0, request_budget=reps * n),
        replace(engine, queue_size=n, batch_size=n), offsets)
    return aggregate_latencies(np.asarray(log).reshape(reps, n).max(axis=1))


def probe_engines() -> dict[str, dict]:
    """Which engines (and ring features) this system supports, and under
    ``loop`` whether the compiled loops built, which this builds if they are
    not built yet."""
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
        for feature in ("fixed_buffers", "kernel_poll"):
            entry[feature] = uring_native.probe(**{feature: True})[0]
    info["uring"] = entry
    loop, detail = hotloop.load()
    info["loop"] = {"native": loop is not None, "detail": detail}
    return info

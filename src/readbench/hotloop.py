"""The compiled loops: ``rb_async_loop``, that of every engine on a real
file, over a kernel queue (aio, uring) or a depth-1 sync queue (sync,
polled, pool; :meth:`Queue.sync`); ``rb_sim_loop``, that of every engine on
a simulated device, which replays ``engines._simulate`` and the scheduler
of :mod:`readbench.devicesim` bit for bit, on the service terms that a
``devicesim.SimState`` derives (:class:`SimLoop`).  Each ``ctypes``
structure here mirrors a struct of ``_hotloop.c`` field for field.

:func:`load` builds ``_hotloop.c`` with the system ``cc`` at first use, never
at import, into ``$XDG_CACHE_HOME/readbench/<key>.so`` (default
``~/.cache``), the key a CRC-32 of the compiler flags, the libraries and the
source: under a temporary name there, then renamed into place, so a process
never loads a library another one is still writing.  Where that directory
is not writable, it builds into a temporary directory of this process.
Without a compiler the engines run on the Python loops; a real-file record
says so.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import os
import shutil
import subprocess
import tempfile
import zlib
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_hotloop.c")
# vectorised, a page's check takes about half the time; no fused
# multiply-add (the default on aarch64), which would round the simulator's
# ``base + length * per_byte`` and channel arithmetic once where Python
# rounds twice
_CFLAGS = ("-O2", "-ftree-vectorize", "-shared", "-fPIC", "-ffp-contract=off")
# pow, the fallback of the simulator's heavy-tail jitter, is in libm
_LIBS = ("-lm",)

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p

#: what ended a call of a compiled loop: nothing in flight, a log too full
#: for the next pass (the caller passes it on and calls again), a wait that
#: came back empty once the run was stopped, or a fault (``AsyncState.fault``,
#: an ``errors.async_error`` kind or BAD_DATA; ``SimLoop.fault``)
DONE, MORE, STOPPED, FAILED = range(4)

#: the fault of a block that failed the loop's page check, slot
#: ``AsyncState.fault_a``: ``fill.check_blocks`` names what is wrong with it
BAD_DATA = 7

#: what a queue is, ``Queue.kind``
AIO, URING, SYNC = range(3)


class Queue(ctypes.Structure):
    """A queue as ``rb_async_loop`` works it (``struct rb_queue``): a kernel
    queue's ``loop_queue``, which it must outlive, slot i's offset at ``off
    + i * stride`` in its request block; or a sync queue (:meth:`sync`)."""

    _fields_ = [("kind", _I64), ("handle", _I64), ("depth", _I64),
                ("block", _I64), ("kernel_poll", _I64), ("flags", _I64),
                ("off", _PTR), ("stride", _I64), ("iocbs", _PTR),
                ("ptrs", _PTR), ("events", _PTR), ("sq_tail", _PTR),
                ("sq_flags", _PTR), ("sq_array", _PTR), ("cq_head", _PTR),
                ("cq_tail", _PTR), ("cq_overflow", _PTR), ("cqes", _PTR),
                ("sq_mask", _I64), ("cq_mask", _I64)]

    @classmethod
    def sync(cls, fd: int, block: int, flags: int) -> "Queue":
        """A depth-1 queue on the file at fd: its submit reads the slot into
        row 0 of the arena with one ``preadv2(flags)``, its reap takes that
        read's result."""
        words = np.zeros(5, dtype=np.int64)  # offset, then (slot, -, res, -)
        queue = cls(kind=SYNC, handle=fd, depth=1, block=block, flags=flags,
                    off=words.ctypes.data, events=words[1:].ctypes.data)
        queue.words = words  # kept as long as the queue
        return queue


class Streams(ctypes.Structure):
    """A run's offset streams, which both loops draw from with
    ``next_offset`` (``struct rb_streams``): the ``nlist`` offsets at
    ``list``, if any, cycled, else the ``nblocks`` blocks of ``block`` bytes
    of the target, at random or in sequence.  The int64 array at ``list``
    is ``offsets``, which a loop given the streams keeps as long as
    itself."""

    _fields_ = [("list", _PTR), ("nlist", _I64), ("nblocks", _I64),
                ("random", _I64), ("block", _I64)]


class AsyncState(ctypes.Structure):
    """One worker's ``rb_async_loop`` across its calls (``struct rb_async``):
    every slot is to be submitted, and ``left`` reads more at most, at the
    offsets of ``streams`` from ``start`` (``engines._streams``).  Slot i's
    block is row i of ``rows``; with ``pages`` pages a block, each page is
    checked against the fill pattern of fill seed ``seed``, whose page
    hashes the loop computes as ``fill.page_hashes`` does.  ``log`` has room
    for ``nlog`` durations, then for ``nlog`` offsets checked."""

    _fields_ = [("slot_ns", _PTR), ("slot_off", _PTR), ("busy", _PTR),
                ("refill", _PTR), ("nrefill", _I64), ("left", _I64),
                ("batch", _I64), ("inflight", _I64), ("max_inflight", _I64),
                ("last_done", _I64), ("stalled", _I64), ("fault", _I64),
                ("fault_a", _I64), ("fault_b", _I64), ("rows", _PTR),
                ("seed", ctypes.c_uint64), ("pages", _I64), ("log", _PTR),
                ("nlog", _I64), ("logged", _I64), ("checked", _I64),
                ("streams", Streams), ("stream", ctypes.c_uint64)]

    def __init__(self, depth: int, batch: int, left: int, rows: np.ndarray,
                 pages: int, seed: int, streams: Streams, start: int):
        # per slot: submit stamp, offset, in flight, and the refill order
        self.slots = np.zeros((4, depth), dtype=np.int64)
        self.slots[3] = np.arange(depth)
        self.offsets = streams.offsets
        base, row = self.slots.ctypes.data, self.slots.strides[0]
        super().__init__(*(base + i * row for i in range(4)),
                         nrefill=depth, left=left, batch=batch,
                         rows=rows.ctypes.data, seed=seed, pages=pages,
                         streams=streams, stream=start)


#: the fault of a refused simulated submit, ``SimLoop.fault``: a request
#: outside the device, or more queued than ``SimState.pending_bound``
OUTSIDE, BACKPRESSURE = 8, 9


class SimLoop(ctypes.Structure):
    """One simulated run as ``rb_sim_loop`` keeps it across calls (``struct
    rb_sim``): the terms of a ``devicesim.SimState`` (``SimState.terms``),
    the device state and its draw stream, and per worker (a column of
    ``workers``) its budget left, reads in flight, most in flight, reads
    ready and reads to refill, and the state of its stream of ``streams``
    (``states``).  Every worker owes a refill of ``depth`` at first.  Worker
    w's stream starts at ``starts[w]`` (``engines._streams``): with a given
    list the index in it, else the seed of its random words or the block it
    reads first.  The requests queued are a ring in ``ring``.  Those in
    service, in ``service``, are a ring whose head is at ``served`` where
    the model has a bandwidth limit, since they then complete in the order
    they start, and a binary heap where it has none."""

    #: rows of ``workers``, each a pointer of the struct
    ROWS = ("left", "out", "most", "ready", "owed")
    LEFT, OUT, MOST, READY, OWED = range(len(ROWS))

    _fields_ = ([(name, ctypes.c_double) for name in (
        "base", "per_byte", "two_scale", "cap", "power", "spike_p",
        "spike_us", "seek_min", "seek_span", "rotation", "outer", "rate_span",
        "bandwidth", "degraded_until", "degraded_factor", "warmup",
        "window_end", "clock", "channel_free", "last_completion")]
        + [(name, _I64) for name in (
            "hdd", "jitter", "uniform", "parallelism", "capacity", "threads",
            "depth", "batch", "budget", "pending_bound", "head", "last_end",
            "active", "seq", "outstanding")]
        + [("pending", _PTR), ("mask", _I64), ("first", _I64),
           ("npending", _I64), ("events", _PTR), ("served", _I64)]
        + [(name, _PTR) for name in ROWS]
        + [("streams", Streams), ("stream", _PTR), ("draw", ctypes.c_uint64),
           ("log", _PTR), ("nlog", _I64), ("logged", _I64),
           ("verified", _I64), ("kept", _I64), ("fault", _I64)])

    def __init__(self, state, depth: int, batch: int, budgets: list,
                 warmup: float, window_end: float, streams: Streams,
                 starts: list):
        threads = len(budgets)
        self.workers = np.zeros((len(self.ROWS), threads), dtype=np.int64)
        self.workers[self.OWED] = depth
        if budgets[0] is not None:
            self.workers[self.LEFT] = budgets
        self.states = np.array(starts, dtype=np.uint64)
        self.offsets = streams.offsets
        n = threads * depth
        # 24 B a queued request and 32 B one in service, each in a ring of
        # 2^k >= n (a heap's first n where there is no bandwidth limit)
        k = (n - 1).bit_length()
        self.ring = np.zeros(3 << k, dtype=np.int64)
        self.service = np.zeros(4 << k, dtype=np.int64)
        base, row = self.workers.ctypes.data, self.workers.strides[0]
        super().__init__(
            **{name: base + i * row for i, name in enumerate(self.ROWS)},
            **state.terms._asdict(), warmup=warmup, window_end=window_end,
            last_completion=warmup, capacity=state.capacity, threads=threads,
            depth=depth, batch=batch,
            budget=budgets[0] is not None, pending_bound=state.pending_bound,
            pending=self.ring.ctypes.data,
            mask=(1 << k) - 1, events=self.service.ctypes.data,
            streams=streams, stream=self.states.ctypes.data,
            draw=state.model.rng_seed)  # c_uint64 keeps it mod 2^64


class BuildError(Exception):
    """The loop could not be compiled."""


def _compile(directory: Path, name: str) -> Path:
    """Compile SOURCE to directory/name, through a temporary name there."""
    cc = shutil.which("cc")
    if cc is None:
        raise BuildError("no C compiler: cc is not on PATH")
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, str(SOURCE), *_LIBS],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode:
            why = (proc.stderr.strip().splitlines() or ["no output"])[0]
            raise BuildError(f"cc exited with {proc.returncode}: {why}")
        os.replace(tmp, directory / name)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return directory / name


@functools.cache
def load():
    """(the library, its path), or (None, why it is unavailable).  Its
    ``rb_async_loop``, ``rb_sim_loop`` and ``rb_heavy_tail`` are declared.
    Built once per source and cache directory, loaded once per process."""
    try:
        # a CRC, not a cryptographic hash: the cache is the user's own, and
        # hashlib would map the OpenSSL library into every run (~4 MiB RSS)
        key = " ".join(_CFLAGS + _LIBS).encode() + SOURCE.read_bytes()
        name = f"{zlib.crc32(key):08x}.so"
        cache = Path(os.environ.get("XDG_CACHE_HOME")
                     or Path.home() / ".cache") / "readbench"
        path = cache / name
        if not path.exists():
            try:
                path = _compile(cache, name)
            except OSError:  # the cache is not writable: build privately
                private = Path(tempfile.mkdtemp(prefix="readbench-"))
                atexit.register(shutil.rmtree, private, True)
                path = _compile(private, name)
        lib = ctypes.CDLL(str(path))
    except (BuildError, OSError, subprocess.SubprocessError) as exc:
        return None, str(exc)
    lib.rb_async_loop.argtypes = (
        ctypes.POINTER(Queue), ctypes.POINTER(AsyncState), _I64, _I64, _PTR,
        _I64, _I64, _PTR)
    lib.rb_async_loop.restype = ctypes.c_int
    lib.rb_sim_loop.argtypes = (ctypes.POINTER(SimLoop),)
    lib.rb_sim_loop.restype = ctypes.c_int
    # (draws, out, n, power): out[i] = draws[i] ** power, as the loop has it
    lib.rb_heavy_tail.argtypes = (_PTR, _PTR, _I64, ctypes.c_double)
    lib.rb_heavy_tail.restype = None
    return lib, str(path)

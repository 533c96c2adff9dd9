"""Submission/completion-ring backend (io_uring) via raw syscalls.

A minimal read-only ring: setup, mmap of the SQ/CQ rings and SQE array,
submission through io_uring_enter, and optional registered files,
registered buffers, and the kernel-side submission poll thread.

SQE i reads slot i's buffer; the kernel reads an SQE only while submitting
it, so a submit writes just offsets and SQ indices, through numpy views, or
in the compiled loop (:meth:`UringQueue.loop_queue`).  Slots and offsets go
in, and (slot, res) pairs come out, as lists of ints.

Ring memory is touched with plain stores; x86 total-store-order plus the
acquire/release semantics of io_uring_enter make this safe for the
single-threaded-per-ring use here, so other architectures are refused.
"""

from __future__ import annotations

import ctypes
import errno
import mmap
import os
import platform

import numpy as np

from . import hotloop
from .errors import (CALL_FAILED, RING_OVERFLOW, SHORT_SUBMIT,
                     EngineUnsupported, async_error)

_SYS_setup = 425
_SYS_enter = 426
_SYS_register = 427

_OFF_SQ_RING = 0
_OFF_SQES = 0x10000000

_SETUP_SQPOLL = 1 << 1
_FEAT_SINGLE_MMAP = 1 << 0
_FEAT_SQPOLL_NONFIXED = 1 << 7
_FEAT_EXT_ARG = 1 << 8

_ENTER_GETEVENTS = 1 << 0
_ENTER_SQ_WAKEUP = 1 << 1
_ENTER_EXT_ARG = 1 << 3

_OP_READ = 22
_OP_READ_FIXED = 4

_SQE_FIXED_FILE = 1 << 0
_SQ_NEED_WAKEUP = 1 << 0

_REGISTER_BUFFERS = 0
_REGISTER_FILES = 2

_libc = ctypes.CDLL(None, use_errno=True)


class _SqOffsets(ctypes.Structure):
    _fields_ = [("head", ctypes.c_uint32), ("tail", ctypes.c_uint32),
                ("ring_mask", ctypes.c_uint32), ("ring_entries", ctypes.c_uint32),
                ("flags", ctypes.c_uint32), ("dropped", ctypes.c_uint32),
                ("array", ctypes.c_uint32), ("resv1", ctypes.c_uint32),
                ("user_addr", ctypes.c_uint64)]


class _CqOffsets(ctypes.Structure):
    _fields_ = [("head", ctypes.c_uint32), ("tail", ctypes.c_uint32),
                ("ring_mask", ctypes.c_uint32), ("ring_entries", ctypes.c_uint32),
                ("overflow", ctypes.c_uint32), ("cqes", ctypes.c_uint32),
                ("flags", ctypes.c_uint32), ("resv1", ctypes.c_uint32),
                ("user_addr", ctypes.c_uint64)]


class _Params(ctypes.Structure):
    _fields_ = [("sq_entries", ctypes.c_uint32), ("cq_entries", ctypes.c_uint32),
                ("flags", ctypes.c_uint32), ("sq_thread_cpu", ctypes.c_uint32),
                ("sq_thread_idle", ctypes.c_uint32), ("features", ctypes.c_uint32),
                ("wq_fd", ctypes.c_uint32), ("resv", ctypes.c_uint32 * 3),
                ("sq_off", _SqOffsets), ("cq_off", _CqOffsets)]


#: struct io_uring_sqe, as used for reads
_SQE = np.dtype([
    ("opcode", "u1"), ("flags", "u1"), ("ioprio", "<u2"), ("fd", "<i4"),
    ("off", "<i8"), ("addr", "<u8"), ("len", "<u4"), ("rw_flags", "<u4"),
    ("user_data", "<u8"), ("buf_index", "<u2"), ("personality", "<u2"),
    ("splice_fd_in", "<i4"), ("pad", "<u8", (2,)),
])

#: struct io_uring_cqe is four int32 words: user_data (two), res, flags
_CQE_WORDS = 4

_U32 = 0xFFFFFFFF


class _Timespec(ctypes.Structure):
    _fields_ = [("tv_sec", ctypes.c_int64), ("tv_nsec", ctypes.c_int64)]


class _GeteventsArg(ctypes.Structure):
    _fields_ = [("sigmask", ctypes.c_uint64), ("sigmask_sz", ctypes.c_uint32),
                ("pad", ctypes.c_uint32), ("ts", ctypes.c_uint64)]


#: io_uring_enter's argsz, a size_t: no argument, or a _GeteventsArg
_NO_ARGSZ = ctypes.c_size_t(0)
_EXT_ARGSZ = ctypes.c_size_t(ctypes.sizeof(_GeteventsArg))


class _Iovec(ctypes.Structure):
    _fields_ = [("iov_base", ctypes.c_void_p), ("iov_len", ctypes.c_size_t)]


def _errno_str() -> str:
    return os.strerror(ctypes.get_errno())


class UringQueue:
    """One ring reading one file descriptor, with one slot per buffer; slot
    i reads into ``buffers[i]`` through SQE i."""

    #: numpy and ctypes views over the ring mappings, dropped by close()
    _VIEWS = ("_sq_tail", "_sq_flags", "_sq_array", "_cq_head", "_cq_tail",
              "_cq_overflow", "_cq_rows", "_sqe_off")

    def __init__(self, fd: int, depth: int, buffers: list[memoryview],
                 fixed_files: bool = False, fixed_buffers: bool = False,
                 kernel_poll: bool = False):
        if platform.machine() != "x86_64":
            raise EngineUnsupported("completion ring", "ring access assumes "
                                    f"x86 store ordering, not {platform.machine()}")
        if len(buffers) != depth:
            raise ValueError(f"{len(buffers)} buffers for {depth} slots")
        self.kernel_poll = kernel_poll
        self._buffers = buffers  # the kernel writes into them
        # a timed wait's argument, made once
        self._ts = _Timespec()
        self._ext_arg = ctypes.byref(_GeteventsArg(ts=ctypes.addressof(self._ts)))

        params = _Params()
        if kernel_poll:
            params.flags |= _SETUP_SQPOLL
            params.sq_thread_idle = 1000  # ms before the poll thread naps
        ring_fd = _libc.syscall(_SYS_setup, ctypes.c_uint(depth),
                                ctypes.byref(params))
        if ring_fd < 0:
            feature = "kernel poll thread" if kernel_poll else "completion ring"
            raise EngineUnsupported(feature, _errno_str())
        self.ring_fd = ring_fd
        self._mmaps: list[mmap.mmap] = []
        try:
            # EXT_ARG (Linux 5.11) gives waits a timeout; SINGLE_MMAP (5.4)
            # lets one mapping hold both rings; SQPOLL_NONFIXED (5.11) lets
            # the poll thread read a file that is not registered
            needed = (_FEAT_EXT_ARG | _FEAT_SINGLE_MMAP
                      | (_FEAT_SQPOLL_NONFIXED if kernel_poll else 0))
            if (params.features & needed) != needed:
                raise EngineUnsupported(
                    "completion ring", "kernel lacks IORING_FEAT_EXT_ARG, "
                    "SINGLE_MMAP or SQPOLL_NONFIXED (Linux 5.11)")
            if fixed_files:
                arr = (ctypes.c_int32 * 1)(fd)
                self._register(_REGISTER_FILES, arr, 1, "fixed files")
            addrs = [ctypes.addressof(ctypes.c_char.from_buffer(b))
                     for b in buffers]
            if fixed_buffers:
                iovs = (_Iovec * depth)(*zip(addrs, map(len, buffers)))
                self._register(_REGISTER_BUFFERS, iovs, depth, "fixed buffers")
            sqes = self._map_rings(params)[:depth]
            sqes["opcode"] = _OP_READ_FIXED if fixed_buffers else _OP_READ
            sqes["flags"] = _SQE_FIXED_FILE if fixed_files else 0
            sqes["fd"] = 0 if fixed_files else fd
            sqes["addr"] = addrs
            sqes["len"] = [len(b) for b in buffers]
            sqes["user_data"] = np.arange(depth)
            if fixed_buffers:
                sqes["buf_index"] = np.arange(depth)
            self._sqe_off = sqes["off"]
        except Exception:
            sqes = None  # a view of a mapping, which close() would refuse
            self.close()
            raise

    def _register(self, opcode: int, arg, nr: int, feature: str) -> None:
        ret = _libc.syscall(_SYS_register, ctypes.c_uint(self.ring_fd),
                            ctypes.c_uint(opcode), arg, ctypes.c_uint(nr))
        if ret < 0:
            raise EngineUnsupported(feature, _errno_str())

    def _map_rings(self, p: _Params) -> np.ndarray:
        """Map the rings and set up the views over them; returns the zeroed
        SQE array."""
        sq_size = p.sq_off.array + p.sq_entries * 4
        cq_size = p.cq_off.cqes + p.cq_entries * _CQE_WORDS * 4
        rings = mmap.mmap(self.ring_fd, max(sq_size, cq_size),
                          offset=_OFF_SQ_RING)
        self._mmaps.append(rings)
        sqes_mm = mmap.mmap(self.ring_fd, p.sq_entries * _SQE.itemsize,
                            offset=_OFF_SQES)
        self._mmaps.append(sqes_mm)

        def u32(mm, off):
            return ctypes.c_uint32.from_buffer(mm, off)

        self._sq_tail = u32(rings, p.sq_off.tail)
        self._sq_mask = u32(rings, p.sq_off.ring_mask).value
        self._sq_flags = u32(rings, p.sq_off.flags)
        self._sq_array = np.frombuffer(rings, dtype=np.uint32,
                                       count=p.sq_entries, offset=p.sq_off.array)
        self._cq_head = u32(rings, p.cq_off.head)
        self._cq_tail = u32(rings, p.cq_off.tail)
        self._cq_overflow = u32(rings, p.cq_off.overflow)
        self._cq_mask = u32(rings, p.cq_off.ring_mask).value
        # (slot, res) of each CQE: user_data holds a slot, so its low word
        # is the slot
        self._cq_rows = np.frombuffer(
            rings, dtype=np.int32, count=p.cq_entries * _CQE_WORDS,
            offset=p.cq_off.cqes).reshape(-1, _CQE_WORDS)[:, ::2]
        sqes = np.frombuffer(sqes_mm, dtype=_SQE, count=p.sq_entries)
        sqes[...] = 0
        return sqes

    def submit_reads(self, slots: list[int], offsets: list[int]) -> None:
        """Post one read per slot, at the matching offset, and kick the
        kernel; IoError if it takes fewer than all of them."""
        n = len(slots)
        self._sqe_off[slots] = offsets
        tail = self._sq_tail.value
        i = tail & self._sq_mask
        k = min(n, len(self._sq_array) - i)
        self._sq_array[i:i + k] = slots[:k]
        if k < n:  # the ring's end splits the entries
            self._sq_array[:n - k] = slots[k:]
        self._sq_tail.value = (tail + n) & _U32
        if self.kernel_poll:
            if self._sq_flags.value & _SQ_NEED_WAKEUP:
                self._enter(0, 0, _ENTER_SQ_WAKEUP)
        else:
            submitted = self._enter(n, 0, 0)
            if submitted != n:
                raise async_error(SHORT_SUBMIT, submitted, n, "io_uring_enter")

    def _enter(self, to_submit: int, min_complete: int, flags: int,
               timeout_s: float | None = None) -> int:
        """io_uring_enter, retried on EINTR; with timeout_s, a wait that
        times out returns 0."""
        arg, argsz = None, _NO_ARGSZ
        if timeout_s is not None:
            sec = int(timeout_s)
            self._ts.tv_sec, self._ts.tv_nsec = sec, int((timeout_s - sec) * 1e9)
            arg, argsz = self._ext_arg, _EXT_ARGSZ
            flags |= _ENTER_EXT_ARG
        while True:
            # ints pass as C int, widened by libffi to the long syscall
            # reads; the kernel keeps the unsigned int it takes
            ret = _libc.syscall(_SYS_enter, self.ring_fd, to_submit,
                                min_complete, flags, arg, argsz)
            if ret >= 0:
                return ret
            err = ctypes.get_errno()
            if err == errno.ETIME and timeout_s is not None:
                return 0
            if err != errno.EINTR:
                raise async_error(CALL_FAILED, err, call="io_uring_enter")

    def _reap(self) -> list[list[int]]:
        """Every CQE posted so far, as (slot, res) pairs."""
        head = self._cq_head.value
        n = (self._cq_tail.value - head) & _U32
        i = head & self._cq_mask
        k = min(n, len(self._cq_rows) - i)
        out = self._cq_rows[i:i + k].tolist()
        if k < n:  # the ring's end splits the entries
            out += self._cq_rows[:n - k].tolist()
        self._cq_head.value = (head + n) & _U32
        return out

    def wait(self, min_nr: int, timeout_s: float) -> list[list[int]]:
        """Every completion posted, waiting once for min_nr of them; fewer
        if timeout_s runs out first.  Returns their (slot, res) pairs;
        IoError once the kernel has dropped one."""
        if (self._cq_tail.value - self._cq_head.value) & _U32 < min_nr:
            # min_complete counts every CQE not yet reaped, these included
            self._enter(0, min_nr, _ENTER_GETEVENTS, timeout_s)
        if self._cq_overflow.value:  # those reads would never be reaped
            raise async_error(RING_OVERFLOW, self._cq_overflow.value)
        return self._reap()

    def loop_queue(self) -> hotloop.Queue:
        """This ring as the compiled async loop works it."""
        return hotloop.Queue(
            kind=hotloop.URING, handle=self.ring_fd, depth=len(self._buffers),
            block=len(self._buffers[0]), kernel_poll=self.kernel_poll,
            off=self._sqe_off.ctypes.data, stride=self._sqe_off.strides[0],
            sq_tail=ctypes.addressof(self._sq_tail),
            sq_flags=ctypes.addressof(self._sq_flags),
            sq_array=self._sq_array.ctypes.data,
            cq_head=ctypes.addressof(self._cq_head),
            cq_tail=ctypes.addressof(self._cq_tail),
            cq_overflow=ctypes.addressof(self._cq_overflow),
            cqes=self._cq_rows.ctypes.data, sq_mask=self._sq_mask,
            cq_mask=self._cq_mask)

    def close(self) -> None:
        """Unmap and close the ring; BufferError if a view outlived ours."""
        for attr in self._VIEWS:
            self.__dict__.pop(attr, None)
        try:
            for mm in self._mmaps:
                mm.close()
        finally:
            if getattr(self, "ring_fd", -1) >= 0:
                os.close(self.ring_fd)
                self.ring_fd = -1


def probe(kernel_poll: bool = False, fixed_buffers: bool = False) -> tuple[bool, str]:
    """Can this kernel create a ring (optionally with the given feature)?"""
    try:
        fd = os.open("/dev/null", os.O_RDONLY)
    except OSError as exc:
        return False, str(exc)
    try:
        ring = UringQueue(fd, 1, [memoryview(mmap.mmap(-1, 4096))],
                          kernel_poll=kernel_poll, fixed_buffers=fixed_buffers)
        ring.close()
        return True, ""
    except (EngineUnsupported, OSError) as exc:
        return False, str(exc)
    finally:
        os.close(fd)

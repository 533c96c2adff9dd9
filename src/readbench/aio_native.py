"""Kernel async-queue backend (Linux native AIO) via raw syscalls.

Wraps io_setup / io_submit / io_getevents / io_destroy with ctypes so the
kernel-async engine runs without a C extension.  One queue per worker
thread; reads are truly asynchronous only on direct-mode descriptors, but
the interface works (synchronously inside the kernel) on buffered ones too.

iocb i reads slot i's buffer; io_submit copies the iocbs, so a submit
writes just offsets, through a numpy view, or in the compiled loop
(:meth:`AioQueue.loop_queue`).
"""

from __future__ import annotations

import ctypes
import errno
import os
import threading

import numpy as np

from . import hotloop
from .errors import (CALL_FAILED, SHORT_SUBMIT, EngineUnsupported,
                     async_error)

_SYS_io_setup = 206
_SYS_io_destroy = 207
_SYS_io_getevents = 208
_SYS_io_submit = 209

_IOCB_CMD_PREAD = 0

_libc = ctypes.CDLL(None, use_errno=True)

#: struct iocb
_IOCB = np.dtype([
    ("aio_data", "<u8"), ("aio_key", "<u4"), ("aio_rw_flags", "<u4"),
    ("aio_lio_opcode", "<u2"), ("aio_reqprio", "<i2"), ("aio_fildes", "<u4"),
    ("aio_buf", "<u8"), ("aio_nbytes", "<u8"), ("aio_offset", "<i8"),
    ("aio_reserved2", "<u8"), ("aio_flags", "<u4"), ("aio_resfd", "<u4"),
])

#: struct io_event is four int64 words: data, obj, res, res2
_EVENT_WORDS = 4


class _Timespec(ctypes.Structure):
    _fields_ = [("tv_sec", ctypes.c_long), ("tv_nsec", ctypes.c_long)]


def _errno_str() -> str:
    return os.strerror(ctypes.get_errno())


def _destroy(ctx: ctypes.c_ulong, drained: bool) -> None:
    """io_destroy a context.  With none in flight it only waits (~30 ms)
    for the kernel to retire the context, so a daemon thread makes it; else
    it cancels them and returns once each has ended, so the buffers outlive
    every kernel write."""
    if drained:
        threading.Thread(target=_libc.syscall, args=(_SYS_io_destroy, ctx),
                         daemon=True).start()
    else:
        _libc.syscall(_SYS_io_destroy, ctx)


class AioQueue:
    """One kernel AIO context reading one file descriptor, with one slot
    per buffer; slot i reads into ``buffers[i]``."""

    def __init__(self, fd: int, depth: int, buffers: list[memoryview]):
        if len(buffers) != depth:
            raise ValueError(f"{len(buffers)} buffers for {depth} slots")
        self.depth = depth
        self.inflight = 0
        self._ctx = ctypes.c_ulong(0)
        ret = _libc.syscall(_SYS_io_setup, ctypes.c_uint(depth),
                            ctypes.byref(self._ctx))
        if ret < 0:
            raise EngineUnsupported("kernel async queue", _errno_str())
        self._buffers = buffers  # the kernel writes into them
        # io_submit reads the iocbs through _addrs
        iocbs = self._iocbs = np.zeros(depth, dtype=_IOCB)
        iocbs["aio_data"] = np.arange(depth)
        iocbs["aio_lio_opcode"] = _IOCB_CMD_PREAD
        iocbs["aio_fildes"] = fd
        iocbs["aio_buf"] = [ctypes.addressof(ctypes.c_char.from_buffer(b))
                            for b in buffers]
        iocbs["aio_nbytes"] = [len(b) for b in buffers]
        self._offsets = iocbs["aio_offset"]
        self._addrs = (iocbs.ctypes.data
                       + _IOCB.itemsize * np.arange(depth, dtype=np.uint64))
        self._ptrs = np.empty(depth, dtype=np.uint64)  # struct iocb *[]
        self._ptrs_arg = ctypes.c_void_p(self._ptrs.ctypes.data)
        self._events = np.zeros((depth, _EVENT_WORDS), dtype=np.int64)
        self._events_arg = ctypes.c_void_p(self._events.ctypes.data)
        self._ts = _Timespec()  # a timed wait's argument, made once
        self._ts_arg = ctypes.byref(self._ts)

    def submit_reads(self, slots: np.ndarray, offsets: np.ndarray) -> None:
        """Submit one read per slot, at the matching offset, in one
        syscall; IoError if the kernel takes fewer than all of them."""
        n = len(slots)
        self._offsets[slots] = offsets
        self._ptrs[:n] = self._addrs[slots]
        # ints pass as C int, widened by libffi to the long syscall reads
        ret = _libc.syscall(_SYS_io_submit, self._ctx, n, self._ptrs_arg)
        self.inflight += max(ret, 0)
        if ret != n:
            raise async_error(SHORT_SUBMIT, ret if ret >= 0
                              else -ctypes.get_errno(), n, "io_submit")

    def wait(self, min_nr: int, timeout_s: float) -> np.ndarray:
        """Block for at least min_nr completions, fewer if timeout_s runs
        out first; returns a (k, 2) int64 array of (slot, res) rows."""
        self._ts.tv_sec, self._ts.tv_nsec = int(timeout_s), int(timeout_s % 1 * 1e9)
        while True:
            ret = _libc.syscall(_SYS_io_getevents, self._ctx, min_nr,
                                self.depth, self._events_arg, self._ts_arg)
            if ret >= 0:
                break
            err = ctypes.get_errno()
            if err != errno.EINTR:
                raise async_error(CALL_FAILED, err, call="io_getevents")
        self.inflight -= ret
        return self._events[:ret, ::2].copy()  # data and res

    def loop_queue(self) -> hotloop.Queue:
        """This queue as the compiled async loop works it.  That loop
        submits and reaps without submit_reads and wait, so whoever runs it
        keeps ``inflight`` for close."""
        return hotloop.Queue(
            kind=hotloop.AIO, handle=self._ctx.value, depth=self.depth,
            block=len(self._buffers[0]), off=self._offsets.ctypes.data,
            stride=self._offsets.strides[0], iocbs=self._addrs.ctypes.data,
            ptrs=self._ptrs.ctypes.data, events=self._events.ctypes.data)

    def close(self) -> None:
        if self._ctx.value:
            _destroy(self._ctx, drained=self.inflight == 0)
            self._ctx = ctypes.c_ulong(0)


def probe() -> tuple[bool, str]:
    """Can this kernel create an AIO context?"""
    ctx = ctypes.c_ulong(0)
    ret = _libc.syscall(_SYS_io_setup, ctypes.c_uint(1), ctypes.byref(ctx))
    if ret < 0:
        return False, _errno_str()
    _destroy(ctx, drained=True)
    return True, ""

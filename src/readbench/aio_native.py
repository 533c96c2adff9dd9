"""Kernel async-queue backend (Linux native AIO) via raw syscalls.

Wraps io_setup / io_submit / io_getevents / io_destroy with ctypes so the
kernel-async engine runs without a C extension.  One queue per worker
thread; reads are truly asynchronous only on direct-mode descriptors, but
the interface works (synchronously inside the kernel) on buffered ones too.
"""

from __future__ import annotations

import ctypes
import errno
import os

from .errors import EngineUnsupported

_SYS_io_setup = 206
_SYS_io_destroy = 207
_SYS_io_getevents = 208
_SYS_io_submit = 209

_IOCB_CMD_PREAD = 0

_libc = ctypes.CDLL(None, use_errno=True)


class _Iocb(ctypes.Structure):
    _fields_ = [
        ("aio_data", ctypes.c_uint64),
        ("aio_key", ctypes.c_uint32),
        ("aio_rw_flags", ctypes.c_uint32),
        ("aio_lio_opcode", ctypes.c_uint16),
        ("aio_reqprio", ctypes.c_int16),
        ("aio_fildes", ctypes.c_uint32),
        ("aio_buf", ctypes.c_uint64),
        ("aio_nbytes", ctypes.c_uint64),
        ("aio_offset", ctypes.c_int64),
        ("aio_reserved2", ctypes.c_uint64),
        ("aio_flags", ctypes.c_uint32),
        ("aio_resfd", ctypes.c_uint32),
    ]


class _IoEvent(ctypes.Structure):
    _fields_ = [
        ("data", ctypes.c_uint64),
        ("obj", ctypes.c_uint64),
        ("res", ctypes.c_int64),
        ("res2", ctypes.c_int64),
    ]


class _Timespec(ctypes.Structure):
    _fields_ = [("tv_sec", ctypes.c_long), ("tv_nsec", ctypes.c_long)]


def _errno_str() -> str:
    return os.strerror(ctypes.get_errno())


class AioQueue:
    """One kernel AIO context of fixed depth, reading one file descriptor."""

    def __init__(self, fd: int, depth: int):
        self.fd = fd
        self.depth = depth
        self._ctx = ctypes.c_ulong(0)
        ret = _libc.syscall(_SYS_io_setup, ctypes.c_uint(depth),
                            ctypes.byref(self._ctx))
        if ret < 0:
            raise EngineUnsupported("kernel async queue", _errno_str())
        self._iocbs = (_Iocb * depth)()
        self._events = (_IoEvent * depth)()

    def submit_reads(self, entries: list[tuple[int, int, memoryview]]) -> None:
        """Submit (user_data, offset, buffer) reads in one syscall."""
        n = len(entries)
        ptrs = (ctypes.POINTER(_Iocb) * n)()
        for i, (data, offset, buf) in enumerate(entries):
            cb = self._iocbs[data % self.depth]
            ctypes.memset(ctypes.byref(cb), 0, ctypes.sizeof(cb))
            cb.aio_data = data
            cb.aio_lio_opcode = _IOCB_CMD_PREAD
            cb.aio_fildes = self.fd
            addr = ctypes.addressof(ctypes.c_char.from_buffer(buf))
            cb.aio_buf = addr
            cb.aio_nbytes = len(buf)
            cb.aio_offset = offset
            ptrs[i] = ctypes.pointer(cb)
        ret = _libc.syscall(_SYS_io_submit, self._ctx, ctypes.c_long(n), ptrs)
        if ret != n:
            raise OSError(ctypes.get_errno(),
                          f"io_submit returned {ret}: {_errno_str()}")

    def wait(self, min_nr: int, timeout_s: float | None = None) -> list[tuple[int, int]]:
        """Block for at least min_nr completions; returns (user_data, res)."""
        ts = None
        if timeout_s is not None:
            ts = _Timespec(int(timeout_s), int(timeout_s % 1 * 1e9))
        while True:
            ret = _libc.syscall(_SYS_io_getevents, self._ctx,
                                ctypes.c_long(min_nr), ctypes.c_long(self.depth),
                                self._events,
                                ctypes.byref(ts) if ts is not None else None)
            if ret >= 0:
                break
            err = ctypes.get_errno()
            if err != errno.EINTR:
                raise OSError(err, f"io_getevents failed: {os.strerror(err)}")
        return [(self._events[i].data, self._events[i].res) for i in range(ret)]

    def close(self) -> None:
        if self._ctx.value:
            _libc.syscall(_SYS_io_destroy, self._ctx)
            self._ctx = ctypes.c_ulong(0)


def probe() -> tuple[bool, str]:
    """Can this kernel create an AIO context?"""
    ctx = ctypes.c_ulong(0)
    ret = _libc.syscall(_SYS_io_setup, ctypes.c_uint(1), ctypes.byref(ctx))
    if ret < 0:
        return False, _errno_str()
    _libc.syscall(_SYS_io_destroy, ctx)
    return True, ""

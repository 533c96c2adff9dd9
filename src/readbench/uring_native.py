"""Submission/completion-ring backend (io_uring) via raw syscalls.

A minimal read-only ring: setup, mmap of the SQ/CQ rings and SQE array,
submission through io_uring_enter, and optional registered files,
registered buffers, and the kernel-side submission poll thread.

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
import time

from .errors import EngineUnsupported, IoError

_SYS_setup = 425
_SYS_enter = 426
_SYS_register = 427

_OFF_SQ_RING = 0
_OFF_CQ_RING = 0x8000000
_OFF_SQES = 0x10000000

_SETUP_SQPOLL = 1 << 1
_FEAT_SINGLE_MMAP = 1 << 0
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


class _Sqe(ctypes.Structure):
    _fields_ = [("opcode", ctypes.c_uint8), ("flags", ctypes.c_uint8),
                ("ioprio", ctypes.c_uint16), ("fd", ctypes.c_int32),
                ("off", ctypes.c_uint64), ("addr", ctypes.c_uint64),
                ("len", ctypes.c_uint32), ("rw_flags", ctypes.c_uint32),
                ("user_data", ctypes.c_uint64), ("buf_index", ctypes.c_uint16),
                ("personality", ctypes.c_uint16), ("splice_fd_in", ctypes.c_int32),
                ("pad", ctypes.c_uint64 * 2)]


class _Cqe(ctypes.Structure):
    _fields_ = [("user_data", ctypes.c_uint64), ("res", ctypes.c_int32),
                ("flags", ctypes.c_uint32)]


class _Timespec(ctypes.Structure):
    _fields_ = [("tv_sec", ctypes.c_int64), ("tv_nsec", ctypes.c_int64)]


class _GeteventsArg(ctypes.Structure):
    _fields_ = [("sigmask", ctypes.c_uint64), ("sigmask_sz", ctypes.c_uint32),
                ("pad", ctypes.c_uint32), ("ts", ctypes.c_uint64)]


class _Iovec(ctypes.Structure):
    _fields_ = [("iov_base", ctypes.c_void_p), ("iov_len", ctypes.c_size_t)]


def _errno_str() -> str:
    return os.strerror(ctypes.get_errno())


class UringQueue:
    """One ring of fixed depth reading one file descriptor."""

    def __init__(self, fd: int, depth: int, fixed_files: bool = False,
                 fixed_buffers: bool = False, kernel_poll: bool = False,
                 buffers: list[memoryview] | None = None):
        if platform.machine() != "x86_64":
            raise EngineUnsupported("completion ring", "ring access assumes "
                                    f"x86 store ordering, not {platform.machine()}")
        self.fd = fd
        self.depth = depth
        self.fixed_files = fixed_files
        self.fixed_buffers = fixed_buffers
        self.kernel_poll = kernel_poll
        self._buffers = buffers or []

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
            if not params.features & _FEAT_EXT_ARG:
                raise EngineUnsupported("timed completion wait",
                                        "kernel lacks IORING_FEAT_EXT_ARG")
            self._map_rings(params)
            if fixed_files or kernel_poll:
                # SQPOLL requires registered files on older kernels; register
                # whenever either feature is on.
                arr = (ctypes.c_int32 * 1)(fd)
                self._register(_REGISTER_FILES, arr, 1, "fixed files")
                self.fixed_files = True
            if fixed_buffers:
                if not self._buffers:
                    raise ValueError("fixed_buffers requires buffers")
                iovs = (_Iovec * len(self._buffers))()
                for i, b in enumerate(self._buffers):
                    iovs[i].iov_base = ctypes.addressof(
                        ctypes.c_char.from_buffer(b))
                    iovs[i].iov_len = len(b)
                self._register(_REGISTER_BUFFERS, iovs, len(self._buffers),
                               "fixed buffers")
        except Exception:
            self.close()
            raise

    def _register(self, opcode: int, arg, nr: int, feature: str) -> None:
        ret = _libc.syscall(_SYS_register, ctypes.c_uint(self.ring_fd),
                            ctypes.c_uint(opcode), arg, ctypes.c_uint(nr))
        if ret < 0:
            raise EngineUnsupported(feature, _errno_str())

    def _map_rings(self, p: _Params) -> None:
        sq_size = p.sq_off.array + p.sq_entries * 4
        cq_size = p.cq_off.cqes + p.cq_entries * ctypes.sizeof(_Cqe)
        single = bool(p.features & _FEAT_SINGLE_MMAP)
        if single:
            size = max(sq_size, cq_size)
            sq_mm = mmap.mmap(self.ring_fd, size, offset=_OFF_SQ_RING)
            cq_mm = sq_mm
            self._mmaps.append(sq_mm)
        else:
            sq_mm = mmap.mmap(self.ring_fd, sq_size, offset=_OFF_SQ_RING)
            cq_mm = mmap.mmap(self.ring_fd, cq_size, offset=_OFF_CQ_RING)
            self._mmaps.extend([sq_mm, cq_mm])
        sqes_mm = mmap.mmap(self.ring_fd, p.sq_entries * ctypes.sizeof(_Sqe),
                            offset=_OFF_SQES)
        self._mmaps.append(sqes_mm)

        def u32(mm, off):
            return ctypes.c_uint32.from_buffer(mm, off)

        self._sq_head = u32(sq_mm, p.sq_off.head)
        self._sq_tail = u32(sq_mm, p.sq_off.tail)
        self._sq_mask = u32(sq_mm, p.sq_off.ring_mask).value
        self._sq_flags = u32(sq_mm, p.sq_off.flags)
        self._sq_array = (ctypes.c_uint32 * p.sq_entries).from_buffer(
            sq_mm, p.sq_off.array)
        self._cq_head = u32(cq_mm, p.cq_off.head)
        self._cq_tail = u32(cq_mm, p.cq_off.tail)
        self._cq_mask = u32(cq_mm, p.cq_off.ring_mask).value
        self._cqes = (_Cqe * p.cq_entries).from_buffer(cq_mm, p.cq_off.cqes)
        self._sqes = (_Sqe * p.sq_entries).from_buffer(sqes_mm, 0)

    def submit_reads(self, entries: list[tuple[int, int, memoryview]]) -> None:
        """Post (user_data, offset, buffer) reads and kick the kernel.

        With fixed buffers, user_data doubles as the registered-buffer index
        and each slot must read into its own registered buffer.
        """
        tail = self._sq_tail.value
        for data, offset, buf in entries:
            idx = tail & self._sq_mask
            sqe = self._sqes[idx]
            ctypes.memset(ctypes.byref(sqe), 0, ctypes.sizeof(sqe))
            sqe.fd = 0 if self.fixed_files else self.fd
            if self.fixed_files:
                sqe.flags |= _SQE_FIXED_FILE
            sqe.off = offset
            sqe.len = len(buf)
            sqe.user_data = data
            if self.fixed_buffers:
                sqe.opcode = _OP_READ_FIXED
                sqe.buf_index = data % len(self._buffers)
                sqe.addr = ctypes.addressof(
                    ctypes.c_char.from_buffer(self._buffers[sqe.buf_index]))
            else:
                sqe.opcode = _OP_READ
                sqe.addr = ctypes.addressof(ctypes.c_char.from_buffer(buf))
            self._sq_array[idx] = idx
            tail += 1
        self._sq_tail.value = tail
        if self.kernel_poll:
            if self._sq_flags.value & _SQ_NEED_WAKEUP:
                self._enter(0, 0, _ENTER_SQ_WAKEUP)
        else:
            submitted = self._enter(len(entries), 0, 0)
            if submitted != len(entries):
                raise IoError(f"io_uring_enter submitted {submitted} of "
                              f"{len(entries)} reads")

    def _enter(self, to_submit: int, min_complete: int, flags: int,
               timeout_s: float | None = None) -> int:
        """io_uring_enter, retried on EINTR; with timeout_s, a wait that
        times out returns 0."""
        arg, argsz = None, 0
        if timeout_s is not None:
            sec = int(timeout_s)
            ts = _Timespec(sec, int((timeout_s - sec) * 1e9))
            ext = _GeteventsArg(ts=ctypes.addressof(ts))
            arg, argsz = ctypes.byref(ext), ctypes.sizeof(ext)
            flags |= _ENTER_EXT_ARG
        while True:
            ret = _libc.syscall(_SYS_enter, ctypes.c_uint(self.ring_fd),
                                ctypes.c_uint(to_submit),
                                ctypes.c_uint(min_complete),
                                ctypes.c_uint(flags), arg,
                                ctypes.c_size_t(argsz))
            if ret >= 0:
                return ret
            err = ctypes.get_errno()
            if err == errno.ETIME and timeout_s is not None:
                return 0
            if err != errno.EINTR:
                raise OSError(err, f"io_uring_enter failed: {os.strerror(err)}")

    def _reap(self) -> list[tuple[int, int]]:
        out = []
        head = self._cq_head.value
        tail = self._cq_tail.value
        while head != tail:
            cqe = self._cqes[head & self._cq_mask]
            out.append((cqe.user_data, cqe.res))
            head += 1
        self._cq_head.value = head
        return out

    def wait(self, min_nr: int, timeout_s: float | None = None) -> list[tuple[int, int]]:
        """At least min_nr completions, fewer if timeout_s runs out first;
        returns (user_data, res) pairs."""
        done = self._reap()
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while len(done) < min_nr:
            left = None
            if deadline is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
            self._enter(0, min_nr - len(done), _ENTER_GETEVENTS, left)
            done.extend(self._reap())
        return done

    def close(self) -> None:
        # drop ctypes views before unmapping (mmap refuses while exported)
        for attr in ("_sq_head", "_sq_tail", "_sq_flags", "_sq_array",
                     "_cq_head", "_cq_tail", "_cqes", "_sqes"):
            if hasattr(self, attr):
                delattr(self, attr)
        seen = set()
        for mm in self._mmaps:
            if id(mm) not in seen:
                seen.add(id(mm))
                try:
                    mm.close()
                except BufferError:
                    pass
        self._mmaps = []
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
        bufs = [memoryview(mmap.mmap(-1, 4096))] if fixed_buffers else None
        ring = UringQueue(fd, 1, kernel_poll=kernel_poll,
                          fixed_buffers=fixed_buffers, buffers=bufs)
        ring.close()
        return True, ""
    except (EngineUnsupported, OSError) as exc:
        return False, str(exc)
    finally:
        os.close(fd)

"""Read targets: real files (buffered or direct) and simulated devices.

Real-file content is the offset-derived fill pattern from
:mod:`readbench.fill`, read here by positional block reads.  A simulated
target holds only a device model: the engines replay it in virtual time
and never read it through :func:`read_block`, which refuses a handle
without an open file.  A polled run takes its read flags, once, from
:func:`polled_flags`.  The engines refuse a closed handle or a given
offset list with :func:`check_offsets` before any loop reads, and their
compiled loop names a failed read with :func:`read_error`, as
:func:`read_block` does.
"""

from __future__ import annotations

import errno
import mmap
import os
import time
from dataclasses import dataclass

import numpy as np

from . import fill
from .devicesim import DeviceModel
from .errors import AlignmentError, IoError, PrepareError, VerifyError
from .rng import MASK64

ALIGNMENT = 4096
RWF_HIGHPRI = 0x1  # preadv2 high-priority (polled-completion) flag
# bytes per write.  The write size also shapes how the page cache holds the
# file: on ext4 under Linux 6.18, a file written 128 KiB at a time served
# cached 4 KiB reads ~5% slower than one written 1 MiB at a time
_PREPARE_CHUNK = 1 << 20


@dataclass
class TargetHandle:
    """An open read target.  Real files carry an fd; simulated targets carry
    a device model."""

    capacity: int
    fill_seed: int
    path: str | None = None
    fd: int | None = None
    direct: bool = False
    model: DeviceModel | None = None

    @property
    def is_simulated(self) -> bool:
        return self.model is not None

    def describe(self) -> dict:
        if self.is_simulated:
            return {"kind": "simulated", "model": self.model.kind,
                    "capacity": self.capacity, "fill_seed": self.fill_seed}
        return {"kind": "file", "path": self.path, "direct": self.direct,
                "capacity": self.capacity, "fill_seed": self.fill_seed}

    def close(self) -> None:
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None

    def __enter__(self) -> "TargetHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def alloc_aligned(nbytes: int) -> memoryview:
    """Page-aligned writable buffer (required by direct-mode reads)."""
    return memoryview(mmap.mmap(-1, nbytes))


def prepare_target(path: str, size: int, seed: int) -> TargetHandle:
    """Create and fill a test file; returns a buffered handle on it."""
    if size <= 0 or size % ALIGNMENT:
        raise PrepareError(f"size must be a positive multiple of {ALIGNMENT}")
    seed &= MASK64
    buf = np.empty((1, _PREPARE_CHUNK // fill.WORD), dtype="<u8")
    try:
        fd = os.open(path, os.O_CREAT | os.O_TRUNC | os.O_WRONLY, 0o644)
        try:
            for off in range(0, size, _PREPARE_CHUNK):
                n = min(_PREPARE_CHUNK, size - off)
                words = fill.pattern_rows(seed, (off,), n,
                                          buf[:, :n // fill.WORD])
                if os.write(fd, words) != n:
                    raise PrepareError(f"short write to {path} at {off}")
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as exc:
        raise PrepareError(f"cannot prepare {path}: {exc}") from exc
    return open_target(path, seed, direct=False)


def open_target(path: str, seed: int, direct: bool = True) -> TargetHandle:
    """Open an existing file (or block device) for benchmarking."""
    flags = os.O_RDONLY
    if direct:
        flags |= os.O_DIRECT
    try:
        fd = os.open(path, flags)
        size = os.lseek(fd, 0, os.SEEK_END)
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    return TargetHandle(capacity=size, fill_seed=seed & MASK64, path=path,
                        fd=fd, direct=direct)


def simulated_target(model: DeviceModel, capacity: int, seed: int = 0) -> TargetHandle:
    if capacity <= 0 or capacity % ALIGNMENT:
        raise PrepareError(f"capacity must be a positive multiple of {ALIGNMENT}")
    return TargetHandle(capacity=capacity, fill_seed=seed & MASK64, model=model)


def _require_file(handle: TargetHandle) -> None:
    if handle.fd is None:
        raise IoError("target has no open file; simulated targets are read "
                      "only through the engines")


def _check_bounds(handle: TargetHandle, offset: int, length: int) -> None:
    _require_file(handle)
    if offset < 0 or offset + length > handle.capacity:
        raise IoError(f"read [{offset}, {offset + length}) beyond capacity "
                      f"{handle.capacity}")
    if handle.direct:
        if offset % ALIGNMENT or length % ALIGNMENT:
            raise AlignmentError(
                f"direct mode requires {ALIGNMENT}-aligned offset and length, "
                f"got offset={offset} length={length}")


def read_block(handle: TargetHandle, offset: int, buffer, flags: int = 0) -> int:
    """Fill the buffer from the target with one positional read, passing
    ``flags`` to preadv2; returns observed latency in us, rounded to the
    nearest (halves up)."""
    length = len(buffer)
    _check_bounds(handle, offset, length)
    t0 = time.perf_counter_ns()
    n = os.preadv(handle.fd, [buffer], offset, flags)
    t1 = time.perf_counter_ns()
    if n != length:
        raise read_error(offset, n, length)
    return (t1 - t0 + 500) // 1000


def check_offsets(handle: TargetHandle, offsets: np.ndarray,
                  length: int) -> None:
    """:func:`_check_bounds` over an int64 array of offsets in one
    vectorised test; raises the error of the first it refuses, or, with no
    offsets too, of a handle without an open file."""
    _require_file(handle)
    bad = (offsets < 0) | (offsets > handle.capacity - length)
    if handle.direct:
        bad |= (offsets | length) % ALIGNMENT != 0
    if bad.any():
        _check_bounds(handle, int(offsets[bad.argmax()]), length)


def read_error(offset: int, result: int, length: int) -> OSError | IoError:
    """The error of a read of length bytes at offset that returned result:
    the bytes it read, or minus an errno, as os.preadv raises it."""
    if result < 0:
        return OSError(-result, os.strerror(-result))
    return IoError(f"short read at {offset}: {result} of {length} bytes")


def polled_flags(handle: TargetHandle, buffer) -> int:
    """The read flags of a polled run: RWF_HIGHPRI if one untimed read of
    block 0 takes it, else 0, as on a buffered handle, whose completions the
    kernel never polls, or where the kernel or filesystem refuses the flag
    with EOPNOTSUPP.  Any other error raises."""
    _check_bounds(handle, 0, len(buffer))
    if handle.direct:
        try:
            os.preadv(handle.fd, [buffer], 0, RWF_HIGHPRI)
            return RWF_HIGHPRI
        except OSError as exc:
            if exc.errno != errno.EOPNOTSUPP:
                raise
    return 0


def verify_file(handle: TargetHandle, block: int = 1 << 20) -> None:
    """Sequentially verify the whole target against its fill pattern."""
    _require_file(handle)
    buf = alloc_aligned(block)
    scratch = fill.new_scratch()
    for offset in range(0, handle.capacity, block):
        n = min(block, handle.capacity - offset)
        view = buf[:n]
        got = os.preadv(handle.fd, [view], offset)
        if got != n:
            raise IoError(f"short read at {offset}: {got} of {n} bytes")
        whole = n - n % fill.WORD
        if whole % fill.PAGE or offset % fill.PAGE:
            fill.check_block(view[:whole], offset, handle.fill_seed)
        elif whole:
            fill.check_blocks(np.frombuffer(view[:whole], dtype="<u8")[None],
                              (offset,), handle.fill_seed, scratch)
        if whole < n:  # the last 1-7 bytes, part of one word
            want = fill.pattern_bytes(handle.fill_seed, offset + whole, fill.WORD)
            for i, b in enumerate(view[whole:]):
                if b != want[i]:
                    raise VerifyError(offset + whole + i)

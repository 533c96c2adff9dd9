"""Offset-derived file fill pattern.

The 64-bit word at byte offset ``o`` (``o`` a multiple of 8) is
``mix64(seed XOR o)``, serialized little-endian.  Content at any offset is
therefore recomputable from (seed, offset) alone and never needs a golden
copy on disk.
"""

from __future__ import annotations

import numpy as np

from .errors import VerifyError

WORD = 8

#: check_blocks compares at most this many bytes per numpy pass (longer
#: blocks in chunk-sized pieces), which bounds its temporaries whatever the
#: batch or block size
CHECK_CHUNK_BYTES = 1 << 17


def _mix64_array(x: np.ndarray) -> np.ndarray:
    # vectorized splitmix64 finalizer; uint64 arithmetic wraps mod 2^64
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def pattern_words(seed: int, offset: int, nbytes: int) -> np.ndarray:
    """Expected little-endian uint64 words for [offset, offset+nbytes)."""
    if offset % WORD or nbytes % WORD:
        raise ValueError("offset and length must be multiples of 8")
    offs = np.arange(offset, offset + nbytes, WORD, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64_array(offs ^ np.uint64(seed))


def pattern_bytes(seed: int, offset: int, nbytes: int) -> bytes:
    """Expected raw content for [offset, offset+nbytes)."""
    return pattern_words(seed, offset, nbytes).astype("<u8").tobytes()


def check_blocks(rows, offsets, seed: int) -> None:
    """Verify a batch of blocks in one vectorised compare.

    ``rows`` is an (n, words) uint64 array holding n blocks of equal length,
    ``offsets`` the n target byte offsets they were read from.  Raises
    VerifyError naming the first bad word's byte offset, in row order.
    """
    offs = np.asarray(offsets, dtype=np.uint64)
    words = rows.shape[1]
    sub = CHECK_CHUNK_BYTES // WORD
    if words > sub and words % sub == 0:
        # split long rows into chunk-sized ones; row order stays offset order
        offs = (offs[:, None] + np.arange(0, words * WORD, sub * WORD,
                                          dtype=np.uint64)).ravel()
        rows, words = rows.reshape(-1, sub), sub
    ramp = np.arange(0, words * WORD, WORD, dtype=np.uint64)
    step = max(1, CHECK_CHUNK_BYTES // max(words * WORD, 1))
    seed = np.uint64(seed)
    for i in range(0, len(offs), step):
        expected = offs[i:i + step, None] + ramp
        expected ^= seed
        bad = rows[i:i + step] != _mix64_array(expected)
        if bad.any():
            row, word = divmod(int(bad.argmax()), words)
            raise VerifyError(int(offs[i + row]) + word * WORD)


def check_block(buffer, offset: int, seed: int) -> None:
    """Raise VerifyError naming the first bad offset on any mismatch."""
    if offset % WORD:
        raise ValueError("offset must be a multiple of 8")
    check_blocks(np.frombuffer(buffer, dtype="<u8")[None, :], (offset,), seed)


def first_mismatch(buffer, offset: int, seed: int) -> int | None:
    """Byte offset (within the target) of the first non-matching word,
    or None if the buffer matches the pattern exactly."""
    try:
        check_block(buffer, offset, seed)
    except VerifyError as exc:
        return exc.offset
    return None


def verify_block(buffer, offset: int, seed: int) -> bool:
    """True iff every 8-byte word in the buffer matches the fill pattern."""
    return first_mismatch(buffer, offset, seed) is None

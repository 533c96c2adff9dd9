"""Offset-derived file fill pattern, its verification and a run digest.

The 64-bit word at byte offset ``o`` (``o`` a multiple of 8) is
``mix64(seed XOR o)``, serialized little-endian.  Content at any offset is
therefore recomputable from (seed, offset) alone and never needs a golden
copy on disk.

Generation and verification run one in-place kernel over a caller-owned
scratch of two ``CHECK_CHUNK_BYTES`` uint64 rows (:func:`new_scratch`), so
checking a batch allocates no block-sized temporaries.  A block that passes
:func:`check_blocks` equals the pattern at its offset, so
:func:`digest_offsets` hashes only the seed, block length and offsets of
verified blocks, into ``LANES`` uint64 lanes that add mod 2^64: the digest
of a set of blocks is independent of their order and of how they were
batched.  It is not a cryptographic hash.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import VerifyError
from .rng import GOLDEN, mix64_array, mix64_into

WORD = 8

#: check_blocks and the pattern kernel work on at most this many
#: bytes per numpy pass (longer blocks in chunk-sized pieces), which bounds
#: the scratch whatever the batch or block size
CHECK_CHUNK_BYTES = 1 << 17
_CHUNK_WORDS = CHECK_CHUNK_BYTES // WORD

#: uint64 lanes of a digest; its hex form is LANES * 16 characters
LANES = 4

_U = np.uint64

#: byte offset of each word of a chunk from the chunk's start
_RAMP = np.arange(0, CHECK_CHUNK_BYTES, WORD, dtype=np.uint64)
_RAMP.flags.writeable = False


def new_scratch() -> np.ndarray:
    """A (2, CHECK_CHUNK_BYTES // 8) uint64 scratch for one thread's use."""
    return np.empty((2, _CHUNK_WORDS), dtype="<u8")


def _pattern_into(out: np.ndarray, offsets, seed: int,
                  tmp: np.ndarray) -> None:
    """Write the pattern into ``out``, a (k, words) uint64 array of at most
    CHECK_CHUNK_BYTES in all: row r holds the words from byte offset
    ``offsets[r]`` (a (k, 1) array, or one offset for every row).  ``tmp``
    is a scratch of out's shape."""
    k, words = out.shape
    # out[r, j] = offsets[r] + 8 j: row r gets offsets[r] - 8 r words, then
    # the flat ramp 8 (r words + j) is added; a broadcast copy and a
    # contiguous add run faster in numpy than one broadcast add
    np.copyto(out, offsets - _RAMP[:k * words:words, None])
    out += _RAMP[:k * words].reshape(k, words)
    out ^= _U(seed)
    mix64_into(out, tmp)


def _passes(rows: np.ndarray):
    """Cut a batch of blocks into passes of at most CHECK_CHUNK_BYTES.

    Yields (first row, first word, (k, words) view); a long row is cut into
    chunk-sized pieces, one per pass, so passes keep row order.
    """
    n, words = rows.shape
    if words <= _CHUNK_WORDS:
        step = _CHUNK_WORDS // max(words, 1)
        for r in range(0, n, step):
            yield r, 0, rows[r:r + step]
    else:
        for r in range(n):
            for lo in range(0, words, _CHUNK_WORDS):
                yield r, lo, rows[r:r + 1, lo:lo + _CHUNK_WORDS]


def _views(scratch: np.ndarray, shape) -> tuple[np.ndarray, np.ndarray]:
    """The two scratch rows, each cut to ``shape``."""
    size = shape[0] * shape[1]
    return scratch[0, :size].reshape(shape), scratch[1, :size].reshape(shape)


def pattern_rows(seed: int, offsets, nbytes: int,
                 scratch: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Expected uint64 words of the nbytes-long blocks at ``offsets``, one
    row per block, written into ``out`` (a new array when omitted) and
    returned; ``scratch`` (one from :func:`new_scratch`, a fresh one when
    omitted) is used as temporary."""
    if nbytes % WORD or any(o % WORD for o in offsets):
        raise ValueError("offset and length must be multiples of 8")
    if scratch is None:
        scratch = new_scratch()
    if out is None:
        out = np.empty((len(offsets), nbytes // WORD), dtype="<u8")
    offs = np.asarray(offsets, dtype=np.uint64)[:, None]
    for r, lo, part in _passes(out):
        first = offs[r:r + len(part)] if not lo else offs[r, 0] + _U(lo * WORD)
        _pattern_into(part, first, seed, _views(scratch, part.shape)[1])
    return out


def pattern_bytes(seed: int, offset: int, nbytes: int) -> bytes:
    """Expected raw content for [offset, offset+nbytes)."""
    return pattern_rows(seed, (offset,), nbytes)[0].tobytes()


def check_blocks(rows, offsets, seed: int,
                 scratch: np.ndarray | None = None) -> None:
    """Verify a batch of blocks, at most CHECK_CHUNK_BYTES per numpy pass.

    ``rows`` is an (n, words) uint64 array holding n blocks of equal length,
    ``offsets`` the n target byte offsets they were read from, ``scratch``
    one from :func:`new_scratch` (a fresh one when omitted).  Raises
    VerifyError naming the first bad word's byte offset, in row order.
    """
    if scratch is None:
        scratch = new_scratch()
    offs = np.asarray(offsets, dtype=np.uint64)[:, None]
    for r, lo, part in _passes(rows):
        first = offs[r:r + len(part)] if not lo else offs[r, 0] + _U(lo * WORD)
        x, tmp = _views(scratch, part.shape)
        _pattern_into(x, first, seed, tmp)
        x ^= part
        if x.max():  # faster than any() on uint64
            row, word = divmod(int(np.flatnonzero(x)[0]), part.shape[1])
            raise VerifyError(int(offs[r + row, 0]) + (lo + word) * WORD)


@functools.lru_cache(maxsize=64)
def _lane_keys(nbytes: int) -> np.ndarray:
    """Read-only (LANES, 1) column: ``mix64(nbytes + j * GOLDEN)`` in row j."""
    keys = mix64_array(np.arange(LANES, dtype=np.uint64)[:, None]
                       * _U(GOLDEN) + _U(nbytes))
    keys.flags.writeable = False
    return keys


def digest_offsets(offsets, nbytes: int, seed: int,
                   lanes: np.ndarray) -> None:
    """Add the digest of verified nbytes-long blocks at ``offsets`` to
    ``lanes`` (LANES uint64 values, mod 2^64).

    The block at offset ``o`` adds ``mix64((o ^ seed) + mix64(nbytes +
    j * GOLDEN))`` to lane j.  Real runs add only blocks that passed
    :func:`check_blocks`; a simulated run, which reads no data, adds the
    offsets it submits.
    """
    x = (np.asarray(offsets, dtype=np.uint64) ^ _U(seed)) + _lane_keys(nbytes)
    mix64_into(x, np.empty_like(x))
    lanes += x.sum(axis=1)


def hexdigest(lanes: np.ndarray) -> str:
    """The digest lanes as LANES * 16 hex characters."""
    return "".join(format(int(v), "016x") for v in lanes)


def check_block(buffer, offset: int, seed: int) -> None:
    """Raise VerifyError naming the first bad offset on any mismatch."""
    if offset % WORD:
        raise ValueError("offset must be a multiple of 8")
    check_blocks(np.frombuffer(buffer, dtype="<u8")[None, :], (offset,), seed)

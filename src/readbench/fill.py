"""Offset-derived file fill pattern, its verification and a run digest.

The 64-bit word at byte offset ``o`` (a multiple of 8) is ``mix64(seed XOR
(o & ~4095)) + ((o & 4095) >> 3) * GOLDEN`` mod 2^64, little-endian: one
hash per 4 KiB page plus a ramp.  Content at any offset is recomputable from
(seed, offset) alone, and a page checks in three numpy passes against its
hash, which a caller may draw with the offset.  A file of earlier versions
(``mix64(seed XOR o)`` in every word) fails the check with a VerifyError
that says to prepare it again.

Checks write into a caller-owned scratch (:func:`new_scratch`), so a batch
allocates no block-sized temporaries.  A block that passes
:func:`check_blocks` equals the pattern at its offset, so
:func:`digest_offsets` hashes only the seed, block length and offsets of
verified blocks, into ``LANES`` uint64 lanes that add mod 2^64: the digest
of a set of blocks is independent of their order, of how they were batched
and of the fill pattern.  It is not a cryptographic hash.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import VerifyError
from .rng import GOLDEN, mix64, mix64_array, mix64_into

WORD = 8

PAGE = 4096  # bytes per hash of the pattern
_PAGE_WORDS = PAGE // WORD

#: check_blocks and the pattern kernel work on at most this many
#: bytes per numpy pass (longer blocks in chunk-sized pieces), which bounds
#: the scratch whatever the batch or block size
CHECK_CHUNK_BYTES = 1 << 17
_CHUNK_WORDS = CHECK_CHUNK_BYTES // WORD

#: uint64 lanes of a digest; its hex form is LANES * 16 characters
LANES = 4

_U = np.uint64

#: word j of a page is the page's base plus word j of this ramp
_RAMP = np.arange(_PAGE_WORDS, dtype=np.uint64) * _U(GOLDEN)
_RAMP.flags.writeable = False


def new_scratch() -> np.ndarray:
    """A CHECK_CHUNK_BYTES uint64 scratch for one thread's use."""
    return np.empty(_CHUNK_WORDS, dtype="<u8")


def _bases(first: np.ndarray, npages: int, seed: int) -> np.ndarray:
    """(k, npages, 1): the hashes of npages pages from each page offset of
    ``first`` ((k, 1) uint64)."""
    x = first + np.arange(0, npages * PAGE, PAGE, dtype=np.uint64)
    x ^= _U(seed)
    mix64_into(x, np.empty_like(x))
    return x[:, :, None]


def _passes(rows: np.ndarray, offs: np.ndarray):
    """Cut a batch of blocks into passes of at most CHECK_CHUNK_BYTES.

    Yields a (k, words) view and the (k, 1) uint64 offsets of its rows; a
    long row is cut into chunk-sized pieces, one per pass, so passes keep
    row order.
    """
    n, words = rows.shape
    if words <= _CHUNK_WORDS:
        step = _CHUNK_WORDS // max(words, 1)
        for r in range(0, n, step):
            yield rows[r:r + step], offs[r:r + step]
    else:
        for r in range(n):
            for lo in range(0, words, _CHUNK_WORDS):
                yield (rows[r:r + 1, lo:lo + _CHUNK_WORDS],
                       offs[r:r + 1] + _U(lo * WORD))


def pattern_rows(seed: int, offsets, nbytes: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Expected uint64 words of the nbytes-long blocks at ``offsets``, one
    row per block, written into ``out`` (a new array when omitted) and
    returned."""
    if nbytes % WORD or any(o % WORD for o in offsets):
        raise ValueError("offset and length must be multiples of 8")
    if out is None:
        out = np.empty((len(offsets), nbytes // WORD), dtype="<u8")
    words = nbytes // WORD
    for r, o in enumerate(offsets):
        # CHECK_CHUNK_BYTES at a time, padded out to whole pages
        for lo in range(0, words, _CHUNK_WORDS):
            n, start = min(_CHUNK_WORDS, words - lo), int(o) + lo * WORD
            skip = start % PAGE // WORD
            page = np.array([[start - skip * WORD]], np.uint64)
            padded = _bases(page, -(-(skip + n) // _PAGE_WORDS), seed) + _RAMP
            out[r, lo:lo + n] = padded.reshape(-1)[skip:skip + n]
    return out


def pattern_bytes(seed: int, offset: int, nbytes: int) -> bytes:
    """Expected raw content for [offset, offset+nbytes)."""
    return pattern_rows(seed, (offset,), nbytes)[0].tobytes()


def check_blocks(rows, offsets, seed: int, scratch: np.ndarray | None = None,
                 hashes: np.ndarray | None = None) -> None:
    """Verify a batch of blocks, at most CHECK_CHUNK_BYTES per numpy pass.

    ``rows`` is an (n, words) uint64 array holding n blocks of equal length,
    ``offsets`` the n target byte offsets they were read from, ``scratch``
    one from :func:`new_scratch` (a fresh one when omitted), ``hashes``
    (uint64, for page-aligned offsets) ``mix64(seed ^ offset)`` per row, with
    which one-page rows that fit the scratch take the data passes alone.
    Raises VerifyError naming the first bad word's byte offset, in row order,
    and whether it holds the old pattern; ValueError if only hashes differ.
    """
    if scratch is None:
        scratch = new_scratch()
    fast = (hashes is not None and rows.shape[1] == _PAGE_WORDS
            and rows.size <= len(scratch))
    if fast:
        x = scratch[:rows.size].reshape(rows.shape)
        np.subtract(rows, _RAMP, out=x)
        if (x.max(axis=1).tobytes() == hashes.tobytes()
                == x.min(axis=1).tobytes()):
            return
    offs = np.asarray(offsets, dtype=np.uint64)[:, None]
    pages = not (rows.shape[1] % _PAGE_WORDS
                 or int(np.bitwise_or.reduce(offs, axis=None)) % PAGE)
    for part, first in _passes(rows, offs):
        x = scratch[:part.size].reshape(part.shape)
        if pages:  # less the ramp, each word of a page is the page's base
            by_page = x.reshape(len(part), -1, _PAGE_WORDS)
            np.subtract(part.reshape(by_page.shape), _RAMP, out=by_page)
            base = _bases(first, by_page.shape[1], seed)
            if (by_page.max(axis=2).tobytes() == base.tobytes()
                    == by_page.min(axis=2).tobytes()):
                continue
            by_page ^= base
        else:
            pattern_rows(seed, first[:, 0].tolist(), part[0].nbytes, out=x)
            x ^= part
            if not x.max():  # faster than any() on uint64
                continue
        row, word = divmod(int(np.flatnonzero(x)[0]), part.shape[1])
        offset = int(first[row, 0]) + word * WORD
        if int(part[row, word]) == mix64(seed ^ offset):
            raise VerifyError(offset, f"data at byte offset {offset} has the "
                              "old fill pattern; prepare the file again")
        raise VerifyError(offset)
    if fast:  # the data are right, so the hashes were not theirs
        raise ValueError("page hashes do not match the offsets")


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

"""Offset-derived file fill pattern, its verification and a run digest.

The 64-bit word at byte offset ``o`` (a multiple of 8) is ``mix64(seed XOR
(o & ~4095)) + ((o & 4095) >> 3) * GOLDEN`` mod 2^64, little-endian: the
hash of its 4 KiB page (:func:`page_hashes`) plus a ramp, recomputable from
(seed, offset) alone.  A batch of whole pages at page-aligned offsets
checks in three numpy passes against their hashes (:func:`check_blocks`),
and one block of any shape against its pattern (:func:`check_block`); the
compiled loop of :mod:`readbench.hotloop` computes the same page hashes
and makes the same page check in C.  A file of earlier versions
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

#: check_blocks works on at most this many bytes per numpy pass (a longer
#: row in pieces), which bounds its scratch whatever the batch or block size
CHECK_CHUNK_BYTES = 1 << 17

#: uint64 lanes of a digest; its hex form is LANES * 16 characters
LANES = 4

_U = np.uint64

#: word j of a page is the page's hash plus word j of this ramp
RAMP = np.arange(_PAGE_WORDS, dtype=np.uint64) * _U(GOLDEN)
RAMP.flags.writeable = False


def new_scratch() -> np.ndarray:
    """A CHECK_CHUNK_BYTES scratch of uint64 pages for one thread's use."""
    return np.empty((CHECK_CHUNK_BYTES // PAGE, _PAGE_WORDS), dtype="<u8")


def page_hashes(offsets, nbytes: int, seed: int) -> np.ndarray:
    """``mix64(seed ^ (o + k * PAGE))`` for each k with k * PAGE < nbytes,
    at each offset o, as one flat uint64 array, row by row."""
    x = (np.asarray(offsets, dtype=np.uint64)[:, None]
         + np.arange(0, nbytes, PAGE, dtype=np.uint64)).reshape(-1)
    x ^= _U(seed)
    mix64_into(x, np.empty_like(x))
    return x


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
    for r, o in enumerate(offsets):  # from the start of o's page
        skip = int(o) % PAGE // WORD
        padded = page_hashes((int(o) - skip * WORD,), nbytes + skip * WORD,
                             seed)[:, None] + RAMP
        out[r] = padded.reshape(-1)[skip:skip + words]
    return out


def pattern_bytes(seed: int, offset: int, nbytes: int) -> bytes:
    """Expected raw content for [offset, offset+nbytes)."""
    return pattern_rows(seed, (offset,), nbytes)[0].tobytes()


def _mismatch(value: int, offset: int, seed: int) -> VerifyError:
    """The error for ``value``, not the pattern, in the word at offset."""
    if value == mix64(seed ^ offset):
        return VerifyError(offset, f"data at byte offset {offset} has the "
                           "old fill pattern; prepare the file again")
    return VerifyError(offset)


def check_blocks(rows, offsets, seed: int,
                 scratch: np.ndarray | None = None) -> None:
    """Verify a batch of whole-page blocks at page-aligned offsets, page by
    page against their :func:`page_hashes`, at most CHECK_CHUNK_BYTES per
    numpy pass.

    ``rows`` is an (n, words) uint64 array holding n blocks of equal length,
    ``offsets`` the n target byte offsets they were read from, ``scratch``
    one from :func:`new_scratch` (a fresh one when omitted).  Raises
    VerifyError naming the first bad word's byte offset, in row order, and
    whether it holds the old pattern; ValueError for a batch of any other
    shape, which :func:`check_block` checks a block at a time.
    """
    words = rows.shape[1]
    offs = np.asarray(offsets, dtype=np.uint64)
    if words % _PAGE_WORDS or int(np.bitwise_or.reduce(offs)) % PAGE:
        raise ValueError("check_blocks takes whole pages at page-aligned "
                         "offsets")
    if scratch is None:
        scratch = new_scratch()
    hashes = page_hashes(offs, words * WORD, seed)  # one per page
    per = words // _PAGE_WORDS
    if per != 1:  # one page per row
        rows = rows.reshape(-1, _PAGE_WORDS)
    n, step = len(rows), len(scratch)
    for lo in range(0, n, step):  # a batch that fits is not sliced
        part, want = ((rows, hashes) if n <= step else
                      (rows[lo:lo + step], hashes[lo:lo + step]))
        x = scratch[:len(part)]
        # less the ramp, each word of a page is the page's hash
        np.subtract(part, RAMP, out=x)
        if (x.max(axis=1).tobytes() == want.tobytes()
                == x.min(axis=1).tobytes()):
            continue
        bad = int(np.flatnonzero(x != want.reshape(-1, 1))[0])
        page, word = divmod(bad, _PAGE_WORDS)
        row, k = divmod(lo + page, per)
        raise _mismatch(int(part[page, word]),
                        int(offsets[row]) + k * PAGE + word * WORD, seed)


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
    """Compare one block, whole words at a word-aligned offset, with its
    pattern; raise VerifyError naming the first bad word's byte offset."""
    got = np.frombuffer(buffer, dtype="<u8")
    bad = np.flatnonzero(got != pattern_rows(seed, (offset,), got.nbytes)[0])
    if len(bad):
        word = int(bad[0])
        raise _mismatch(int(got[word]), offset + word * WORD, seed)

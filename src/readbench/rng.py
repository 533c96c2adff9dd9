"""Deterministic 64-bit RNG primitives.

Everything that needs randomness (fill pattern, offset streams, device
jitter) goes through these so that independent reimplementations agree
bit-exactly.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_TWO64 = float(1 << 64)

#: uniform_floats computes this many draws at a time
FLOAT_CHUNK = 4096

#: splitmix64 finalizer multipliers
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U = np.uint64
_M1_U, _M2_U, _S30, _S27, _S31 = _U(_M1), _U(_M2), _U(30), _U(27), _U(31)


def mix64(x: int) -> int:
    """splitmix64 finalizer: a fixed avalanche permutation of 64-bit ints."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def mix64_into(x: np.ndarray, tmp: np.ndarray) -> None:
    """Vectorized :func:`mix64` of x, in place; tmp is a scratch of x's
    shape.  uint64 arithmetic wraps mod 2^64."""
    np.right_shift(x, _S30, out=tmp)
    x ^= tmp
    x *= _M1_U
    np.right_shift(x, _S27, out=tmp)
    x ^= tmp
    x *= _M2_U
    np.right_shift(x, _S31, out=tmp)
    x ^= tmp


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` of a uint64 array, into a new array."""
    out = x.astype(np.uint64)
    mix64_into(out, np.empty_like(out))
    return out


class SplitMix64:
    """Minimal splitmix64 sequence generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)


def u64_chunks(seed: int, n: int) -> Iterator[np.ndarray]:
    """The ``SplitMix64(seed).next_u64()`` stream as uint64 arrays of n
    words: word k (from 1) is ``mix64(seed + k * GOLDEN)``."""
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    seed &= MASK64
    while True:
        yield mix64_array(steps + np.uint64(seed))
        seed = (seed + n * GOLDEN) & MASK64


def uniform_floats(seed: int) -> Iterator[float]:
    """Endless uniform floats ``SplitMix64(seed).next_u64() / 2**64``,
    computed FLOAT_CHUNK at a time."""
    return itertools.chain.from_iterable(
        (words / _TWO64).tolist() for words in u64_chunks(seed, FLOAT_CHUNK))


def worker_seed(seed: int, worker: int) -> int:
    """Derive an independent stream seed for one worker thread."""
    return mix64((seed + (worker + 1) * GOLDEN) & MASK64)

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

def mix64(x: int) -> int:
    """splitmix64 finalizer: a fixed avalanche permutation of 64-bit ints."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


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
    from .fill import _mix64_array  # fill imports this module

    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    seed &= MASK64
    while True:
        yield _mix64_array(steps + np.uint64(seed))
        seed = (seed + n * GOLDEN) & MASK64


def uniform_floats(seed: int) -> Iterator[float]:
    """Endless uniform floats ``SplitMix64(seed).next_u64() / 2**64``,
    computed FLOAT_CHUNK at a time in numpy."""
    return itertools.chain.from_iterable(
        (words / _TWO64).tolist() for words in u64_chunks(seed, FLOAT_CHUNK))


def worker_seed(seed: int, worker: int) -> int:
    """Derive an independent stream seed for one worker thread."""
    return mix64((seed + (worker + 1) * GOLDEN) & MASK64)

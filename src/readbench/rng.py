"""Deterministic 64-bit RNG primitives.

Everything that needs randomness (fill pattern, offset streams, device
jitter) goes through these so that independent reimplementations agree
bit-exactly.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_TWO64 = float(1 << 64)


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

    def next_float(self) -> float:
        """Uniform float in [0, 1): ``next_u64() / 2**64``, with the state
        step inlined because the device model draws one per request."""
        self.state = x = (self.state + GOLDEN) & MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        return (x ^ (x >> 31)) / _TWO64

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()


def worker_seed(seed: int, worker: int) -> int:
    """Derive an independent stream seed for one worker thread."""
    return mix64((seed + (worker + 1) * GOLDEN) & MASK64)

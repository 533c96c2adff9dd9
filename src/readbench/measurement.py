"""Latency sample aggregation, throughput math, and CPU accounting.

A run folds the integer-µs durations it logs into :class:`LatencyCounts`,
so its memory does not grow with its length; ``engines.duration_log`` keeps
an ordered int64 log, and :class:`LatencySample` adapts single samples.
``aggregate_latencies`` gives the same statistics from all three.

Percentiles are nearest-rank on the sorted integer-microsecond durations:
the k-th order statistic with k = ceil(q * count).  CPU accounting reads
the process CPU clock, which sums every thread of the process, the kernel's
io_uring submission-poll thread included: that thread is a task of the
process that set up the ring.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import ClockError, EmptySampleSet, InvalidInterval


@dataclass(frozen=True, slots=True)
class LatencySample:
    """One completed read: duration in integer microseconds, bytes moved."""

    duration_us: int
    nbytes: int

    def __post_init__(self):
        if self.duration_us < 0:
            raise ValueError("duration must be >= 0")
        if self.nbytes <= 0:
            raise ValueError("bytes must be > 0")


@dataclass(frozen=True)
class LatencyStats:
    """Aggregate over one run, all values in microseconds."""

    count: int
    min_us: int
    max_us: int
    mean_us: float
    p99_us: int
    p999_us: int


@dataclass(frozen=True)
class CpuUsage:
    """CPU seconds consumed over a wall interval; percent_of_core is derived
    and recomputable from the other fields."""

    process_cpu: float
    wall: float
    percent_of_core: float

    @classmethod
    def of(cls, process_cpu: float, wall: float) -> "CpuUsage":
        return cls(process_cpu, wall, 100.0 * process_cpu / wall)


#: the stored types of a field by its annotation; bool only where named
_STORED_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
                 "dict": dict}


def from_fields(cls, d: dict, optional: Iterable[str] = ()):
    """An instance of dataclass ``cls`` from the keys of ``d`` that name its
    fields.  Other keys are ignored (older records carry fields since
    dropped, such as a per-thread-name CPU share).  A missing field raises
    KeyError unless it is named in ``optional``, when it takes its default;
    a value not of its field's stored type raises TypeError."""
    kwargs = {}
    for f in fields(cls):
        if f.name in d:
            value = kwargs[f.name] = d[f.name]
            if (not isinstance(value, _STORED_TYPES.get(f.type, object))
                    or (type(value) is bool) != (f.type == "bool")):
                raise TypeError(f"field {f.name!r} is not {f.type}")
        elif f.name not in optional:
            raise KeyError(f"missing field {f.name!r}")
    return cls(**kwargs)


def nearest_rank(sorted_durations: Sequence[int], q: float) -> int:
    """q-quantile as the ceil(q*n)-th smallest element (1-based rank)."""
    n = len(sorted_durations)
    k = max(1, math.ceil(q * n))
    return int(sorted_durations[k - 1])


class LatencyCounts:
    """Exact counts of integer-µs durations: a dense table for 0..DENSE - 1,
    grown only to the largest duration seen, and a sparse one, duration to
    count, above it.  Its length is the number of durations counted."""

    DENSE = 1 << 16

    def __init__(self):
        self.dense = np.zeros(0, dtype=np.int64)
        self.sparse: Counter[int] = Counter()

    def __len__(self) -> int:
        return int(self.dense.sum()) + self.sparse.total()

    def add(self, chunk: array | np.ndarray) -> None:
        """Count each duration of an int64 chunk."""
        d = np.asarray(chunk, dtype=np.int64)  # int64: a view
        # as uint64 a negative duration is >= 2^63: one pass finds both
        if d.size and d.view(np.uint64).max() >= self.DENSE:
            if d.min() < 0:
                raise ValueError("duration must be >= 0")
            self.sparse.update(d[d >= self.DENSE].tolist())
            d = d[d < self.DENSE]
        self._add_dense(np.bincount(d))

    def merge(self, other: LatencyCounts) -> None:
        """Add another worker's counts to these."""
        self.sparse.update(other.sparse)
        self._add_dense(other.dense)

    def _add_dense(self, dense: np.ndarray) -> None:
        if len(dense) > len(self.dense):  # the longer table takes the sum
            self.dense, dense = dense.copy(), self.dense
        self.dense[:len(dense)] += dense


def aggregate_latencies(samples: LatencyCounts | array | np.ndarray
                        | Iterable[LatencySample]) -> LatencyStats:
    """Summarize samples into min/max/mean/p99/p99.9 by nearest rank.

    ``samples`` is a :class:`LatencyCounts`, an int64 duration log (µs,
    ``array('q')`` or ndarray) or an iterable of :class:`LatencySample`.
    Counts give their percentiles by cumulative count, and as mean their
    exact sum over their count: the log's float64 mean while the sum is
    below 2^53 µs.  A log already in ascending order is read where it lies;
    any other is copied and sorted, so the caller's log is never changed.
    """
    if isinstance(samples, LatencyCounts):
        low = np.flatnonzero(samples.dense)
        high = np.array(sorted(samples.sparse.items()), np.int64).reshape(-1, 2)
        values = np.concatenate((low, high[:, 0]))
        at_or_below = np.cumsum(np.concatenate((samples.dense[low], high[:, 1])))
        if not values.size:
            raise EmptySampleSet("no latency samples to aggregate")
        n = int(at_or_below[-1])
        p99, p999 = values[np.searchsorted(  # the ceil(q*n)-th smallest
            at_or_below, [max(1, math.ceil(q * n)) for q in (0.99, 0.999)])]
        total = int(low @ samples.dense[low]) + int(high.prod(axis=1).sum())
        return LatencyStats(n, int(values[0]), int(values[-1]), total / n,
                            int(p99), int(p999))
    if isinstance(samples, (array, np.ndarray)):
        durations = np.asarray(samples, dtype=np.int64)  # int64: a view
        if (durations[1:] < durations[:-1]).any():
            durations = np.sort(durations)
    else:
        durations = np.fromiter((s.duration_us for s in samples), dtype=np.int64)
        durations.sort()
    if durations.size == 0:
        raise EmptySampleSet("no latency samples to aggregate")
    if durations[0] < 0:
        raise ValueError("duration must be >= 0")
    return LatencyStats(
        count=int(durations.size),
        min_us=int(durations[0]),
        max_us=int(durations[-1]),
        mean_us=float(durations.mean()),
        p99_us=nearest_rank(durations, 0.99),
        p999_us=nearest_rank(durations, 0.999),
    )


def compute_throughput(total_bytes: int, elapsed_s: float) -> float:
    """Throughput in decimal megabytes (10^6 bytes) per second."""
    if elapsed_s <= 0:
        raise InvalidInterval(f"elapsed must be > 0, got {elapsed_s}")
    return total_bytes / elapsed_s / 1e6


def measure_cpu(before_s: float, after_s: float, wall: float) -> CpuUsage:
    """CPU usage between two :func:`snapshot_cpu` readings over a wall
    interval."""
    if wall <= 0:
        raise InvalidInterval(f"wall must be > 0, got {wall}")
    if after_s < before_s:
        raise ClockError("process CPU clock went backwards")
    return CpuUsage.of(after_s - before_s, wall)


def snapshot_cpu() -> float:
    """CPU seconds used so far by every thread of this process."""
    return time.process_time()

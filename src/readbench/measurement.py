"""Latency sample aggregation, throughput math, and CPU accounting.

Engines keep the durations of a run as an int64 log of integer microseconds
(an ``array('q')`` or an ndarray), one entry per completed read, so a long
run costs 8 bytes per sample and no Python object per request.
:class:`LatencySample` is the public adapter for callers that hold
individual samples; ``aggregate_latencies`` accepts either form.

Percentiles are nearest-rank on the sorted integer-microsecond durations:
the k-th order statistic with k = ceil(q * count).  CPU accounting covers
both the benchmark process and named kernel worker threads (submission-queue
poll threads) that do work on its behalf but are invisible in normal
process statistics.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ClockError, EmptySampleSet, InvalidInterval

#: Kernel thread-name prefixes that count as external CPU on our behalf.
POLL_THREAD_PREFIXES = ("iou-sqp", "io_uring-sq")


@dataclass(frozen=True)
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

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "min_us": self.min_us,
            "max_us": self.max_us,
            "mean_us": self.mean_us,
            "p99_us": self.p99_us,
            "p999_us": self.p999_us,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LatencyStats":
        return cls(d["count"], d["min_us"], d["max_us"], d["mean_us"],
                   d["p99_us"], d["p999_us"])


@dataclass(frozen=True)
class CpuUsage:
    """CPU seconds consumed over a wall interval.

    external_cpu covers named kernel worker threads outside the process;
    percent_of_core is derived and recomputable from the other fields.
    """

    process_cpu: float
    external_cpu: float
    wall: float
    percent_of_core: float

    @classmethod
    def of(cls, process_cpu: float, external_cpu: float, wall: float) -> "CpuUsage":
        return cls(process_cpu, external_cpu, wall,
                   100.0 * (process_cpu + external_cpu) / wall)

    def as_dict(self) -> dict:
        return {
            "process_cpu": self.process_cpu,
            "external_cpu": self.external_cpu,
            "wall": self.wall,
            "percent_of_core": self.percent_of_core,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CpuUsage":
        return cls(d["process_cpu"], d["external_cpu"], d["wall"],
                   d["percent_of_core"])


@dataclass(frozen=True)
class CpuSnapshot:
    """Point-in-time CPU counters: process seconds + matching external seconds."""

    process_s: float
    external_s: float


def nearest_rank(sorted_durations: Sequence[int], q: float) -> int:
    """q-quantile as the ceil(q*n)-th smallest element (1-based rank)."""
    n = len(sorted_durations)
    k = max(1, math.ceil(q * n))
    return int(sorted_durations[k - 1])


def aggregate_latencies(
        samples: array | np.ndarray | Iterable[LatencySample]) -> LatencyStats:
    """Summarize samples into min/max/mean/p99/p99.9 by nearest rank.

    ``samples`` is an int64 duration log (``array('q')`` or ndarray, in
    microseconds; it is copied, not sorted in place) or an iterable of
    :class:`LatencySample`.
    """
    if isinstance(samples, (array, np.ndarray)):
        durations = np.array(samples, dtype=np.int64)
    else:
        durations = np.fromiter((s.duration_us for s in samples), dtype=np.int64)
    if durations.size == 0:
        raise EmptySampleSet("no latency samples to aggregate")
    durations.sort()
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


def measure_cpu(before: CpuSnapshot, after: CpuSnapshot, wall: float) -> CpuUsage:
    """CPU usage between two snapshots over a wall interval."""
    if wall <= 0:
        raise InvalidInterval(f"wall must be > 0, got {wall}")
    dp = after.process_s - before.process_s
    de = after.external_s - before.external_s
    if dp < 0 or de < 0:
        raise ClockError("CPU-time counters went backwards")
    return CpuUsage.of(dp, de, wall)


class LinuxProcessTable:
    """Reads CPU times from /proc: the process itself plus kernel threads
    matched by name (utime+stime fields of each stat file)."""

    def __init__(self, proc: str = "/proc"):
        self.proc = proc
        self.tick = os.sysconf("SC_CLK_TCK")

    def _stat_cpu_seconds(self, stat_path: str) -> float | None:
        try:
            with open(stat_path, "rb") as f:
                data = f.read()
        except OSError:
            return None
        # comm may contain spaces; fields are positional after the last ')'
        rest = data[data.rfind(b")") + 2:].split()
        utime, stime = int(rest[11]), int(rest[12])
        return (utime + stime) / self.tick

    def process_cpu_seconds(self) -> float:
        cpu = self._stat_cpu_seconds(f"{self.proc}/self/stat")
        if cpu is None:
            raise ClockError("cannot read process CPU time")
        return cpu

    def external_cpu_seconds(self, name_matches: Callable[[str], bool]) -> float:
        total = 0.0
        try:
            pids = [p for p in os.listdir(self.proc) if p.isdigit()]
        except OSError:
            return 0.0
        for pid in pids:
            try:
                with open(f"{self.proc}/{pid}/comm") as f:
                    name = f.read().strip()
            except OSError:
                continue
            if not name_matches(name):
                continue
            cpu = self._stat_cpu_seconds(f"{self.proc}/{pid}/stat")
            if cpu is not None:
                total += cpu
        return total


def poll_thread_predicate(name: str) -> bool:
    return name.startswith(POLL_THREAD_PREFIXES)


def snapshot_cpu(table=None, name_matches: Callable[[str], bool] = poll_thread_predicate) -> CpuSnapshot:
    """Take a CPU snapshot from a process table (Linux /proc by default)."""
    if table is None:
        table = LinuxProcessTable()
    return CpuSnapshot(
        process_s=table.process_cpu_seconds(),
        external_s=table.external_cpu_seconds(name_matches),
    )

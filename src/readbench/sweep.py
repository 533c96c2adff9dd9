"""Experiment orchestration: parameter sweeps, whole-device scans, the
published best-configuration tables, and best-record selection.

Plans execute runs strictly sequentially; concurrent runs would contaminate
each other's device measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .engines import EngineConfig, RunRecord, WorkloadSpec, duration_log, run
from .errors import EngineUnsupported, NoSuchPreset, ReadBenchError
from .target import TargetHandle

AXES = ("block_size", "threads", "queue_size", "batch_size")

#: default sweep grids
BLOCK_GRID = [1 << s for s in range(12, 26)]  # 4 KiB .. 32 MiB doubling
THREAD_GRID = [1, 2, 4, 8, 16, 32, 64]
QUEUE_GRID = [1, 2, 4, 8, 16, 32, 64, 128, 256]


def batch_grid(queue_size: int) -> list[int]:
    return [1 << s for s in range(int(math.log2(queue_size)) + 1)]


@dataclass
class ExperimentPlan:
    name: str
    axis: str
    values: list
    base_workload: WorkloadSpec
    base_engine: EngineConfig
    repeat: int = 1

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}")
        if not self.values:
            raise ValueError("values must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")


@dataclass
class PlanError:
    """An errored run, recorded in place so the plan can continue."""

    axis_value: object
    repeat_index: int
    error: str


def _apply_axis(plan: ExperimentPlan, value) -> tuple[WorkloadSpec, EngineConfig]:
    wl, eng = plan.base_workload, plan.base_engine
    if plan.axis == "block_size":
        wl = replace(wl, block_size=value)
    elif plan.axis == "threads":
        wl = replace(wl, threads=value)
        if value > 1 and eng.kind == "sync":
            eng = replace(eng, kind="pool")
    elif plan.axis == "queue_size":
        eng = replace(eng, queue_size=value,
                      batch_size=min(eng.batch_size, value))
    else:
        eng = replace(eng, batch_size=value,
                      queue_size=max(eng.queue_size, value))
    return wl, eng


def run_plan(plan: ExperimentPlan, store=None) -> list[RunRecord | PlanError]:
    """One run per axis value (times repeat), in order; errors are recorded
    in place and the plan continues, except EngineUnsupported, which every
    value would meet alike and so ends the plan.  Successful records are
    appended to the store as they finish, when one is given; a record the
    store cannot take is a PlanError in its place."""
    out: list[RunRecord | PlanError] = []
    for value in plan.values:
        for rep in range(plan.repeat):
            try:
                wl, eng = _apply_axis(plan, value)
                record = run(wl, eng)
                record.extra.setdefault("plan", plan.name)
                record.extra.setdefault("axis", plan.axis)
                record.extra.setdefault("axis_value", value)
                if store is not None:
                    store.append(record)
                out.append(record)
            except EngineUnsupported:
                raise
            except (ReadBenchError, ValueError, OSError) as exc:
                out.append(PlanError(value, rep, f"{type(exc).__name__}: {exc}"))
    return out


@dataclass
class ScanTimeline:
    """Windowed sequential-scan throughput over a whole target."""

    window_bytes: int
    window_mb_s: list[float]
    window_elapsed_s: list[float]
    total_bytes: int
    total_s: float


def whole_scan(target: TargetHandle, block: int,
               window_bytes: int | None = None) -> ScanTimeline:
    """Read the full capacity sequentially at depth 1; report MB/s per
    window.  ``block`` is a run block size: a power of two in 4 KiB..64 MiB
    that divides the capacity.  A window's time is at least the log's unit,
    1 us, as cached reads can each round to 0 us."""
    workload = WorkloadSpec(target=target, pattern="sequential",
                            block_size=block,
                            request_budget=target.capacity // block)
    if window_bytes is None:
        window_bytes = max(target.capacity // 64, block)
    per_window = max(window_bytes // block, 1)
    lat_us = duration_log(workload, EngineConfig(kind="sync"))

    mb_s: list[float] = []
    elapsed: list[float] = []
    for i in range(0, len(lat_us), per_window):
        chunk = lat_us[i:i + per_window]
        t = max(sum(chunk), 1) / 1e6
        elapsed.append(t)
        mb_s.append(len(chunk) * block / t / 1e6)
    return ScanTimeline(window_bytes=per_window * block, window_mb_s=mb_s,
                        window_elapsed_s=elapsed,
                        total_bytes=target.capacity, total_s=sum(elapsed))


@dataclass(frozen=True)
class BestConfigRow:
    storage: str
    threads: int
    queue_size: int
    batch_size: int


@dataclass(frozen=True)
class BestConfigTable:
    engine_kind: str
    rows: tuple[BestConfigRow, ...]


_BEST_TABLES = {
    "aio": BestConfigTable("aio", (
        BestConfigRow("optane", 2, 16, 4),
        BestConfigRow("nvme", 3, 16, 1),
        BestConfigRow("ssd", 1, 16, 2),
        BestConfigRow("hdd", 1, 16, 16),
    )),
    "uring": BestConfigTable("uring", (
        BestConfigRow("optane", 3, 4, 2),
        BestConfigRow("nvme", 3, 16, 2),
        BestConfigRow("ssd", 1, 32, 8),
        BestConfigRow("hdd", 1, 1, 1),
    )),
    "uring+poll": BestConfigTable("uring+poll", (
        BestConfigRow("optane", 2, 16, 2),
        BestConfigRow("nvme", 2, 32, 8),
        BestConfigRow("ssd", 1, 16, 4),
        BestConfigRow("hdd", 1, 1, 1),
    )),
}


def paper_best_configs(engine_kind: str) -> BestConfigTable:
    """The published per-device best (threads, queue, batch) choices."""
    if engine_kind not in _BEST_TABLES:
        raise NoSuchPreset(f"no best-config table for {engine_kind!r}; "
                           f"choose from {sorted(_BEST_TABLES)}")
    return _BEST_TABLES[engine_kind]


def select_best(records: list[RunRecord],
                latency_budget_us: float | None = None) -> RunRecord:
    """Highest-throughput record whose p99.9 fits the budget.

    If nothing fits, the minimum-p99.9 record.  Ties break toward lower
    CPU use, then smaller queue; the result is permutation-invariant.
    """
    if not records:
        raise ValueError("no records to select from")

    def tiebreak(rec: RunRecord):
        return (rec.cpu.percent_of_core, rec.engine.queue_size,
                rec.latency.p999_us, rec.label, rec.started_at)

    if latency_budget_us is not None:
        qualifying = [r for r in records
                      if r.latency.p999_us <= latency_budget_us]
    else:
        qualifying = list(records)
    if qualifying:
        return min(qualifying, key=lambda r: (-r.throughput_mb_s,) + tiebreak(r))
    return min(records, key=lambda r: (r.latency.p999_us,) + tiebreak(r)[:2]
               + (-r.throughput_mb_s, r.label, r.started_at))

"""Per-layer tracing for the traced benchmark run.

The tracer wraps the public entry points of each readbench layer by
rebinding the names its callers look up at call time: ``engines`` imports
``submit``, ``advance``, ``read_block``, ``aggregate_latencies`` and
``snapshot_cpu`` by name and ``sweep`` imports ``run``, so those wrappers go
on ``readbench.engines.<name>`` and ``readbench.sweep.run``.  Methods are
wrapped on their classes.

Per-request calls are folded into per-thread counters (calls, self time,
items, empty results); per-run calls become spans (name, start, end,
parent).  A call's self time is its duration minus the time of traced calls
it made on the same thread, so nested calls (``SplitMix64.next_u64`` inside
``devicesim.submit``) are not counted twice.  Everything stays in memory
until the caller writes it out.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter_ns

from readbench import aio_native, engines, fill, report, rng, sweep, uring_native


def _entries(args, out):
    return len(args[1])  # submit_reads(self, entries)


def _results(args, out):
    return len(out)


#: (owner, attribute, layer name, items per call or None)
FOLDED = (
    (rng.SplitMix64, "next_u64", "rng.next_u64", None),
    (engines, "submit", "devicesim.submit", None),
    (engines, "advance", "devicesim.advance", _results),
    (engines, "read_block", "target.read_block", None),
    (engines, "aggregate_latencies", "measurement.aggregate_latencies",
     lambda args, out: len(args[0])),
    (engines, "snapshot_cpu", "measurement.snapshot_cpu", None),
    (fill, "check_block", "fill.check_block", None),
    (engines._Checksum, "add", "engines.checksum", None),
    (aio_native.AioQueue, "submit_reads", "aio_native.submit_reads", _entries),
    (aio_native.AioQueue, "wait", "aio_native.wait", _results),
    (uring_native.UringQueue, "submit_reads", "uring_native.submit_reads", _entries),
    (uring_native.UringQueue, "wait", "uring_native.wait", _results),
    (report.ResultStore, "append", "report.store_append", None),
    (report.ResultStore, "read", "report.store_read", lambda args, out: len(out[0])),
)

#: entry points recorded as ``engines.run`` spans
SPANNED = ((engines, "run"), (sweep, "run"))


class Tracer:
    """Install with ``with tracer:``; the originals are restored on exit.

    ``table()`` maps a layer name to [calls, self_ns, items, empty calls],
    summed over every thread and every ``with`` block so far.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def _thread(self):
        loc = self._local
        try:
            return loc.stack, loc.stats
        except AttributeError:
            loc.stack, loc.stats = [], {}
            with self._lock:
                self._tables.append(loc.stats)
            return loc.stack, loc.stats

    def _fold(self, name, fn, items):
        def traced(*args, **kwargs):
            stack, stats = self._thread()
            frame = [0, None]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                row = stats.get(name)
                if row is None:
                    row = stats[name] = [0, 0, 0, 0]
                row[0] += 1
                row[1] += dt - frame[0]
            if items is not None:
                n = items(args, out)
                row[2] += n
                row[3] += n == 0
            return out
        return traced

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields its dict so the caller can add fields."""
        stack, _ = self._thread()
        parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
        entry = {"name": name, "parent": parent, **attrs}
        frame = [0, len(self.spans)]
        self.spans.append(entry)
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            yield entry
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            if stack:
                stack[-1][0] += t1 - t0
            entry.update(start_ns=t0, end_ns=t1, self_ns=t1 - t0 - frame[0])

    def _run_span(self, fn):
        def traced(workload, engine):
            with self.span("engines.run", threads=workload.threads,
                           simulated=workload.target.is_simulated) as entry:
                record = fn(workload, engine)
            entry["requests"] = record.latency.count
            entry["short_harvests"] = record.extra.get("short_harvests", 0)
            return record
        return traced

    def _swap(self, owner, attr, wrapper_of) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def __enter__(self) -> "Tracer":
        for owner, attr, name, items in FOLDED:
            self._swap(owner, attr,
                       lambda fn, name=name, items=items: self._fold(name, fn, items))
        for owner, attr in SPANNED:
            self._swap(owner, attr, self._run_span)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def table(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        with self._lock:
            tables = list(self._tables)
        for stats in tables:
            for name, row in stats.items():
                acc = out.setdefault(name, [0, 0, 0, 0])
                for i, v in enumerate(row):
                    acc[i] += v
        return out

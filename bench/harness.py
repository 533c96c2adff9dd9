"""Workloads, rounds, correctness checks and metrics of the benchmark.

Import this only after ``run.load_program()`` has put the checkout's
``src`` first on the import path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy
from readbench import devicesim, engines, report, sweep, target
from readbench.engines import EngineConfig, WorkloadSpec

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SPEC_FILE = ROOT / "BENCHMARK.json"

SIM_CAPACITY = 1 << 30
FILE_SIZE = 256 << 20
TINY_FILE_SIZE = 16 << 20
TINY_DIVISOR = 100
BLOCK = 4096
SETUPS = 3


@dataclass(frozen=True)
class RunSpec:
    """One timed call of a round: an engine run, or a one-value queue-size
    plan through ``sweep.run_plan`` when ``plan`` is set."""

    name: str
    kind: str
    budget: int
    queue: int = 1
    batch: int = 1
    threads: int = 1
    fixed: bool = False
    model: str | None = None
    plan: bool = False

    def engine(self) -> EngineConfig:
        return EngineConfig(kind=self.kind, queue_size=self.queue,
                            batch_size=self.batch, fixed_files=self.fixed,
                            fixed_buffers=self.fixed)


# sim-4k: the q64 run holds 1M samples, so per-sample memory sets peak RSS.
SIM_ROUND = (
    RunSpec("sync", "sync", 50_000, model="nvme-ssd"),
    RunSpec("aio-q32b8", "aio", 50_000, 32, 8, model="ull"),
    RunSpec("uring-q64b8", "uring", 1_000_000, 64, 8, model="nvme-ssd", plan=True),
    RunSpec("uring-q16b4-T2", "uring", 50_000, 16, 4, threads=2, model="ull",
            plan=True),
)
FILE_ROUND = (
    RunSpec("sync", "sync", 20_000),
    RunSpec("pool-T2", "pool", 20_000, threads=2),
    RunSpec("aio-q32b8", "aio", 20_000, 32, 8),
    RunSpec("uring-q32b8", "uring", 20_000, 32, 8),
    RunSpec("uring-q32b8-MF", "uring", 20_000, 32, 8, fixed=True),
)
#: workload -> (round, verify)
WORKLOADS = {
    "sim-4k": (SIM_ROUND, False),
    "file-4k": (FILE_ROUND, False),
    "file-4k-verify": (FILE_ROUND, True),
}
#: the sim-4k configuration replayed twice, with verify on so the data
#: checksum takes part in the comparison
REPLAY = RunSpec("replay-uring-q16b4-T2", "uring", 20_000, 16, 4, threads=2,
                 model="ull")


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def calibration_ms() -> float:
    """Fixed pure-Python loop; its time shows the host's speed at the moment."""
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return (time.perf_counter() - t0) * 1e3


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path``, from /proc/self/mountinfo."""
    where = str(path.resolve())
    best, fstype = "", "unknown"
    with open("/proc/self/mountinfo") as f:
        for line in f:
            left, _, right = line.partition(" - ")
            mount = left.split()[4].replace("\\040", " ")
            inside = where == mount or where.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, right.split()[0]
    return fstype


def environment(path: Path, engines_probe: dict) -> dict:
    return {
        "kernel": os.uname().release,
        "filesystem": filesystem_type(path),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engines": engines_probe,
    }


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


@dataclass
class Totals:
    """What the timed calls of some rounds add up to."""

    rounds: int = 0
    requests: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    async_p99_us: list = field(default_factory=list)

    def req_per_s(self) -> float:
        return _ratio(self.requests, self.wall_s)


class Bench:
    """One workload at one seed: set-up, rounds, checks and metrics."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.round_specs, self.verify = WORKLOADS[workload]
        self.divisor = TINY_DIVISOR if tiny else 1
        self.file_size = TINY_FILE_SIZE if tiny else FILE_SIZE
        self.is_file = workload.startswith("file-")
        self.path = WORK / f"target-{os.getpid()}.dat"
        self.store_path = WORK / f"store-{os.getpid()}.jsonl"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.prepare_times: list[float] = []
        self.verify_times: list[float] = []
        self.handles: dict = {}
        self.probe: dict = {}

    # -- set-up ----------------------------------------------------------

    def setup_once(self) -> None:
        t0 = time.perf_counter()
        self.close()
        if self.is_file:
            handle = target.prepare_target(str(self.path), self.file_size, self.seed)
            t1 = time.perf_counter()
            target.verify_file(handle)  # also warms the page cache
            t2 = time.perf_counter()
            self.prepare_times.append(t1 - t0)
            self.verify_times.append(t2 - t1)
            self.handles = {None: handle}
        else:
            self.handles = {
                m: target.simulated_target(devicesim.preset_model(m),
                                           SIM_CAPACITY, self.seed)
                for m in {s.model for s in self.round_specs}}
        self.probe = engines.probe_engines()
        self.setup_times.append(time.perf_counter() - t0)

    def close(self) -> None:
        for h in self.handles.values():
            h.close()
        self.handles = {}

    def cleanup(self) -> None:
        self.close()
        for p in (self.path, self.store_path):
            p.unlink(missing_ok=True)

    def corrupt_first_block(self) -> None:
        """Flip one byte in the first block the first run will read."""
        offset = next(engines.offset_stream(self.workload_spec(FILE_ROUND[0]), 0))
        with open(self.path, "r+b") as f:
            f.seek(offset + 100)
            b = f.read(1)
            f.seek(offset + 100)
            f.write(bytes([b[0] ^ 0x40]))

    # -- runs ------------------------------------------------------------

    def budget(self, spec: RunSpec) -> int:
        return max(spec.budget // self.divisor, 64)

    def workload_spec(self, spec: RunSpec, handle=None, verify=None) -> WorkloadSpec:
        return WorkloadSpec(
            target=handle or self.handles[spec.model], block_size=BLOCK,
            threads=spec.threads, request_budget=self.budget(spec),
            seed=self.seed, verify=self.verify if verify is None else verify)

    def fail(self, spec: RunSpec, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{spec.name}: {why}")
        print(f"FAILED {self.workload} {spec.name}: {why}", file=sys.stderr)

    def check_record(self, spec: RunSpec, record) -> str | None:
        if record.latency.count != self.budget(spec):
            return (f"completed {record.latency.count} of "
                    f"{self.budget(spec)} requests")
        if record.extra.get("max_inflight", 0) > spec.queue:
            return (f"max_inflight {record.extra['max_inflight']} > "
                    f"queue_size {spec.queue}")
        return None

    def one_run(self, spec: RunSpec, store, tracer):
        """Time one call; returns (record, wall_s, cpu_s), or None if it failed."""
        self.attempted += 1
        try:
            wl, eng = self.workload_spec(spec), spec.engine()
            if spec.plan:
                plan = sweep.ExperimentPlan(
                    name=f"{self.workload}-{spec.name}", axis="queue_size",
                    values=[spec.queue], base_workload=wl, base_engine=eng)
            c0, t0 = cpu_seconds(), time.perf_counter()
            if spec.plan:
                with tracer.span("sweep.run_plan") if tracer else nullcontext():
                    record = sweep.run_plan(plan, store)[0]
            else:
                record = engines.run(wl, eng)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        except Exception as exc:  # run boundary: report and count the failure
            traceback.print_exc()
            self.fail(spec, f"{type(exc).__name__}: {exc}")
            return None
        if isinstance(record, sweep.PlanError):
            self.fail(spec, record.error)
            return None
        problem = self.check_record(spec, record)
        if problem:
            self.fail(spec, problem)
            return None
        return record, wall, cpu

    def one_round(self, totals: Totals, tracer=None) -> list:
        """Run every spec of the round once; returns [(spec, record)]."""
        self.store_path.unlink(missing_ok=True)
        store = report.ResultStore(str(self.store_path))
        done = []
        for spec in self.round_specs:
            out = self.one_run(spec, store, tracer)
            if out is None:
                continue
            record, wall, cpu = out
            done.append((spec, record))
            totals.requests += record.latency.count
            totals.wall_s += wall
            totals.cpu_s += cpu
            if spec.kind in ("aio", "uring") and self.is_file:
                totals.async_p99_us.append(record.latency.p99_us)
        totals.rounds += 1
        written = [(s, r) for s, r in done if s.plan]
        if written:
            self.check_store(store, written, tracer)
        return done

    def check_store(self, store, written, tracer) -> None:
        """The store returns every record the plans wrote; then render it."""
        records, skipped = store.read()
        if skipped or [r.label for r in records] != [r.label for _, r in written]:
            for spec, _ in written:
                self.fail(spec, f"store read back {len(records)} records of "
                                f"{len(written)}, skipped {skipped}")
            return
        with tracer.span("report.render") if tracer else nullcontext():
            report.latency_table(records)
            report.scatter_summary(records)

    # -- correctness checks outside the timed rounds ---------------------

    def check_replay(self) -> None:
        """sim-4k: the same configuration twice gives the same record."""
        self.attempted += 2
        wl = self.workload_spec(REPLAY, verify=True)
        try:
            a, b = engines.run(wl, REPLAY.engine()), engines.run(wl, REPLAY.engine())
        except Exception as exc:  # check boundary: report and count the failure
            traceback.print_exc()
            self.fail(REPLAY, f"{type(exc).__name__}: {exc}")
            return
        if not (a.latency == b.latency and a.throughput_mb_s == b.throughput_mb_s
                and a.data_checksum == b.data_checksum and a.data_checksum):
            self.fail(REPLAY, "replay differs: "
                      f"{a.latency} {a.throughput_mb_s} {a.data_checksum} vs "
                      f"{b.latency} {b.throughput_mb_s} {b.data_checksum}")

    def check_checksums(self, rounds: list) -> None:
        """file-4k-verify: every engine's data checksum equals that of a
        simulated run over the same offsets, whose bytes are generated from
        the fill pattern instead of read."""
        sim = target.simulated_target(devicesim.preset_model("ull"),
                                      self.file_size, self.seed)
        expected = {}
        for done in rounds:
            for spec, record in done:
                key = (spec.threads, spec.budget)
                if key not in expected:
                    ref = RunSpec("reference", "sync" if spec.threads == 1 else "pool",
                                  spec.budget, threads=spec.threads)
                    expected[key] = engines.run(self.workload_spec(ref, handle=sim),
                                                ref.engine()).data_checksum
                if record.data_checksum != expected[key]:
                    self.fail(spec, f"data checksum {record.data_checksum} != "
                                    f"{expected[key]}")

    # -- metrics ---------------------------------------------------------

    def end_to_end(self, totals: Totals, import_s: float) -> dict:
        return {
            "req_per_s": totals.req_per_s(),
            "cpu_us_per_req": _ratio(totals.cpu_s, totals.requests) * 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_s + statistics.median(self.setup_times),
        }

    def per_layer(self, tracer: Tracer, traced: Totals, untraced: Totals) -> dict:
        table = tracer.table()
        rounds = max(traced.rounds, 1)

        def row(name):
            return table.get(name, [0, 0, 0, 0])

        def calls(name):
            return row(name)[0] / rounds

        def us_per_call(name):
            n, ns, _, _ = row(name)
            return _ratio(ns, n) / 1e3

        def us_per_item(name):
            _, ns, items, _ = row(name)
            return _ratio(ns, items) / 1e3

        def items_per_call(name):
            n, _, items, _ = row(name)
            return _ratio(items, n)

        def spans(name):
            return [s for s in tracer.spans if s["name"] == name]

        runs = spans("engines.run")
        # pool runs do their work on other threads, whose calls overlap
        one_thread = [s for s in runs if s["simulated"] or s["threads"] == 1]
        plans, renders = spans("sweep.run_plan"), spans("report.render")
        out = {
            "engines.requests": sum(s["requests"] for s in runs) / rounds,
            "engines.runs": len(runs) / rounds,
            "engines.self_us_per_req": _ratio(
                sum(s["self_ns"] for s in one_thread),
                sum(s["requests"] for s in one_thread)) / 1e3,
            "engines.short_harvests": sum(s["short_harvests"] for s in runs) / rounds,
            "engines.checksum.us_per_block": us_per_call("engines.checksum"),
            "rng.next_u64.calls": calls("rng.next_u64"),
            "rng.next_u64.us_per_call": us_per_call("rng.next_u64"),
            "devicesim.submit.calls": calls("devicesim.submit"),
            "devicesim.submit.us_per_call": us_per_call("devicesim.submit"),
            "devicesim.advance.calls": calls("devicesim.advance"),
            "devicesim.advance.us_per_call": us_per_call("devicesim.advance"),
            "devicesim.completions_per_advance": items_per_call("devicesim.advance"),
            "measurement.aggregate_latencies.us_per_sample":
                us_per_item("measurement.aggregate_latencies"),
            "measurement.snapshot_cpu.us_per_call":
                us_per_call("measurement.snapshot_cpu"),
            "target.read_block.calls": calls("target.read_block"),
            "target.read_block.us_per_call": us_per_call("target.read_block"),
            "target.prepare_target.s": _median(self.prepare_times),
            "target.verify_file.s": _median(self.verify_times),
            "fill.check_block.calls": calls("fill.check_block"),
            "fill.check_block.us_per_block": us_per_call("fill.check_block"),
            "sweep.run_plan.self_ms": _ratio(sum(s["self_ns"] for s in plans),
                                             len(plans)) / 1e6,
            "report.store_append.us_per_record": us_per_call("report.store_append"),
            "report.store_read.us_per_record": us_per_item("report.store_read"),
            "report.render_ms": _ratio(sum(s["end_ns"] - s["start_ns"] for s in renders),
                                       len(renders)) / 1e6,
            "trace.overhead_ratio": _ratio(untraced.req_per_s(), traced.req_per_s()),
        }
        for layer in ("aio_native", "uring_native"):
            out[f"{layer}.submit_reads.us_per_entry"] = us_per_item(f"{layer}.submit_reads")
            out[f"{layer}.wait.us_per_call"] = us_per_call(f"{layer}.wait")
            out[f"{layer}.wait.completions_per_call"] = items_per_call(f"{layer}.wait")
            out[f"{layer}.wait.empty"] = row(f"{layer}.wait")[3] / rounds
        return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            import_s: float, tiny: bool = False, corrupt: bool = False) -> dict:
    """Run one workload; returns the full result.

    ``import_s`` is the time the caller spent importing the program.
    ``tiny`` divides every budget by 100 and shrinks the file to 16 MiB;
    ``corrupt`` flips one byte of the prepared file before the rounds.  Both
    exist for the self-test.
    """
    WORK.mkdir(exist_ok=True)
    spec = json.loads(SPEC_FILE.read_text())
    bench = Bench(workload, seed, tiny)
    tracer = Tracer() if trace else None
    untraced, traced = Totals(), Totals()
    rounds = []
    calibration = [calibration_ms()]
    try:
        for _ in range(SETUPS):
            bench.setup_once()
        if corrupt:
            bench.corrupt_first_block()
        deadline = time.perf_counter() + seconds
        while True:
            if tracer is not None and untraced.rounds > traced.rounds:
                with tracer:
                    rounds.append(bench.one_round(traced, tracer))
            else:
                rounds.append(bench.one_round(untraced))
            if time.perf_counter() >= deadline and (
                    tracer is None or traced.rounds == untraced.rounds):
                break
        if workload == "sim-4k":
            bench.check_replay()
        if bench.verify:
            bench.check_checksums(rounds)
        calibration.append(calibration_ms())
        env = environment(bench.path if bench.is_file else WORK, bench.probe)
    finally:
        bench.cleanup()

    env["calibration_ms"] = calibration
    if trace:
        metrics, names = bench.per_layer(tracer, traced, untraced), spec["per_layer"]
    else:
        metrics, names = bench.end_to_end(untraced, import_s), spec["end_to_end"]
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
        "error_rate": _ratio(bench.failed, bench.attempted),
        # a queueing measure on file workloads; sim latencies are virtual
        "lat_p99_us": _median(untraced.async_p99_us) if bench.is_file else None,
        "requests_per_round": _ratio(untraced.requests, untraced.rounds),
        "rounds": untraced.rounds + traced.rounds,
        "problems": bench.problems,
        "env": env,
        "spans": tracer.spans if trace else [],
    }

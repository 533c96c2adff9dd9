"""Command-line interface.

Exit codes: 0 success, 1 run error, 2 usage error (argparse default),
3 requested engine or feature unsupported on this system.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import devicesim, engines, report, sweep
from .errors import EngineUnsupported, NoSuchPreset, ReadBenchError
from .target import open_target, prepare_target, simulated_target, verify_file

#: named sweeps over one axis: (axis, grid of the target capacity and the
#: command line's engine)
_NAMED_GRIDS = {
    "single-read": ("block_size", lambda capacity, eng: [
        b for b in sweep.BLOCK_GRID if capacity % b == 0]),
    "thread-sweep": ("threads", lambda capacity, eng: sweep.THREAD_GRID),
    "queue-sweep": ("queue_size", lambda capacity, eng: sweep.QUEUE_GRID),
    "batch-sweep": ("batch_size",
                    lambda capacity, eng: sweep.batch_grid(eng.queue_size)),
}

NAMED_PLANS = ("whole-scan", *_NAMED_GRIDS, "paper-best")

SCHEDULER_HINT = ("operator note: to switch the host I/O scheduler run e.g. "
                  "`echo mq-deadline | sudo tee /sys/block/<dev>/queue/scheduler` "
                  "(needs root, affects the whole host; not done automatically)")


def _add_target_args(p: argparse.ArgumentParser) -> None:
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--path", help="file or block device to read")
    where.add_argument("--model",
                       help="simulated device: hdd|ssd|nvme|ull or a model file")
    p.add_argument("--capacity", type=int, default=1 << 30,
                   help="simulated-target capacity in bytes (default 1 GiB)")
    p.add_argument("--seed", type=lambda v: int(v, 0), default=0,
                   help="fill/workload seed")
    direct = p.add_mutually_exclusive_group()
    direct.add_argument("--direct", dest="direct", action="store_true",
                        default=True, help="bypass the page cache (default)")
    direct.add_argument("--buffered", dest="direct", action="store_false",
                        help="use the page cache")


def _open_target_from_args(args):
    if args.model:
        model = devicesim.load_model(args.model)
        return simulated_target(model, args.capacity, args.seed)
    return open_target(args.path, args.seed, direct=args.direct)


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--block", type=int, default=4096, help="block size, bytes")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--pattern", choices=engines.PATTERNS, default="random")
    p.add_argument("--warmup", type=float, default=None,
                   help="warm-up seconds (default 5 in duration mode, 0 in "
                        "request-budget mode)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--duration", type=float, help="run length, seconds")
    mode.add_argument("--requests", type=int, help="total request budget")
    p.add_argument("--verify", action="store_true",
                   help="verify every block against the fill pattern")


def _workload_from_args(args, target) -> engines.WorkloadSpec:
    duration, requests = args.duration, args.requests
    if duration is None and requests is None:
        duration = 60.0
    warmup = args.warmup
    if warmup is None:
        warmup = 5.0 if duration is not None else 0.0
    return engines.WorkloadSpec(
        target=target, pattern=args.pattern, block_size=args.block,
        threads=args.threads, warmup_s=warmup, duration_s=duration,
        request_budget=requests, seed=args.seed, verify=args.verify)


def _engine_from_args(args) -> engines.EngineConfig:
    return engines.EngineConfig(
        kind=args.engine, queue_size=args.queue, batch_size=args.batch,
        fixed_files=args.fixed_files, fixed_buffers=args.fixed_buffers,
        kernel_poll=args.kernel_poll, allow_fallback=args.allow_fallback)


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=engines.ENGINE_KINDS, default="sync")
    p.add_argument("--queue", type=int, default=1, help="queue size (async)")
    p.add_argument("--batch", type=int, default=1,
                   help="min completions awaited per harvest (async)")
    p.add_argument("--fixed-files", action="store_true")
    p.add_argument("--fixed-buffers", action="store_true")
    p.add_argument("--kernel-poll", action="store_true")
    p.add_argument("--allow-fallback", action="store_true",
                   help="fall back to the emulated async backend when the "
                        "native interface is missing")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="readbench",
                                 description="storage read-path benchmark")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="create and fill a test file")
    p.add_argument("--path", required=True)
    p.add_argument("--size", type=int, required=True,
                   help="file size in bytes (multiple of 4096); aim for "
                        "~90%% of the device capacity")
    p.add_argument("--seed", type=lambda v: int(v, 0), default=0)

    p = sub.add_parser("verify", help="verify a prepared file end to end")
    p.add_argument("--path", required=True)
    p.add_argument("--seed", type=lambda v: int(v, 0), default=0)

    p = sub.add_parser("run", help="one benchmark run")
    _add_target_args(p)
    _add_workload_args(p)
    _add_engine_args(p)
    p.add_argument("--out", help="append the record to this JSONL store")

    p = sub.add_parser("sweep", help="run a named or file-defined plan")
    _add_target_args(p)
    _add_workload_args(p)
    _add_engine_args(p)
    p.add_argument("--plan", required=True,
                   help=f"one of {', '.join(NAMED_PLANS)} or a plan file")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out", help="append records to this JSONL store")

    p = sub.add_parser("report", help="tables and plots from a result store")
    p.add_argument("--in", dest="store", required=True)
    p.add_argument("--scatter", help="write the throughput-vs-p99.9 SVG here "
                                     "(plus a .csv of the plotted points)")
    p.add_argument("--table", help="write the latency CSV table here")

    sub.add_parser("list-engines", help="probe and list engine support")
    return ap


def _cmd_prepare(args) -> int:
    handle = prepare_target(args.path, args.size, args.seed)
    handle.close()
    print(f"prepared {args.path}: {args.size} bytes, seed {args.seed:#x}")
    return 0


def _cmd_verify(args) -> int:
    with open_target(args.path, args.seed, direct=False) as handle:
        verify_file(handle)
    print(f"{args.path}: all {args.seed:#x}-pattern words verified")
    return 0


def _print_record(rec: engines.RunRecord) -> None:
    ls = rec.latency
    print(f"{rec.label}: {rec.throughput_mb_s:.1f} MB/s, "
          f"lat us min={ls.min_us} mean={ls.mean_us:.0f} p99={ls.p99_us} "
          f"p99.9={ls.p999_us} max={ls.max_us}, "
          f"cpu {rec.cpu.percent_of_core:.0f}% of a core"
          + (f"  [{rec.notes}]" if rec.notes else ""))


def _cmd_run(args) -> int:
    target = _open_target_from_args(args)
    with target:
        record = engines.run(_workload_from_args(args, target),
                             _engine_from_args(args))
    if args.out:
        report.ResultStore(args.out).append(record)
    _print_record(record)
    return 0


def _flag(value: str) -> bool:
    """1, true or yes, or 0, false or no, in any case."""
    word = value.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected 1/true/yes or 0/false/no")
    return word in ("1", "true", "yes")


def _one_of(*words: str):
    """A parser that takes one of words as it is."""
    def parse(value: str) -> str:
        if value not in words:
            raise ValueError(f"expected one of {', '.join(words)}")
        return value
    return parse


#: the parser of each plan-file key; a key beside name, axis and values
#: replaces the command-line flag of its name, and a key left out keeps the
#: flag's value
_PLAN_KEYS = {
    "name": str, "axis": str, "values": lambda v: [int(x) for x in v.split(",")],
    "block": int, "threads": int, "pattern": _one_of(*engines.PATTERNS),
    "requests": int, "duration": float, "warmup": float,
    "seed": lambda v: int(v, 0), "engine": _one_of(*engines.ENGINE_KINDS),
    "queue": int, "batch": int, "fixed_files": _flag,
    "fixed_buffers": _flag, "kernel_poll": _flag,
}


def _parse_plan_file(path: str) -> dict:
    if not os.path.exists(path):
        raise NoSuchPreset(f"{path!r} is neither a named plan "
                           f"({', '.join(NAMED_PLANS)}) nor a plan file")
    settings = devicesim.read_key_values(path, _PLAN_KEYS)
    for key in ("axis", "values"):
        if key not in settings:
            raise ValueError(f"plan file {path!r} has no {key!r} key")
    return settings


def _plans_from_args(args, target) -> list[sweep.ExperimentPlan]:
    name = args.plan
    if name not in _NAMED_GRIDS and name != "paper-best":
        settings = _parse_plan_file(name)
        # requests wins over duration; either replaces the command line's
        # mode, and so its default warm-up
        if "requests" in settings:
            settings["duration"] = None
        elif "duration" in settings:
            settings["requests"] = None
        args = argparse.Namespace(**(vars(args) | settings))
    wl = _workload_from_args(args, target)
    eng = _engine_from_args(args)
    if name in _NAMED_GRIDS:
        axis, grid = _NAMED_GRIDS[name]
        return [sweep.ExperimentPlan(name, axis, grid(target.capacity, eng),
                                     wl, eng, args.repeat)]
    if name == "paper-best":
        # one single-value plan per table row; a simulated target runs the
        # rows of its device class, any other target every row
        table = sweep.paper_best_configs(
            eng.kind + ("+poll" if eng.kernel_poll else ""))
        rows = [r for r in table.rows if target.is_simulated and
                devicesim.preset_model(r.storage).kind == target.model.kind]
        return [sweep.ExperimentPlan(
                    name, "threads", [r.threads], wl,
                    replace(eng, queue_size=r.queue_size,
                            batch_size=r.batch_size), args.repeat)
                for r in rows or table.rows]
    return [sweep.ExperimentPlan(settings.get("name", name), settings["axis"],
                                 settings["values"], wl, eng, args.repeat)]


def _cmd_sweep(args) -> int:
    target = _open_target_from_args(args)
    store = report.ResultStore(args.out) if args.out else None
    results = run_errors = 0
    with target:
        if args.plan == "whole-scan":
            timeline = sweep.whole_scan(target, args.block)
            print("window_start_bytes,mb_s")
            for i, mb in enumerate(timeline.window_mb_s):
                print(f"{i * timeline.window_bytes},{mb:.3f}")
            return 0
        for plan in _plans_from_args(args, target):
            for item in sweep.run_plan(plan, store):
                if isinstance(item, sweep.PlanError):
                    run_errors += 1
                    print(f"error at {plan.axis}={item.axis_value}: "
                          f"{item.error}", file=sys.stderr)
                else:
                    results += 1
                    _print_record(item)
    return 1 if run_errors and not results else 0


def _cmd_report(args) -> int:
    store = report.ResultStore(args.store)
    records, skipped = store.read()
    if skipped:
        print(f"warning: skipped {skipped} corrupt line(s)", file=sys.stderr)
    if not records:
        print("no records", file=sys.stderr)
        return 1
    if args.table:
        with open(args.table, "w") as f:
            f.write(report.latency_table(records))
        print(f"wrote {args.table}")
    if args.scatter:
        with open(args.scatter, "w") as f:
            f.write(report.scatter_summary(records))
        points = args.scatter + ".csv"
        with open(points, "w") as f:
            f.write(report.scatter_points_csv(records))
        print(f"wrote {args.scatter} and {points}")
    print(SCHEDULER_HINT, file=sys.stderr)
    return 0


def _cmd_list_engines(args) -> int:
    print(json.dumps(engines.probe_engines(), indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "prepare": _cmd_prepare, "verify": _cmd_verify, "run": _cmd_run,
        "sweep": _cmd_sweep, "report": _cmd_report,
        "list-engines": _cmd_list_engines,
    }
    try:
        return handlers[args.command](args)
    except EngineUnsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoSuchPreset as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReadBenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

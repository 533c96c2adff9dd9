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

NAMED_PLANS = ("single-read", "whole-scan", "thread-sweep", "queue-sweep",
               "batch-sweep", "paper-best")

SCHEDULER_HINT = ("operator note: to switch the host I/O scheduler run e.g. "
                  "`echo mq-deadline | sudo tee /sys/block/<dev>/queue/scheduler` "
                  "(needs root, affects the whole host; not done automatically)")


def _add_target_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--path", help="file or block device to read")
    p.add_argument("--model",
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
    if (args.path is None) == (args.model is None):
        raise SystemExit("specify exactly one of --path / --model (exit 2)")
    if args.model:
        model = devicesim.load_model(args.model)
        return simulated_target(model, args.capacity, args.seed)
    return open_target(args.path, args.seed, direct=args.direct)


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--block", type=int, default=4096, help="block size, bytes")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--pattern", choices=("random", "sequential"),
                   default="random")
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
                   help="fall back to emulated backends when the native "
                        "interface is missing")


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


def _parse_plan_file(path: str) -> dict:
    if not os.path.exists(path):
        raise NoSuchPreset(f"{path!r} is neither a named plan "
                           f"({', '.join(NAMED_PLANS)}) nor a plan file")
    settings = devicesim.read_key_values(path)
    for key in ("axis", "values"):
        if key not in settings:
            raise ValueError(f"plan file {path!r} has no {key!r} key")
    return settings


def _plan_from_args(args, target) -> sweep.ExperimentPlan:
    wl = _workload_from_args(args, target)
    eng = _engine_from_args(args)
    name = args.plan
    if name == "single-read":
        values = [b for b in sweep.BLOCK_GRID if target.capacity % b == 0]
        return sweep.ExperimentPlan(name, "block_size", values, wl, eng,
                                    args.repeat)
    if name == "thread-sweep":
        return sweep.ExperimentPlan(name, "threads", sweep.THREAD_GRID, wl,
                                    eng, args.repeat)
    if name == "queue-sweep":
        return sweep.ExperimentPlan(name, "queue_size", sweep.QUEUE_GRID, wl,
                                    eng, args.repeat)
    if name == "batch-sweep":
        return sweep.ExperimentPlan(name, "batch_size",
                                    sweep.batch_grid(eng.queue_size), wl, eng,
                                    args.repeat)
    settings = _parse_plan_file(name)
    if "block" in settings:
        wl = replace(wl, block_size=int(settings["block"]))
    if "threads" in settings:
        wl = replace(wl, threads=int(settings["threads"]))
    if "pattern" in settings:
        wl = replace(wl, pattern=settings["pattern"])
    if "requests" in settings:
        wl = replace(wl, request_budget=int(settings["requests"]),
                     duration_s=None)
    elif "duration" in settings:
        wl = replace(wl, duration_s=float(settings["duration"]),
                     request_budget=None)
    if "warmup" in settings:
        wl = replace(wl, warmup_s=float(settings["warmup"]))
    if "seed" in settings:
        wl = replace(wl, seed=int(settings["seed"], 0))
    eng = engines.EngineConfig(
        kind=settings.get("engine", eng.kind),
        queue_size=int(settings.get("queue", eng.queue_size)),
        batch_size=int(settings.get("batch", eng.batch_size)),
        fixed_files=settings.get("fixed_files", "0") in ("1", "true", "yes"),
        fixed_buffers=settings.get("fixed_buffers", "0") in ("1", "true", "yes"),
        kernel_poll=settings.get("kernel_poll", "0") in ("1", "true", "yes"),
        allow_fallback=eng.allow_fallback)
    values = [int(v) for v in settings["values"].split(",")]
    return sweep.ExperimentPlan(settings.get("name", name), settings["axis"],
                                values, wl, eng)


def _cmd_sweep(args) -> int:
    target = _open_target_from_args(args)
    store = report.ResultStore(args.out) if args.out else None
    with target:
        if args.plan == "whole-scan":
            timeline = sweep.whole_scan(target, args.block)
            print("window_start_bytes,mb_s")
            for i, mb in enumerate(timeline.window_mb_s):
                print(f"{i * timeline.window_bytes},{mb:.3f}")
            return 0
        if args.plan == "paper-best":
            kind = args.engine + ("+poll" if args.kernel_poll else "")
            table = sweep.paper_best_configs(kind)
            storage = target.model.kind if target.is_simulated else None
            aliases = {"sata-ssd": "ssd", "nvme-ssd": "nvme", "ull": "optane"}
            storage = aliases.get(storage, storage)
            rows = [r for r in table.rows if r.storage == storage] or table.rows
            for row in rows:
                wl = _workload_from_args(args, target)
                wl = replace(wl, threads=row.threads)
                eng = engines.EngineConfig(
                    kind=args.engine, queue_size=row.queue_size,
                    batch_size=row.batch_size, kernel_poll=args.kernel_poll,
                    allow_fallback=args.allow_fallback)
                record = engines.run(wl, eng)
                if store:
                    store.append(record)
                _print_record(record)
            return 0
        plan = _plan_from_args(args, target)
        results = run_errors = 0
        for item in sweep.run_plan(plan, store):
            if isinstance(item, sweep.PlanError):
                run_errors += 1
                print(f"error at {plan.axis}={item.axis_value}: {item.error}",
                      file=sys.stderr)
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

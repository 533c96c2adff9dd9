"""readbench benchmark: harness speed, CPU cost, memory and set-up time.

    python3 bench/run.py --workload sim-4k --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One invocation runs one workload in its own process.  It sets the workload
up three times (set-up time is the median), then repeats a fixed round of
request-budget runs until ``--seconds`` have passed (a traced run stops
after a traced round), checks every record, and prints each metric with
its unit.  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` count runs, and ``metrics``
holds the end-to-end metrics of BENCHMARK.json with ``--trace 0`` or its
per-layer metrics with ``--trace 1``.  A traced run alternates untraced and
traced rounds; the per-layer numbers come from the traced rounds, the
overhead ratio from the pair.  ``--workload all`` runs every workload
untraced and traced, each in a child process.

Inputs come only from ``--seed``: it is the fill seed of every target and
the offset seed of every run.  Scratch files live in ``.bench_work/`` at the
repository root and are removed at exit, except one result file per
invocation, which also holds the environment block and the spans.  See
WORKLOADS.md for what each workload loads and bypasses.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@functools.cache
def load_program() -> float:
    """Import readbench from this checkout's ``src`` and the harness on top
    of it; returns the seconds from process start until then.  Exits 2 if
    the sources are absent."""
    if not (SRC / "readbench" / "__init__.py").is_file():
        print(f"readbench sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import readbench
    if Path(readbench.__file__).resolve().parent != SRC / "readbench":
        print(f"imported readbench from {readbench.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import harness  # noqa: F401
    return time.perf_counter() - T_START


def print_result(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:46s} {m['value']:14.6g} {m['unit']}")
    if result["lat_p99_us"] is not None:
        print(f"{workload:15s} {'lat_p99_us':46s} {result['lat_p99_us']:14.6g} us")
    print(f"{workload:15s} {'error_rate':46s} {result['error_rate']:14.6g} ratio")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))


def run_all(workloads, seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    code = 0
    for workload in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
            code = code or proc.returncode
    return code


def main(argv: list[str] | None = None, *, tiny: bool = False,
         corrupt: bool = False) -> int:
    import_s = load_program()
    import harness
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(harness.WORKLOADS, args.seed, args.seconds)
    result = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), import_s, tiny=tiny, corrupt=corrupt)
    out = harness.WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print_result(args.workload, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at a tiny size (budgets / 100, 16 MiB file).

    python3 bench/selftest.py

Checks that every workload runs and prints every metric of BENCHMARK.json
with its unit; that traced and untraced runs agree on request counts; that
per-layer counts repeat exactly between two traced runs and confirm each
bypass; that one flipped byte in the file makes file-4k-verify fail; and
that in a directory holding only BENCHMARK.json and the benchmark, the
benchmark exits non-zero without a result.  Prints one line per failed check and exits 1 if there was any.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run

SEED = 5
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def invoke(workload: str, trace: int, corrupt: bool = False) -> tuple[int, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace)],
                        tiny=True, corrupt=corrupt)
    return code, out.getvalue().splitlines()


def check_printed(workload: str, trace: int, spec: dict) -> dict:
    code, lines = invoke(workload, trace)
    result = json.loads(lines[-1])
    names = spec["per_layer" if trace else "end_to_end"]
    tag = f"{workload} trace={trace}"
    check(code == 0 and result["correct"] and result["failed"] == 0,
          f"{tag}: exit {code}, result {result['correct']}/{result['failed']}")
    check(list(result["metrics"]) == [m["name"] for m in names],
          f"{tag}: metric names differ from BENCHMARK.json")
    for m in names:
        got = result["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"], f"{tag}: {m['name']} unit {got.get('unit')}")
        printed = any(line.split()[1:2] == [m["name"]] and line.split()[-1] == m["unit"]
                      for line in lines[:-1] if line.startswith(workload))
        check(printed, f"{tag}: {m['name']} not printed with its unit")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    run.load_program()
    import harness
    spec = json.loads(harness.SPEC_FILE.read_text())
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] == "count" and not m["name"].endswith(".empty")]
    layers = {}
    for workload in harness.WORKLOADS:
        check_printed(workload, 0, spec)
        untraced = json.loads((harness.WORK / f"result-{workload}-seed{SEED}-trace0.json")
                              .read_text())["requests_per_round"]
        layers[workload] = check_printed(workload, 1, spec)
        check(layers[workload]["engines.requests"] == untraced,
              f"{workload}: traced {layers[workload]['engines.requests']} "
              f"requests per round, untraced {untraced}")
        again = check_printed(workload, 1, spec)
        for name in counts:
            check(again[name] == layers[workload][name],
                  f"{workload}: {name} {layers[workload][name]} then {again[name]}")

    sim, plain, verify = layers["sim-4k"], layers["file-4k"], layers["file-4k-verify"]
    check(sim["devicesim.submit.calls"] == sim["engines.requests"],
          "sim-4k: one devicesim.submit per request")
    check(sim["target.read_block.calls"] == 0, "sim-4k: target.read_block bypassed")
    for name, lay in (("file-4k", plain), ("file-4k-verify", verify)):
        check(lay["devicesim.submit.calls"] == 0 and lay["devicesim.advance.calls"] == 0,
              f"{name}: devicesim bypassed")
    check(plain["fill.check_block.calls"] == 0, "file-4k: fill.check_block bypassed")
    check(verify["fill.check_block.calls"] == verify["engines.requests"],
          "file-4k-verify: one fill.check_block per request")

    code, lines = invoke("file-4k-verify", 0, corrupt=True)
    result = json.loads(lines[-1])
    check(code != 0 and not result["correct"] and result["failed"] > 0,
          f"flipped byte: exit {code}, failed {result['failed']}")

    bare = harness.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(harness.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.SPEC_FILE, bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sim-4k", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without the program: exit {proc.returncode}")

    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds perfbench and runs one workload of the repository benchmark.

usage (from the repository root):
    python3 perfbench/run.py --workload hot|scan|stamp-sim --seed N \
        --seconds S --trace 0|1

The benchmark is configured and built with CMake on first use, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr. The run's report goes to stdout, and its last line is the
JSON result. The metric names and units in that line are checked against
BENCHMARK.json. The exit code is non-zero when the build fails, a
correctness check fails, or the result does not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Longest a run may take once built; the benchmark itself needs far less.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def check_result(line, trace):
    """Returns why `line` is not a valid result for this run, or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "the result has the wrong keys"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        return f"metrics differ from BENCHMARK.json (missing {missing}, extra {extra})"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["hot", "scan", "stamp-sim"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    binary = build(build_dir)
    spans = build_dir / "spans"
    spans.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workload-dir", str(HERE / "workloads"),
           "--spans", str(spans / f"{args.workload}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    why = check_result(lines[-1], args.trace) if lines else "the run printed nothing"
    if why is not None:
        print("\n".join(lines[:-1]))
        fail(why)
    print(run.stdout, end="")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

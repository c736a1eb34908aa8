#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
library and the benchmark into .bench_build/perfbench (Release); later calls
only rebuild what changed. The last line of standard output is the run's
JSON result. A traced run also writes its spans to .bench_build/spans/.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
# The whole run, build included, must end within these limits.
FIRST_RUN_LIMIT_S = 880
RUN_LIMIT_S = 170
# A second seed, never used while tuning the benchmark, for validating a
# performance claim on inputs it was not developed against.
VALIDATION_SEED = 7919


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target, deadline):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            log("build did not finish in time")
            sys.exit(4)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)


def expected_metrics(trace):
    """(name, unit) of every metric the run must report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return sorted((m["name"], m["unit"])
                  for m in spec["per_layer" if trace else "end_to_end"])


def run(args):
    first = not (BUILD / "perfbench").is_file()
    deadline = time.monotonic() + (FIRST_RUN_LIMIT_S if first
                                   else RUN_LIMIT_S)
    build("perfbench", deadline)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        SPANS.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans",
                str(SPANS / f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        sys.stdout.write(out)
        print(f"STUCK: workload {args.workload}: the run did not end within "
              f"its time limit", flush=True)
        sys.exit(4)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"workload {args.workload} exited with status {proc.returncode}")
        sys.exit(proc.returncode if proc.returncode > 0 else 3)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    want = expected_metrics(args.trace)
    got = sorted((name, m.get("unit"))
                 for name, m in result.get("metrics", {}).items())
    if got != want:
        log(f"metrics {sorted(set(got) ^ set(want))} differ between the "
            f"result and BENCHMARK.json")
        sys.exit(5)


def self_test():
    build("perfbench_selftest", time.monotonic() + FIRST_RUN_LIMIT_S)
    sys.exit(subprocess.run([str(BUILD / "perfbench_selftest")]).returncode)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if not args.workload:
        parser.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()

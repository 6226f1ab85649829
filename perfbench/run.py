#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <ranked-seq|cold-start|served-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the measuring program
(`perfbench/`, its own Cargo package) in release mode, times the workload's
set-up in fresh processes, runs the workload once in a fresh process, and
prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (setup_s included);
with `--trace 1` they are the per-layer ones. Exits non-zero, printing no
result, when the build or the run fails, and with code 1 after printing
the result when any request failed validation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 11
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(manifest, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
             "--manifest-path", str(manifest)],
            env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail("build failed")
    exe = target_dir / "release" / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def median_setup_s(exe, args):
    """Median set-up time over fresh set-up processes. Each process starts,
    builds the workload's inputs (for served-mix it also starts the daemon
    and connects), prints how long it spent choosing graphs by their
    separator count, and exits. That choice is the benchmark's own work, so
    it is taken off the process's wall time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [str(exe), "setup", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            fail(f"set-up exited with code {done.returncode}")
        try:
            selection = float(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            fail("set-up printed no selection time")
        times.append(wall - selection)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ranked-seq", "cold-start", "served-mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    here = Path(__file__).resolve().parent
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    exe = build(here / "Cargo.toml", target_dir)

    setup_s = None if args.trace else median_setup_s(exe, args)
    try:
        done = subprocess.run(
            [str(exe), "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish in time")
    if done.returncode != 0:
        fail(f"the run exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        run = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("the run printed no result")

    metrics = run["metrics"]
    if setup_s is not None:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    correct = run["failed"] == 0 and run["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

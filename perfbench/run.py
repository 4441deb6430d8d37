#!/usr/bin/env python3
"""End-to-end sort benchmark: builds perf_sort from this checkout's sources
and runs one workload of it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/, inputs and scratch files to
.bench_work/; both stay inside the checkout and the work directory is
removed on exit. The last line of standard output is the JSON result
perf_sort prints; every metric is also printed above it as
"name value unit". Exits non-zero without a result when the build or the
workload's set-up fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# Ceiling on one perf_sort run, so that run.py ends within 180 s.
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures and builds perf_sort; returns its path. Build output goes
    to stderr so the result stays the last line of stdout."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release", *generator],
        ["cmake", "--build", str(out), "--target", "perf_sort", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perf_sort"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir), *extra]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perf_sort exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perf_sort exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

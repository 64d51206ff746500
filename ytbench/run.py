#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 ytbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and compiles (Release) into .bench_build/ytbench
under the checkout root; later calls only re-check the build. The last line
of standard output is the result JSON that ytbench prints; build output goes
to standard error. Exits non-zero, printing no result, if the build or the
run fails. See ytbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "ytbench"
WORKLOADS = (
    "paper-insert-precise",
    "paper-mixed-coarse",
    "interactive-large",
    "ingest-islands",
)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and compiles the benchmark; False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("run.py: no library sources next to ytbench/", file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "ytbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "ytbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [str(BUILD / "ytbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--out={BUILD / 'out'}"]
    # On a timeout ytbench is killed and waited for; the round it had forked
    # dies with it (ytbench sets each child's parent-death signal).
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

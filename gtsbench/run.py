#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 gtsbench/run.py --workload bfs-ssd --seed 1 --seconds 20 --trace 0

The first run configures and builds the GTS library and the gts_bench
program with CMake under .bench_build/ at the repository root; later runs
only bring that build up to date. Build output goes to standard error.
Standard output is gts_bench's report, whose last line is one JSON object.
Every argument is passed to gts_bench unchanged.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = BENCH_DIR.parent / ".bench_build" / "gtsbench"


def run(cmd, **kwargs):
    """Runs `cmd` to completion; the child never outlives this process."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    steps = [["cmake", "--build", str(BUILD_DIR),
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        if run(cmd, stdout=sys.stderr) != 0:
            sys.exit("gtsbench: build failed: " + " ".join(cmd))


def main():
    # A terminated run still stops and reaps its child (see run()).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    return run([str(BUILD_DIR / "gts_bench")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark driver from the sources in this checkout and runs it.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload <redis-get|kv-update|tenants-scan> \
        --seed <n> --seconds <s> --trace <0|1> [driver options]

The driver is built with CMake into .bench_build/perfbench (Release). Build
output goes to stderr, so the last line of stdout is the driver's JSON
result. Extra options (--rdma-read-base-ns, --no-guide, --no-fair-share,
--no-tier) are passed through to the driver; see perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", str(BUILD), "--target", "perfbench_driver", "-j", jobs])


def run_step(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def main():
    build()
    try:
        done = subprocess.run([str(DRIVER)] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

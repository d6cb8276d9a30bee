#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs it.

Usage (from the repository root):
    python3 perfbench/run.py --workload corpus_cold|edit_warm|daemon_mix \
        [--seed N] [--seconds S] [--trace 0|1]

The build (CMake, Release) goes to .bench_build/perfbench; build output goes
to stderr so that the benchmark's result JSON stays the last line of stdout.
Exits non-zero without a result when the library sources are missing or the
build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources next to perfbench/ (src/CMakeLists.txt)",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(ROOT, BUILD_DIR, "perfbench")
    cmd = [binary] + sys.argv[1:] + ["--work-dir", WORK_DIR]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload oua-saturate --seed 1 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench
(CMake, Release); an up-to-date build is reused. Build output goes to
stderr, so the last line of stdout is the harness's JSON result. Every
argument is passed to bench_serving unchanged; see perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", JOBS],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    harness = os.path.join(BUILD, "bench_serving")
    spec = os.path.join(ROOT, "BENCHMARK.json")
    return subprocess.run([harness, "--spec", spec] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

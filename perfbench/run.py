#!/usr/bin/env python3
"""Build and run lazyckpt-perfbench from the root of a lazyckpt checkout.

    python3 perfbench/run.py --workload <catalog|sweep|cache-replay>
                             --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/CMakeLists.txt (which builds the lazyckpt libraries
from ../src) into .bench_build/perfbench, builds the benchmark binary, and
runs it.  Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
SCRATCH = os.path.join(".bench_build", "perfbench-scratch")


def build():
    binary = os.path.join(BUILD, "lazyckpt-perfbench")
    # Once the binary exists, `cmake --build` re-runs configuration itself
    # whenever a CMakeLists.txt changes.
    if not os.path.exists(binary):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target",
                    "lazyckpt-perfbench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["catalog", "sweep", "cache-replay"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    scratch = os.path.join(SCRATCH, str(os.getpid()))
    try:
        return subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--expect", os.path.join(HERE, "expected_digests.txt"),
             "--scratch", scratch]).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

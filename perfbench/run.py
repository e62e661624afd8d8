#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <solve-paper|serve-hot|serve-churn> \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The binary is built in release mode,
offline, into $CARGO_TARGET_DIR (default .bench_build); generated model
files and trace output go to <target dir>/perfbench-work. The last line
of standard output is the result object. A failed build exits 2 without
printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "somrm-perfbench")
    work = os.path.join(target, "perfbench-work")
    return subprocess.run([binary, *sys.argv[1:], "--work-dir", work], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the amc real-cost commit benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, release profile,
offline) into $CARGO_TARGET_DIR (default .bench_build), prints the
sandbox description, then runs the benchmark binary with the same
arguments. The binary's last output line is the JSON result; its exit
code is passed through. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 178


def sandbox_line():
    def out(cmd):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
            return r.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    fs = out(["stat", "-f", "-c", "%T", "."])
    rustc = out(["rustc", "--version"])
    return f"# sandbox: nproc={nproc} fs={fs} rustc={rustc}"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        r = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    print(sandbox_line(), flush=True)
    binary = os.path.join(target, "release", "amc-perfbench")
    try:
        r = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())

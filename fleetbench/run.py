#!/usr/bin/env python3
"""Fleet benchmark entry point.

Builds the benchmark in Release from this directory against ../src (into
$CARGO_TARGET_DIR/fleetbench, default .bench_build/fleetbench), then runs one
workload in its own process and passes its output through; the last stdout
line is the JSON result.

    python3 fleetbench/run.py --workload scale-capture --seed 1 --seconds 12 --trace 0

Workloads: scale-capture, ingest-query. --trace 1 prints the
per-layer metrics instead of the end-to-end ones and writes the spans file
to .bench_out/spans-<workload>-<seed>.jsonl.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale-capture", "ingest-query")


def step(cmd):
    # Build chatter goes to stderr so stdout carries only the benchmark's lines.
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))])


def main():
    # On SIGTERM, subprocess.run kills and reaps the child before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "fleetbench")
    out_dir = os.path.join(ROOT, ".bench_out")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"fleetbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "fleetbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out-dir", out_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

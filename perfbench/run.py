#!/usr/bin/env python3
"""Builds the benchmark from source, runs one workload, and relays its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; the first run configures and compiles the
library and the perfbench binary, later runs only re-check it. Build output
goes to stderr, so the last line on stdout is the binary's JSON result.
WAL files live in a per-run directory under the build directory and are
removed when the run ends; a traced run's spans are kept in
<build>/traces/<workload>-seed<n>.tsv.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("tcp-durable", "sim-paper-n100", "sim-verified-n50", "sim-crash-restart")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    work_dir = os.path.join(out_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work_dir]
    try:
        # Generous but finite: every workload finishes well inside this.
        proc = subprocess.run(cmd, timeout=120 + 2 * args.seconds)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        spans = os.path.join(work_dir, "spans.tsv")
        if os.path.isfile(spans):
            traces = os.path.join(out_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(traces, "%s-seed%d.tsv" % (args.workload, args.seed)))
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the vpscope end-to-end benchmark.

Run from the root of a vpscope checkout:

    python3 perfbench/run.py --workload campus_replay --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the vpscope
libraries from src/) into .bench_build/perfbench; later runs only check the
build is current. Build output goes to .bench_build/perfbench/build.log and
stderr, so the last line of stdout is always the benchmark's result object.
A traced run (--trace 1) writes its spans to
.bench_build/traces/<workload>-seed<seed>.json.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("campus_replay", "handshake_churn", "initial_flood", "telemetry_scan")


def run_logged(cmd, log, timeout):
    """Runs a build step with its output appended to `log`; True on success."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode == 0
        except subprocess.TimeoutExpired:
            return False


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        ok = run_logged(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, 300)
        if not ok:
            # A failed configure leaves a cache behind; drop it so the next
            # run configures from scratch.
            cache = os.path.join(build_dir, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
                      log, 840)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(bench_dir, "perfbench")
    if not build(root, build_dir):
        sys.stderr.write("perfbench: build failed, see %s\n"
                         % os.path.join(build_dir, "build.log"))
        return 3

    scratch = os.path.join(bench_dir, "scratch")
    traces = os.path.join(bench_dir, "traces")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_out, "--scratch", scratch]
    # Set-up (bank training) and the checks after the timed phase take less
    # than the run itself plus two minutes.
    timeout = args.seconds * 2 + 120
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=root, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("perfbench: run exceeded %d s\n" % timeout)
        return 4


if __name__ == "__main__":
    sys.exit(main())

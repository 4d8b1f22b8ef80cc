#!/usr/bin/env python3
"""Builds and runs the end-to-end mediator benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-churn --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Every call first configures and builds perfbench/ (a CMake package that
compiles the library sources under src/ with mmv_e2e) into .bench_build/
of the current directory; an up-to-date build costs about a second and is not
part of any measurement. The output of mmv_e2e is passed through: its last line
is one JSON object with the keys correct, attempted, failed and metrics. The
exit code is non-zero when the build fails, an oracle rejects an answer, an
operation fails, or mmv_e2e does not finish within its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.abspath(".bench_build")
# The workloads BENCHMARK.json lists, then the full mediator session, which
# fails its oracle at this commit (see perfbench/README.md).
ALL_WORKLOADS = ["chain-churn", "tc-recursive", "mediator-reads", "mediator-session"]
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j3"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(BUILD_DIR, target)


def run_workload(binary, workload, args):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-root", os.path.join(BUILD_DIR, "state")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s-seed%d.tsv" % (workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s did not finish in %d s\n"
                         % (workload, RUN_TIMEOUT_S))
        return 1, ""
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ALL_WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    if args.selftest:
        binary = build("mmv_e2e_selftest")
        if binary is None:
            return 1
        return subprocess.run(
            [binary, os.path.join(BUILD_DIR, "selftest-state")]).returncode

    binary = build("mmv_e2e")
    if binary is None:
        return 1
    if args.workload != "all":
        code, out = run_workload(binary, args.workload, args)
        sys.stdout.write(out)
        return code

    # Each workload in its own process, so peak_rss_mb is its own; the last
    # line merges the results, metric names prefixed with the workload.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in ALL_WORKLOADS:
        code, out = run_workload(binary, workload, args)
        sys.stdout.write(out)
        worst = worst or code
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][workload + "/" + name] = metric
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())

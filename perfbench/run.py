#!/usr/bin/env python3
"""Builds and runs one workload of the dcert repository benchmark.

    python3 perfbench/run.py --workload certify|query_hot|query_churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the dcert libraries from src/ plus the benchmark binary) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; result files
land in .bench_out/. Each workload's sizes and rates are constants in the
binary (see README.md). The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The exit status is 0 only when the build
succeeded, the correctness checks passed and every metric is present.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify", "query_hot", "query_churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "svc", "sp_server.h")):
        raise RuntimeError("dcert sources (src/) not found next to perfbench/")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
         f"-DDCERT_GIT_SHA={git_sha()}"],
        ["cmake", "--build", bdir, "-j", jobs, "--target", "dcert_perfbench"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "dcert_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def binary_args(workload, seed, seconds, trace, overrides):
    """`overrides` shrinks a run (smoke.py): blocks, setup_reps, announce_ms."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0", "--out",
            os.path.join(ROOT, ".bench_out")]
    for key, value in sorted(overrides.items()):
        args += [f"--{key}", str(value)]
    return args


def check_result(line, trace):
    """Returns the parsed result or raises ValueError."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    want = declared_metrics(trace)
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, undeclared {extra}")
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            raise ValueError(f"{name}: unit {got[name].get('unit')} != {unit}")
    return result


def run(workload, seed, seconds, trace, overrides=None):
    """Builds if needed, runs one workload; returns (exit status, line)."""
    binary = build()
    cmd = [binary] + binary_args(workload, seed, seconds, trace,
                                 overrides or {})
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1, None
    try:
        result = check_result(lines[-1], trace)
    except (ValueError, KeyError, TypeError) as e:
        log(f"{workload}: bad result line: {e}")
        return 1, None
    status = proc.returncode
    if status == 0 and not result["correct"]:
        status = 1
    return status, lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        status, line = run(args.workload, args.seed, args.seconds,
                           args.trace == 1)
    except (OSError, RuntimeError, ValueError) as e:
        log(str(e))
        return 2
    if line is not None:
        print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the RVaaS wire benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload query_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each run builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs one workload in its own process.
The benchmark's report goes to stdout and its last line is the JSON result;
build output goes to stderr. Traced runs write their spans to
<build dir>/spans/. `--workload all` runs every workload in turn and ends
with a summary table instead of a JSON line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["query_warm", "query_cold", "churn_alert"]
# A run must end within 180 s; the benchmark itself needs about 2x --seconds.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no RVaaS sources next to perfbench/", file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_one(binary, out, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed JSON result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--sha", git_sha()]
    if trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-{seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        if err.stdout:
            text = err.stdout if isinstance(err.stdout, str) else err.stdout.decode()
            sys.stdout.write(text)
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3, None
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    if args.workload != "all":
        code, _ = run_one(binary, out, args.workload, args.seed, args.seconds,
                          args.trace)
        return code

    summary = {}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(binary, out, workload, args.seed, args.seconds,
                               args.trace)
        worst = worst or code
        summary[workload] = result
    print()
    print(f"{'workload':<12} {'metric':<28} {'value':>14} unit")
    for workload, result in summary.items():
        if result is None:
            print(f"{workload:<12} (no result)")
            continue
        print(f"{workload:<12} {'correct':<28} {str(result['correct']):>14}")
        for name, metric in result["metrics"].items():
            print(f"{workload:<12} {name:<28} {metric['value']:>14.4f} "
                  f"{metric['unit']}")
    return worst


if __name__ == "__main__":
    sys.exit(main())

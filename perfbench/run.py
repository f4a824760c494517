#!/usr/bin/env python3
"""Builds and runs the ChainReaction repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload put_stream --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1       # every workload
  python3 perfbench/run.py --workload read_heavy --repeat 10   # spread table
  python3 perfbench/run.py --smoke                        # short run + unit test

The C++ benchmark (crx_perfbench) is built from source into .bench_build/
on first use. A run's last stdout line is its JSON result; the exit code is
non-zero when a check failed or the program could not be built or run.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
DATA_ROOT = os.path.join(BUILD_ROOT, "data")
BINARY = os.path.join(CMAKE_DIR, "crx_perfbench")
UNIT_TEST = os.path.join(CMAKE_DIR, "metric_math_test")
WORKLOADS = ["put_stream", "read_heavy", "durable_mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    cache = os.path.join(CMAKE_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(CMAKE_DIR)  # configured for another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", CMAKE_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        return False
    return True


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    os.makedirs(DATA_ROOT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--data-root", DATA_ROOT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S}s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if echo and lines:
        print("\n".join(lines), flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None and proc.returncode == 0:
        return 1, None
    return proc.returncode, result


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(workload, seed, seconds, trace, n):
    """Runs n seeds of one workload and prints each metric's spread."""
    series = {}
    units = {}
    worst = 0
    for i in range(n):
        code, result = run_once(workload, seed + i, seconds, trace, echo=False)
        if code != 0 or result is None or not result.get("correct"):
            log(f"perfbench: run with seed {seed + i} failed (exit {code})")
            worst = code or 1
            continue
        for name, m in result["metrics"].items():
            series.setdefault(name, []).append(float(m["value"]))
            units[name] = m["unit"]
        log(f"  seed {seed + i}: ok")
    summary = {}
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s} "
          f"{'max':>12s} {'iqr/med':>8s}")
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "min": min(values),
                         "max": max(values), "iqr_over_median": spread, "runs": len(values),
                         "unit": units[name]}
        print(f"{name:40s} {med:12.4f} {q1:12.4f} {q3:12.4f} {min(values):12.4f} "
              f"{max(values):12.4f} {spread:8.4f}")
    print(json.dumps({"workload": workload, "seeds": [seed, seed + n - 1], "trace": trace,
                      "summary": summary}))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N seeds (seed, seed+1, ...) and print median/quartiles/min/max")
    ap.add_argument("--smoke", action="store_true",
                    help="unit test plus a 2-second traced run of every workload")
    args = ap.parse_args()

    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error("unknown workload " + args.workload)
    if not build():
        return 1

    if args.smoke:
        if subprocess.run([UNIT_TEST], stdout=sys.stderr).returncode != 0:
            return 1
        for w in WORKLOADS:
            code, result = run_once(w, args.seed, 2, 1)
            if code != 0 or result is None or not result["correct"]:
                log(f"perfbench smoke: {w} failed")
                return 1
        log("perfbench smoke: ok")
        return 0

    if args.repeat > 0:
        if args.workload == "all":
            ap.error("--repeat needs one workload")
        return repeat(args.workload, args.seed, args.seconds, args.trace, args.repeat)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    results = {}
    for w in workloads:
        code, result = run_once(w, args.seed, args.seconds, args.trace)
        worst = worst or code
        results[w] = result
    if len(workloads) > 1:
        print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())

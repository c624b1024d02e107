#!/usr/bin/env python3
"""Build and run the lock-service benchmark.

One workload (the form a harness calls):

    python3 perfbench/run.py --workload live_write_mix --seed 7 --seconds 12 --trace 0

All workloads, with a table of every metric and its unit:

    python3 perfbench/run.py --seconds 12

The driver binary is built from the repository's sources into
.bench_build/perfbench under the repository root (Release). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is nonzero if any run's correctness gate
failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["live_paper_mix", "live_write_mix", "sim_hls_256", "sim_forest"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "hls_node.hpp")):
        log(f"library sources not found under {os.path.join(ROOT, 'src')}")
        return False
    out = sys.stderr
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=out, stderr=out)
        if rc != 0:
            log("configure failed")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                         stdout=out, stderr=out)
    if rc != 0 or not os.path.isfile(BINARY):
        log("build failed")
        return False
    return True


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace, relay=True):
    """Run one workload; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if relay:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: no result line (exit {proc.returncode})")
        return proc.returncode or 1, None
    names = expected_names(trace)
    if sorted(result.get("metrics", {})) != sorted(names):
        log(f"{workload}: metric set differs from BENCHMARK.json")
        result["correct"] = False
    return (proc.returncode or (0 if result["correct"] else 1)), result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 2

    if args.workload != "all":
        rc, result = run_one(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return rc
        print(json.dumps(result))
        return rc

    worst = 0
    results = {}
    for w in WORKLOADS:
        rc, result = run_one(w, args.seed, args.seconds, args.trace, relay=False)
        worst = max(worst, rc)
        results[w] = result
        if result is None:
            print(f"{w}: no result")
            continue
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())

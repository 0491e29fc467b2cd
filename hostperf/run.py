#!/usr/bin/env python3
"""Build the host-time benchmark from source and run it.

    python3 hostperf/run.py --workload ltpd-serve-cached --seed 1 --trace 0
    python3 hostperf/run.py --workload all

Run from the root of a checkout. --seconds defaults to run_seconds in
BENCHMARK.json, the run length every bound there was checked at. For
one workload, the last line of standard output is its JSON result.
`--workload all` runs every
workload listed in BENCHMARK.json and prints one table of every metric
with its unit, plus error_ratio; it exits 1 if any reply check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./hostperf/hostperf.exe"
EXE = os.path.join(ROOT, "_build", "default", "hostperf", "hostperf.exe")
RUN_TIMEOUT_S = 170


def build():
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("hostperf: dune is not on PATH")
    # the shared build cache lives outside the checkout; keep to _build
    done = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", TARGET],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0 or not os.path.exists(EXE):
        sys.exit("hostperf: build failed")


def run_one(workload, seed, seconds, trace):
    """Run one workload; return (exit code, stdout lines)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("hostperf: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
    return done.returncode, done.stdout.splitlines()


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    results = {}
    for name in names:
        code, lines = run_one(name, args.seed, args.seconds, args.trace)
        if code != 0 or not lines:
            sys.exit("hostperf: %s exited with %d" % (name, code))
        results[name] = json.loads(lines[-1])
    width = max(len(m["name"]) for m in declared) + 2
    print("%-*s %-8s" % (width, "metric", "unit")
          + "".join("%22s" % n for n in names))
    for m in declared:
        print("%-*s %-8s" % (width, m["name"], m["unit"])
              + "".join("%22.4f" % results[n]["metrics"][m["name"]]["value"]
                        for n in names))
    print("%-*s %-8s" % (width, "error_ratio", "ratio")
          + "".join("%22.6f" % (results[n]["failed"] / results[n]["attempted"])
                    for n in names))
    print("%-*s %-8s" % (width, "checked_ops", "count")
          + "".join("%22d" % results[n]["attempted"] for n in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    build()
    bench = load_bench()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload == "all":
        return run_all(args, bench)
    code, lines = run_one(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Exact-count guard: two runs of a workload at one seed must report
identical counts.

    python3 hostperf/test_counts.py [--seed N] [--seconds S] [workload ...]

Runs every workload (or the ones named) twice untraced and twice traced
and compares every count metric: the *_per_req figures, words per
instruction and per cut, the code-cache hit rate and ratios, retained
histogram samples, image bytes, feature blocks and peak heap. They come
from the count window, which does the same work in every run of a seed,
so any difference is nondeterminism in the program or the benchmark.
Exits 1 on the first workload whose counts differ.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT = {
    0: ["heap_peak_mb"],
    1: ["machine.words_per_insn", "machine.insn_per_req",
        "machine.vcycles_per_req", "machine.syscalls_per_req",
        "bbcache.hit_rate", "bbcache.superblock_len_mean",
        "bbcache.decodes_per_req", "bbcache.flushes_per_op",
        "obs.hist_samples", "criu.image_bytes", "core.words_per_cut",
        "core.feature_blocks"],
}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s: a reply check failed (%d of %d)"
                 % (workload, result["failed"], result["attempted"]))
    return result["metrics"]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=2)
    p.add_argument("workloads", nargs="*")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = args.workloads or [w["name"] for w in json.load(f)["workloads"]]
    bad = 0
    for name in names:
        for trace, keys in EXACT.items():
            a = run(name, args.seed, args.seconds, trace)
            b = run(name, args.seed, args.seconds, trace)
            for k in keys:
                same = a[k]["value"] == b[k]["value"]
                print("%-18s %-30s %20r %20r %s" % (name, k, a[k]["value"],
                      b[k]["value"], "ok" if same else "DIFFERS"))
                bad += not same
    if bad:
        sys.exit("%d count metric(s) differ between two runs of one seed" % bad)
    print("all count metrics identical")


if __name__ == "__main__":
    main()

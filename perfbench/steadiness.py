#!/usr/bin/env python3
"""Steadiness study: run one workload (or all) on several seeds and report,
for each end-to-end metric, the median and the spread (third minus first
quartile, as a share of the median) next to the metric's bound.  Each
workload runs RUNS times, on consecutive seeds from --first-seed, for
BENCHMARK.json's run_seconds each.

    python3 perfbench/steadiness.py --workload all [--first-seed 11]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    for workload in names if args.workload == "all" else [args.workload]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + RUNS):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.splitlines()[-1])
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in
                      res["metrics"].items()), flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"{workload:14s} {m['name']:12s} median={med:.5g} "
                  f"{m['unit']:4s} spread={(q3 - q1) / med:.4f} "
                  f"bound={m['bound']}")
        print(f"{workload:14s} failed shares seen: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

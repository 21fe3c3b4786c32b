#!/usr/bin/env python3
"""Benchmark for stokestab: one workload per call, or all of them.

    python3 perfbench/run.py --workload infsup-decay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in child processes (worker.py) with BLAS/OpenMP threads
pinned.  Set-up (interpreter start, imports, inputs, warm-up) is timed SETUP
times in fresh processes and reported as its median; the middle one of
those processes goes on to the measured rounds and reports its peak RSS
after the first round.
Must be run from a checkout holding src/stokestab; the metrics printed on
the last line are the ones BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("infsup-decay", "macro-oracle", "saddle-solve")
THROUGHPUT = {  # workload -> (its own name for work_per_s, unit of work)
    "infsup-decay": ("infsup_pdofs_per_s", "pressure dofs/s"),
    "macro-oracle": ("verdicts_per_s", "macro x combo pairs/s"),
    "saddle-solve": ("unknowns_per_s", "unknowns/s"),
}
SETUP = 5            # set-up samples per run
THREADS = 1          # BLAS / OpenMP threads in the workers (<= nproc)
DEADLINE_MARGIN = 120.0   # seconds past twice --seconds before one
                          # workload's run gives up (set-up, last round, checks)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _start(args, workload, setup_only):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)


def _finish(proc, timer):
    """Drain and reap the worker; returns (stdout lines, exit code)."""
    lines = proc.stdout.read().splitlines()
    proc.stdout.close()
    code = proc.wait()
    timer.cancel()
    return lines, code


def run_workload(args, workload, deadline):
    """Returns the worker's result dict plus setup_s."""
    # set-up samples before and after the measuring worker, so that their
    # median sees the machine over the whole run, as wall_s does
    half = (SETUP - 1) // 2 if not args.trace else 0
    plan = [True] * half + [False] + [True] * half
    samples = []
    for setup_only in plan:
        t0 = time.perf_counter()
        proc = _start(args, workload, setup_only)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                proc.kill)
        timer.start()
        ready = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        lines, code = _finish(proc, timer)
        if ready.strip() != "READY" or code != 0:
            raise RuntimeError(f"{workload} worker exited with {code}")
        if not setup_only:
            result = json.loads(lines[-1])
    result["setup_samples_s"] = samples
    result["setup_s"] = statistics.median(samples)
    result["threads"] = THREADS
    return result


def _print_summary(workload, args, res):
    name, unit = THROUGHPUT[workload]
    print(f"{workload}  seed={args.seed}  rounds={res['rounds']}  "
          f"threads={res['threads']}")
    if not args.trace:
        print(f"  setup_s      {res['setup_s']:.4f} s")
        print(f"  wall_s       {res['wall_s']:.4f} s")
        print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MB")
        print(f"  work_per_s   {res['work_per_s']:.6g} 1/s  "
              f"(= {name}, {unit})")
    else:
        for key, value in sorted(res["per_layer"].items()):
            print(f"  {key:40s} {value:.6g}")
        cov = res["trace_coverage"]
        print(f"  self times cover {100 * cov['self_share']:.2f}% of "
              f"trace.wall_s; unattributed "
              f"{res['per_layer']['trace.unattributed_s']:.4g} s, allowed "
              f"{cov['allowed_unattributed_s']:.4g} s (positive overhead plus "
              f"a share of the round): "
              + ("within" if cov["within_overhead"] else "OUTSIDE"))
    print(f"  attempted {res['attempted']}  failed {res['failed']}")
    for msg, count in res["warnings"].items():
        print(f"  warning x{count}: {msg}")
    for msg in res["failures"]:
        print(f"  FAILED {msg}")


def _metrics(res, spec, trace):
    if trace:
        return {m["name"]: {"value": res["per_layer"][m["name"]],
                            "unit": m["unit"]} for m in spec["per_layer"]}
    return {m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured time per run (default: BENCHMARK.json's "
                    "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stokestab",
                                       "__init__.py")):
        print(f"no stokestab sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = _spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        try:
            res = run_workload(args, workload, time.monotonic()
                               + 2 * args.seconds + DEADLINE_MARGIN)
        except (RuntimeError, ValueError, IndexError) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        results[workload] = res
        _print_summary(workload, args, res)
        record = os.path.join(
            OUT, f"{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(record, "w") as fh:
            json.dump(dict(res, workload=workload, seed=args.seed,
                           seconds=args.seconds, trace=args.trace), fh,
                      indent=1)
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if args.workload == "all":
        final["metrics"] = {w: _metrics(r, spec, args.trace)
                            for w, r in results.items()}
    else:
        final["metrics"] = _metrics(results[args.workload], spec, args.trace)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload in this process: set-up, timed rounds, checks.

Started by run.py.  Prints READY once set-up is done (run.py times set-up
up to that line), then, unless --setup-only, repeats whole rounds until the
rounds have taken --seconds in total, checks every round right after it, and
prints one JSON line with the results.  With --trace 1 rounds alternate
untraced / traced, and the traced ones give the per-layer metrics.

wall_s is the mean time of the untraced rounds, and work_per_s their work
units over their time in the layer that does the work.  Means, not medians
or minima: on a shared host the program runs at two speeds that alternate
within seconds, and the share of slow time drifts over minutes.  The mean
moves with that share; a median or a fastest time jumps between the two
speeds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import sys
import time
import warnings
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# traced round time outside every layer's self time (benchmark glue, tracer
# work) may exceed the measured tracing overhead by this share of the round
UNATTRIBUTED_TOLERANCE = 0.02


def _warning_key(message):
    text = re.sub(r"\[[^\]]*\]", "[...]", str(message))
    return re.sub(r"\d+", "N", text)


def _layer_metrics(tracer, traced_walls, untraced_walls, warning_log):
    import numpy as np
    from spans import LAYERS

    n = len(traced_walls)
    table = tracer.layer_table()
    out = {}
    rows = []
    for key in LAYERS:
        row = table.get(key, {"self_s": 0.0, "calls": 0, "durations_ms": []})
        out[key + "_s"] = row["self_s"] / n
        out[key + "_calls"] = row["calls"] / n
        d = row["durations_ms"]
        p50, p99 = (np.percentile(d, [50, 99]) if d else (0.0, 0.0))
        rows.append((key, row["self_s"] / n, row["calls"] / n, p50, p99))
        if key == "infsup.local_nullspace":
            out[key + "_ms_p50"], out[key + "_ms_p99"] = float(p50), float(p99)
    for name in ("infsup.pressure_dofs", "infsup.unconverged",
                 "macroelement.macros", "stokes.solve_calls",
                 "stokes.unknowns", "stokes.saddle_nnz", "mesh.cells",
                 "mesh.io_bytes", "unstructure.moved_vertices"):
        out[name] = tracer.counts[name] / n
    out["unstructure.scaled_back"] = sum(
        int(m.group(1)) for w in warning_log
        if (m := re.match(r"(\d+) displacement\(s\) were scaled back",
                          str(w.message)))) / n
    wall = sum(traced_walls) / n
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - sum(untraced_walls) / len(untraced_walls)
    out["trace.unattributed_s"] = wall - sum(r[1] for r in rows)
    allowed = max(out["trace.overhead_s"], 0.0) + UNATTRIBUTED_TOLERANCE * wall
    coverage = {"self_share": 1.0 - out["trace.unattributed_s"] / wall,
                "allowed_unattributed_s": allowed,
                "within_overhead": out["trace.unattributed_s"] <= allowed}
    out["trace.spans"] = len(tracer.spans) / n
    for key, value in out.items():
        if (not key.endswith(("_s", "_ms_p50", "_ms_p99"))
                and float(value).is_integer()):
            out[key] = int(value)
    return out, rows, coverage


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import stokestab
    if not os.path.abspath(stokestab.__file__).startswith(SRC + os.sep):
        print(f"stokestab imported from {stokestab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        import checks
        import spans
        from workloads import WORKLOADS

        cfg = checks.thresholds(ROOT)
        wl = WORKLOADS[args.workload](args.seed, cfg, args.out)
        wl.warmup()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = spans.Tracer() if args.trace else None
        walls = {False: [], True: []}
        work_s = 0.0
        work_units = 0
        attempted = failed = 0
        failures = []
        round_warnings = []
        measured = 0.0
        peak_rss_mb = None
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 1
            mark = len(log)
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                rnd = wl.run()
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            if traced:
                round_warnings += log[mark:]
            walls[traced].append(wall)
            measured += wall
            k += 1
            if not traced:
                work_s += rnd.work_s
                work_units += rnd.work_units
            if peak_rss_mb is None:
                # after exactly one round and before its checks, so that
                # neither the number of rounds nor the checks set the figure
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            bad = wl.check(rnd)
            attempted += len(rnd.ops)
            for op in rnd.ops:
                reason = op.error or bad.get(op.name)
                if reason:
                    failed += 1
                    if len(failures) < 20:
                        failures.append(f"{op.name}: {reason}")
            del rnd
            if measured >= args.seconds and (not args.trace or k % 2 == 0):
                break

        warning_counts = Counter(_warning_key(w.message) for w in log)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "rounds": k,
            "round_walls_s": walls[False] + walls[True],
            "wall_s": statistics.mean(walls[False]),
            "work_per_s": work_units / work_s,
            "peak_rss_mb": peak_rss_mb,
            "failures": failures,
            "warnings": dict(warning_counts),
        }
        if args.trace:
            metrics, rows, coverage = _layer_metrics(
                tracer, walls[True], walls[False], round_warnings)
            result["per_layer"] = metrics
            result["trace_coverage"] = coverage
            base = os.path.join(args.out, f"{args.workload}-seed{args.seed}")
            tracer.write_spans(base + ".spans.jsonl")
            with open(base + ".layers.tsv", "w") as fh:
                fh.write("layer\tself_s\tcalls\tp50_ms\tp99_ms\n")
                for row in rows:
                    fh.write("%s\t%.6f\t%g\t%.4f\t%.4f\n" % row)
                fh.write("\ncount\tper_round\n")
                for key, value in sorted(metrics.items()):
                    if isinstance(value, int) and not key.endswith("_calls"):
                        fh.write(f"{key}\t{value}\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark for lexlab: led-pipeline, search-large and gradcheck-suite.

Run from the repository root. With no arguments every workload runs in its
own process, untraced and then traced, and a summary table follows:

    python3 perfbench/run.py

One workload, one process; the last line of output is a JSON result:

    python3 perfbench/run.py --workload search-large --seed 3 --seconds 30 --trace 0

Each run sets up the workload (repeated `setup_reps` times untraced, and the
median set-up time reported), then repeats a pass of the workload, one call
at a time, until `--seconds` have elapsed. Times are scaled to a fixed host
speed by the gauge in gauge.py; the raw wall times are printed beside them.
Untraced runs report the end-to-end metrics listed in BENCHMARK.json. Traced runs alternate
untraced and traced passes and report the per-layer metrics: spans recorded
around calls into lexlab's public functions, for one set-up plus the median
traced pass, and the tracing overhead between the two kinds of pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

# The lab is single-threaded; one BLAS thread keeps small matrix products
# from competing for the host's cores and is never above nproc.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_PASSES = 1000

EXTRA_UNITS = {
    "train_sets_per_s": "1/s",
    "index_docs_per_s": "1/s",
    "search_qps": "1/s",
    "analysis_s": "s",
    "mrr10_led": "mrr",
    "mrr10_lex2": "mrr",
    "worst_rel_error": "ratio",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "host_speed": "ratio",
}
# Pass figures in these units are times or rates, scaled like wall_s.
SPEED_POWER = {"s": 1, "1/s": -1}


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "blas_threads": BLAS_THREADS,
    }


def run_one(args, spec) -> int:
    from gauge import Gauge
    from tracing import LAYER_TARGETS, STAGE_TARGETS, Tracer, install
    from workloads import WORKLOADS

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    workload = WORKLOADS[args.workload]()
    tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    gauge = Gauge()
    gauge.start()
    try:
        undo = install(tracer, LAYER_TARGETS if args.trace else STAGE_TARGETS)
        setup_counts = Counter(tracer.counts)
        setup_lo = len(tracer.start)
        setups = []
        try:
            for rep in range(1 if args.trace else workload.setup_reps):
                gc.collect()
                with gauge.measure() as interval, tracer.span("bench.setup"):
                    workload.setup(work, args.seed, rep)
                setups.append(interval)
        finally:
            undo()
        setup_hi = len(tracer.start)
        setup_counts = tracer.counts - setup_counts
        passes = run_passes(args, workload, tracer, gauge)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        gauge.stop()
        shutil.rmtree(work, ignore_errors=True)

    for p in passes:
        state = "error" if p["error"] else "ok" if all(ok for _, ok, _ in p["checks"]) else "FAILED"
        print(f"pass {p['index']}  {'traced' if p['traced'] else 'untraced'}  {p['seconds']:.3f} s scaled  "
              f"{p['raw_seconds']:.3f} s raw  speed {p['speed']:.3f}  {state}")
        for name, ok, detail in p["checks"]:
            print(f"  check {name} {'ok' if ok else 'FAILED: ' + detail}")
    failed = sum(1 for p in passes if p["error"] or not all(ok for _, ok, _ in p["checks"]))
    timed = [p for p in passes if not p["error"] and not p["traced"]]
    if not timed:
        print("error: no untraced pass completed", file=sys.stderr)
        return 1

    figures = {
        "setup_s": statistics.median(iv.scaled for iv in setups),
        "wall_s": statistics.median(p["seconds"] for p in timed),
        "raw_setup_s": statistics.median(iv.wall for iv in setups),
        "raw_wall_s": statistics.median(p["raw_seconds"] for p in timed),
        "host_speed": statistics.median(p["speed"] for p in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / len(passes),
    }
    for key in sorted({k for p in timed for k in p["metrics"]}):
        figures[key] = statistics.median(p["metrics"][key] for p in timed if key in p["metrics"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS, failed_frac="fraction")
    for key, value in figures.items():
        print(f"metric {key} {value!r} {units[key]}")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "setups": [{**vars(iv), "scaled": iv.scaled} for iv in setups],
              "passes": [{k: v for k, v in p.items() if k not in ("lo", "hi", "counts")} for p in passes],
              "figures": figures}
    if args.trace:
        traced = [p for p in passes if p["traced"] and not p["error"]]
        if not traced:
            print("error: no traced pass completed", file=sys.stderr)
            return 1
        table, metrics = per_layer(spec, tracer, (setup_lo, setup_hi), setup_counts, traced, timed)
        print_layer_table(table, tracer)
        report.update(per_layer=metrics, layer_table=table, missing=tracer.missing,
                      hook_errors=dict(tracer.hook_errors))
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
    else:
        metrics = {m["name"]: figures[m["name"]] for m in spec["end_to_end"]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_passes(args, workload, tracer, gauge) -> list[dict]:
    """Closed loop: start another pass until `--seconds` have elapsed.

    A pass's `seconds` and its time and rate figures are scaled to the
    gauge's nominal host speed; `raw_seconds` is its wall time.
    """
    from tracing import LAYER_TARGETS, STAGE_TARGETS, install

    passes: list[dict] = []
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        i = len(passes)
        traced = bool(args.trace) and i % 2 == 1
        gc.collect()
        undo = install(tracer, LAYER_TARGETS if traced else STAGE_TARGETS)
        before = Counter(tracer.counts)
        lo = len(tracer.start)
        record = {"index": i, "traced": traced, "metrics": {}, "checks": [], "error": ""}
        try:
            with gauge.measure() as interval, tracer.span("bench.pass"):
                record["metrics"], record["checks"] = workload.run_pass(i, tracer)
        except Exception:
            record["error"] = traceback.format_exc()
            print(record["error"], file=sys.stderr)
        finally:
            undo()
        speed = interval.speed
        record["metrics"] = {k: v * speed ** SPEED_POWER.get(EXTRA_UNITS.get(k), 0)
                             for k, v in record["metrics"].items()}
        record.update(seconds=interval.scaled, raw_seconds=interval.wall, speed=speed,
                      kernel_s=interval.kernel_s, lo=lo, hi=len(tracer.start), counts=tracer.counts - before)
        passes.append(record)
        if len(passes) >= (2 if args.trace else 1) and time.perf_counter() - start >= args.seconds:
            break
    try:
        for i, check in workload.final_checks():
            passes[i]["checks"].append(check)
    except Exception:
        traceback.print_exc()
        passes[0]["checks"].append(("final_checks_ran", False, "raised; traceback on stderr"))
    return passes


def per_layer(spec, tracer, setup_range, setup_counts, traced, untraced):
    """Per-layer figures for one set-up plus one traced pass.

    Calls and counts come from the set-up and the first traced pass, so they
    repeat exactly; times add the set-up to the median over traced passes.
    """
    setup = tracer.summarize(*setup_range)
    runs = [tracer.summarize(p["lo"], p["hi"]) for p in traced]
    names = sorted(set(setup) | set().union(*runs))
    zero = [0, 0.0, 0.0]
    table = {}
    for name in names:
        base = setup.get(name, zero)
        table[name] = {
            "calls": base[0] + runs[0].get(name, zero)[0],
            "s": base[1] + statistics.median(r.get(name, zero)[1] for r in runs),
            "total_s": base[2] + statistics.median(r.get(name, zero)[2] for r in runs),
        }
    counts = setup_counts + traced[0]["counts"]
    traced_s = statistics.median(p["seconds"] for p in traced)
    untraced_s = statistics.median(p["seconds"] for p in untraced)
    pair_calls = table.get("objectives.make_rank_pairs", {}).get("calls", 0)
    derived = {
        "objectives.rank_pairs_per_set": counts["objectives.rank_pairs"] / pair_calls if pair_calls else 0.0,
        "sparse_index.postings_per_doc": (counts["sparse_index.learned_postings"]
                                          / counts["sparse_index.learned_docs"]
                                          if counts["sparse_index.learned_docs"] else 0.0),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "trace.spans_per_pass": traced[0]["hi"] - traced[0]["lo"],
    }

    def value(name: str) -> float:
        if name in derived:
            return derived[name]
        span, _, field = name.rpartition(".")
        if field in ("calls", "s", "total_s"):
            return table.get(span, {}).get(field, 0)
        return counts.get(name, 0)

    return table, {m["name"]: value(m["name"]) for m in spec["per_layer"]}


def print_layer_table(table: dict, tracer) -> None:
    print(f"{'span':44} {'calls':>9} {'self s':>10} {'total s':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["s"]):
        print(f"{name:44} {row['calls']:>9} {row['s']:>10.4f} {row['total_s']:>10.4f}")
    if tracer.missing:
        print("missing spans (function not found): " + ", ".join(tracer.missing))
    if tracer.hook_errors:
        print("spans with a failed name or count hook: " + ", ".join(sorted(tracer.hook_errors)))


def run_all(args, spec) -> int:
    """Every workload in its own process, untraced then traced, then a summary."""
    status = 0
    reports = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode:
                print(f"error: {w['name']} trace {trace} exited with {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            path = OUT / f"{w['name']}-seed{args.seed}-trace{trace}.json"
            reports[w["name"], trace] = json.loads(path.read_text(encoding="utf-8"))
            if not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]:
                status = 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(EXTRA_UNITS, failed_frac="fraction")
    print("\nsummary (end-to-end figures from the untraced run; overhead from the traced run)")
    for w in spec["workloads"]:
        plain, traced = reports.get((w["name"], 0)), reports.get((w["name"], 1))
        if plain:
            for key, value in plain["figures"].items():
                print(f"{w['name']:16} {key:18} {value:14.6g} {units[key]}")
        if traced:
            layers = traced["per_layer"]
            print(f"{w['name']:16} {'trace overhead':18} {layers['trace.overhead_s']:14.6g} s per pass "
                  f"({layers['trace.overhead_pct']:.1f}%, {layers['trace.spans_per_pass']} spans)")
    return status


def main(argv=None) -> int:
    if not (SRC / "lexlab" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a lexlab checkout: {SRC / 'lexlab'} or {SPEC} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/measure.py [--runs 10] [--first-seed 1] [--repeat 1]
                                 [--workloads a,b] [--trace] [--write]

Runs the command named in BENCHMARK.json once per (workload, seed), with
seeds first-seed .. first-seed+runs-1 (each seed --repeat times), and prints for every metric its
median, its quartiles and its spread: the distance between the first and
third quartile as a share of the median. Spreads of end-to-end metrics
are compared with their bounds, and every grid run must report the same
per-cell cycles digest. With --trace the per-layer runs are made
instead, and every count metric must read the same in every run of a grid
workload (their counts do not depend on the seed) and of the same seed.
With --write the medians are stored under "baseline" in
perfbench/baseline.json, next to the metric-to-layer map kept there.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRIDS = {"cold_grid", "warm_grid", "disk_warm_grid"}


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    result["cycles_digest"] = next(
        (l.split()[3] for l in lines if l.startswith("[check] cycles digest")), None
    )
    if not result["correct"] or result["failed"]:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "runs": len(values),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    counts = {m["name"] for m in metrics if m["unit"] in ("count", "bytes", "MiB")}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    summary = {}
    ok = True
    grid_digests = set()
    for w in names:
        per_metric = {}
        by_seed = {}
        for seed in [s for s in seeds for _ in range(args.repeat)]:
            r = run_once(spec, w, seed, args.trace)
            if w in GRIDS and r["cycles_digest"]:
                grid_digests.add(r["cycles_digest"])
            vals = {k: v["value"] for k, v in r["metrics"].items()}
            for k, v in vals.items():
                per_metric.setdefault(k, []).append(v)
            by_seed.setdefault(seed, []).append(vals)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in vals.items() if not args.trace or k not in counts
            ), flush=True)
        summary[w] = {k: summarise(v) for k, v in per_metric.items()}
        print(f"\n{w}:")
        for k, s in summary[w].items():
            flag = ""
            bound = bounds.get(k)
            if bound is not None and k != "setup_s":
                if s["spread"] > bound:
                    flag, ok = "  SPREAD ABOVE BOUND", False
                elif s["spread"] > bound / 3:
                    flag = "  spread above a third of the bound"
            if args.trace and k in counts:
                groups = [per_metric[k]] if w in GRIDS else [
                    [vals[k] for vals in runs] for runs in by_seed.values()
                ]
                if any(len(set(g)) > 1 for g in groups):
                    flag, ok = "  COUNT CHANGED BETWEEN RUNS", False
            print(f"  {k:30s} median {s['median']:14.4f}  q1 {s['q1']:14.4f}"
                  f"  q3 {s['q3']:14.4f}  spread {s['spread']:.4f}{flag}")

    if len(grid_digests) > 1:
        print(f"\nGRID WORKLOADS DISAGREE ON PER-CELL CYCLES: {sorted(grid_digests)}")
        ok = False
    elif grid_digests:
        print(f"\nper-cell cycles digest of every grid run: {grid_digests.pop()}")

    if args.write:
        path = os.path.join(ROOT, "perfbench", "baseline.json")
        with open(path) as f:
            doc = json.load(f)
        key = "per_layer" if args.trace else "end_to_end"
        base = doc.setdefault("baseline", {})
        base["host"] = {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "cpu": cpu_model(),
        }
        base[key] = {
            "measured": time.strftime("%Y-%m-%d"),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "repeat": args.repeat,
            "median": {
                w: {k: round(s["median"], 6) for k, s in m.items()} for w, m in summary.items()
            },
            "spread": {
                w: {k: round(s["spread"], 4) for k, s in m.items()} for w, m in summary.items()
            },
        }
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"\nwrote {path}")
    if not ok:
        raise SystemExit("some spreads or counts are out of bounds")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    main()

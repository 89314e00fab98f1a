"""Measure the benchmark's spread and record a baseline with the machine it ran on.

usage, from the root of a checkout:

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--trace-seed 0]
                                  [--roadmap] [--out PATH]

Runs perfbench/run.py once per workload and seed with --trace 0, then
prints, for every end-to-end metric, the median and quartiles over the
seeds and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. --trace-seed adds one traced run per workload for the
per-layer baseline. --roadmap also times, once each, the single CLI runs
that ROADMAP.md's Baseline section quotes, so the two can be reconciled.
--out writes everything, with nproc, CPU model and Python and numpy
versions, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

# The CLI runs ROADMAP.md's Baseline quotes, each timed once: (label, argv, quoted seconds).
ROADMAP_RUNS = [
    ("pairs --jobs 1, X = 10^5", ["pairs", "--x", "100000", "--m", "1", "--n", "4", "--t", "4"], 22.7),
    ("pairs --jobs 2, X = 10^5",
     ["pairs", "--x", "100000", "--m", "1", "--n", "4", "--t", "4", "--jobs", "2"], 14.8),
    ("imaginary --jobs 1, X = 10^5", ["imaginary", "--x", "100000", "--m", "1", "--n", "4"], 11.3),
    ("nh-average warm cache, X = 10^5", ["nh-average", "--x", "100000", "--m", "1", "--n", "4"], 0.73),
]


# What BENCHMARK.json, which holds only its fixed keys, cannot say itself.
NOTES = [
    "The real route (D > 0) has no independent oracle yet: real-serial is checked only "
    "against itself across passes, its cache records and, for seed 0, the pinned digest. "
    "Imaginary h is checked against forms.analytic_h_imaginary on 50 sampled S- members "
    "in imag-pool and warm-cache.",
    "The forms probe times 1,000 sampled discriminants of each survey workload (the 8 "
    "query discriminants for queries) through class_group_info, enumerate_classes, "
    "three_torsion_count and unit_norm. It factors by trial division, not with the "
    "smallest-prime-factor table the surveys use, so the forms share of a survey run is "
    "taken from the trace as compute_class_infos busy time minus smallest_prime_factors "
    "busy time, over the traced pass's wall time (forms.share).",
    "forms.class_group_info.p99_us is the largest of the 8 samples on queries.",
    "forms.three_torsion_count.extra_s is torsion time minus enumeration time; it is "
    "negative where three_torsion_count skips cubing (3 does not divide h) and so does "
    "less than enumerate_classes, which also builds ClassRep objects.",
    "A per-layer metric of a layer the workload never calls reads 0, e.g. cli.cache_load "
    "on queries; experiments.pool_efficiency is 0 except on imag-pool.",
    "cli.cache_load.busy_s and .records include the load cache_store does before merging; "
    "cli.cache.share counts that load once, inside cache_store.",
    "fail_frac is 0 at this baseline, so it is not an end-to-end metric with a bound: "
    "run.py prints it, and the result line carries it as failed / attempted.",
    "wall_s and cpu_s are a run's totals over its number of passes, and disc_per_s is the "
    "results of all passes over their total wall time; run.py prints the per-pass median "
    "beside them. The host's speed drifts by 10-30% over tens of seconds to minutes, and "
    "the whole run's time tracks that drift more steadily than the median of a run's few "
    "passes did (the median gave spreads of 10-27% over ten seeds). One pass of "
    "real-serial or queries takes about 5 s, so a run has 4 to 6 passes and no tail "
    "percentile with ten samples above it exists within a run.",
]


def machine():
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


def run_bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    took = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
    return result, took


def summary(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def time_cli(argv, cache=None):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, "-m", "quadclass.cli", *argv] + (["--cache", cache] if cache else [])
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def roadmap_runs():
    cache = os.path.join(ROOT, ".bench_build", "perfbench", "roadmap.cache")
    os.makedirs(os.path.dirname(cache), exist_ok=True)
    if os.path.exists(cache):
        os.remove(cache)
    out = []
    for label, argv, quoted in ROADMAP_RUNS:
        if label.startswith("nh-average"):
            time_cli(argv, cache)  # fill the cache, untimed
            took = time_cli(argv, cache)
        else:
            took = time_cli(argv)
        out.append({"run": label, "argv": argv, "seconds": took, "roadmap_seconds": quoted})
        print(f"{label}: {took:.2f} s (ROADMAP {quoted} s)", flush=True)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--roadmap", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    lo, hi = (int(v) for v in args.seeds.split("-"))
    out = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": [lo, hi],
           "notes": NOTES, "workloads": {}}
    ok = True
    for name in names:
        per_metric, durations = {}, []
        for seed in range(lo, hi + 1):
            result, took = run_bench(name, seed, spec["run_seconds"], 0)
            ok &= result["correct"]
            durations.append(took)
            for metric, m in result["metrics"].items():
                per_metric.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: {took:.1f} s, correct={result['correct']}, "
                  + ", ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
        entry = {"run_durations_s": durations,
                 "metrics": {k: summary(v, bounds.get(k)) for k, v in per_metric.items()}}
        for metric, s in entry["metrics"].items():
            print(f"  {metric}: median {s['median']:.4g}, spread {s['spread']:.3%} "
                  f"(bound {s['bound']})")
        if args.trace_seed is not None:
            result, took = run_bench(name, args.trace_seed, spec["run_seconds"], 1)
            ok &= result["correct"]
            entry["traced"] = {"seed": args.trace_seed, "run_duration_s": took,
                               "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
        out["workloads"][name] = entry
    if args.roadmap:
        out["roadmap"] = roadmap_runs()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

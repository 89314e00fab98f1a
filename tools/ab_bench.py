"""A/B benchmark of two checkouts through perfbench/run.py.

usage, from anywhere:

    python3 tools/ab_bench.py --parent DIR --change DIR --workload NAME \
        [--pairs 10] [--seed 1001] --out BENCH.json

Each pair runs `python3 perfbench/run.py --workload NAME --seed S --seconds
R --trace 0` once in each checkout, with R the run_seconds of the change's
BENCHMARK.json and the same seed S (--seed, then one more per pair), the
order alternating from pair to pair so that the host's drift falls on both
sides alike. Before every run the checkout's __pycache__ directories are
deleted and PYTHONDONTWRITEBYTECODE=1 is set, so every process compiles its
sources as a fresh checkout does (setup_s would otherwise reward whichever
side happened to leave bytecode behind). Each run's perfbench/run.py comes
from its own checkout.

The result goes to --out (a JSON file; the workload's entry is replaced and
the others kept): the machine, the command, every run's metrics, and per
end-to-end metric of BENCHMARK.json the medians and quartiles of both sides,
the change's wins over the pairs (better is BENCHMARK.json's "better") and
the relative change of the median. A run that is not "correct" stops the
harness with exit 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

# The machine record of perfbench/baseline.py, imported without leaving
# bytecode in perfbench/.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from baseline import machine  # noqa: E402


def clear_pycache(root):
    for top, dirs, _ in os.walk(root):
        if ".git" in dirs:
            dirs.remove(".git")
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(top, "__pycache__"))
            dirs.remove("__pycache__")


def run_once(checkout, workload, seed, seconds):
    clear_pycache(checkout)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("correct"):
        sys.exit(f"{checkout}: {workload} seed {seed} is not correct "
                 f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs, metrics):
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     "parent": qp, "change": qc,
                     "change_wins": f"{wins}/{len(pairs)}",
                     "median_delta": (qc["median"] - qp["median"]) / qp["median"],
                     "parent_iqr": qp["q3"] - qp["q1"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1001)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, seconds)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} seed {seed}: wall_s parent "
              f"{pair['parent']['wall_s']:.3f} change {pair['change']['wall_s']:.3f}", flush=True)

    report = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
    report["machine"] = machine()
    report["command"] = (f"perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                         "--trace 0, alternating parent/change pairs, __pycache__ cleared "
                         "and PYTHONDONTWRITEBYTECODE=1 before every run")
    report.setdefault("workloads", {})[args.workload] = {
        "pairs": pairs, "summary": summarize(pairs, metrics)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, s in report["workloads"][args.workload]["summary"].items():
        print(f"{args.workload} {name}: {s['parent']['median']:.4g} -> {s['change']['median']:.4g} "
              f"{s['unit']} ({s['median_delta']:+.1%}, change wins {s['change_wins']}, "
              f"parent IQR {s['parent_iqr']:.3g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

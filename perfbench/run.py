"""quadclass benchmark: seeded workloads run through the quadclass CLI.

usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Every CLI invocation is a fresh `python3 -m quadclass.cli` process with the
checkout's src/ on PYTHONPATH, as users run it; the benchmark passes it only
the argv its seed generates. A workload is a fixed list of invocations (one
"pass"); passes run back to back, one client in a closed loop, for about
--seconds: a new pass starts only while more than half of the pass time
seen so far still fits before the deadline. Every report is checked against a reference, so a
wrong answer counts as a failure, not as a fast run:

  real-serial  each pass must reproduce the first pass byte for byte and
               write the same cache records; the real route has no
               independent oracle yet, so only the pinned digest below
               ties it to a known answer.
  imag-pool    the --jobs 2 report must equal the --jobs 1 report made in
               set-up; 50 sampled S- records are checked against the
               character-sum oracle forms.analytic_h_imaginary.
  warm-cache   each warm report must equal the report made while filling
               the cache in set-up, and must leave the cache file as it
               was; 50 S- records are checked against the oracle.
  queries      each pass must reproduce the first; h+, h, unit norm and r3
               must be consistent; the sieve count must equal the
               benchmark's own numpy count.

For --seed 0 at full scale the digest of one pass's reports must also equal
perfbench/pins.json. Independently recomputed set sizes (|S+|, |S-|, the
pair set) are checked against the cache files.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s (user + system of
the invocations and their pool workers, from os.wait4), disc_per_s,
peak_rss_mb (largest process of an invocation, from os.wait4) and setup_s
(fresh interpreter importing quadclass, median of several). wall_s and
cpu_s are the run's totals over its number of passes, and disc_per_s is
the results of all passes over their total wall time: the host's speed
drifts over tens of seconds, and the whole run's time tracks it more
steadily than the median of a few passes does. The per-pass median and a
tail percentile are printed beside them, and peak_rss_mb is the median
over passes. fail_frac is printed and is also failed / attempted in the
result line.

--trace 1 alternates untraced passes with passes run through
perfbench/traced_cli.py, which records spans around each layer, and runs
the forms probe; it reports the per-layer metrics and the trace overhead.
Spans are written to .bench_build/perfbench/ when the run ends.

--smoke runs every workload at a tiny size, for the smoke test.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every check passed,
1 when one failed and 2 when the checkout holds no program to run.
"""

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from typing import NamedTuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
PINS = os.path.join(HERE, "pins.json")
ENV = dict(os.environ, PYTHONPATH=SRC)
clock = time.perf_counter

DEFAULT_SEED = 0
RUN_BUDGET_S = 170  # every run must end within 180 s
SETUP_REPEATS = 9

# Sizes are chosen so that one run, set-up included, ends in about 30 s on a
# 2-core box, with several passes per run at --seconds 25.
SCALES = {
    "full": {"real_x": 40_000, "imag_x": 50_000, "warm_x": 40_000,
             "query_lo": 4 * 10**8, "query_hi": 5 * 10**8, "sieve_x": 10**8,
             "probe": 1000, "oracle": 50},
    "smoke": {"real_x": 2_000, "imag_x": 2_000, "warm_x": 2_000,
              "query_lo": 10**5, "query_hi": 2 * 10**5, "sieve_x": 10**5,
              "probe": 1000, "oracle": 50},
}
QUERIES = 8
SIEVE_K, SIEVE_L = 12, 5
SHIFTS = range(4, 44, 4)  # pair shifts t


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout("run budget exhausted")


# ----------------------------------------------------------------------
# independent arithmetic, used to check the program's answers
# ----------------------------------------------------------------------

def squarefree_flags(n):
    """flags[k] is True iff k is squarefree, for 0 <= k <= n."""
    import numpy as np
    flags = np.ones(n + 1, dtype=bool)
    flags[0] = False
    for p in range(2, math.isqrt(n) + 1):
        flags[p * p :: p * p] = False
    return flags


def is_squarefree(n):
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def is_fundamental(d):
    if d % 4 == 1:
        return is_squarefree(abs(d))
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and is_squarefree(abs(d // 4))


def squarefree_count_ap(x, k, l):
    """#{n <= x squarefree, n = l (mod k)} for 1 <= l <= k, gcd(k, l) = 1."""
    import numpy as np
    flags = np.ones((x - l) // k + 1, dtype=bool)  # flags[i] stands for l + k*i
    for p in range(2, math.isqrt(x) + 1):
        if k % p == 0 or not all(p % q for q in range(2, math.isqrt(p) + 1)):
            continue  # a prime dividing k never divides n, as gcd(k, l) = 1
        q = p * p
        flags[(-l * pow(k, -1, q)) % q :: q] = False
    return int(flags.sum())


def family_sets(x, t):
    """Discriminant sets of the family D = 1 (mod 4) that the CLI computes.

    s_plus: fundamental 1 < D <= x; pairs: those with D <= x plus the
    squarefree shifts D + t; s_minus: fundamental -x < D < 0.
    """
    sf = squarefree_flags(x + t)
    prog = range(1, x + 1, 4)
    s_plus = {d for d in prog if d != 1 and sf[d]}
    pairs = s_plus | {d + t for d in prog if sf[d + t]}
    s_minus = {-a for a in range(3, x, 4) if sf[a]}
    return s_plus, pairs, s_minus


def read_bytes(path):
    """File contents, or b"" when the program did not write the file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def read_cache(path):
    """Cache records D -> (h+, h, unit norm, r3); empty when there is no file."""
    rows = [tuple(int(v) for v in line.split(",")) for line in read_bytes(path).decode().split()]
    return {r[0]: r[1:] for r in rows}


# ----------------------------------------------------------------------
# running the CLI
# ----------------------------------------------------------------------

class Invocation(NamedTuple):
    code: int
    out: bytes
    err: bytes
    wall: float
    cpu: float  # user + system seconds, pool workers included
    rss_mb: float  # peak RSS of the largest process
    spans: list


def run_timed(cmd, stdout, stderr):
    """Run cmd in a session of its own; (exit code, wall seconds, rusage).

    os.wait4 blocks until the exit, so the wall time has no polling delay,
    and its rusage covers the process and every child it waited for.
    """
    start = clock()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=ENV, cwd=ROOT,
                            start_new_session=True)
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        os.waitpid(proc.pid, 0)
        proc.returncode = -1
        raise
    wall = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru


class Bench:
    """Runs invocations, counts checks, and keeps the spans of traced ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.spans = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL: {what}", file=sys.stderr)
        return ok

    def invoke(self, argv, trace_id=None):
        if trace_id is None:
            cmd = [sys.executable, "-m", "quadclass.cli", *argv]
        else:
            spans_path = os.path.join(WORK, f"spans-{trace_id}.jsonl")
            cmd = [sys.executable, TRACED_CLI, spans_path, trace_id, "--", *argv]
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            code, wall, ru = run_timed(cmd, out, err)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        spans = self._collect_spans(spans_path) if trace_id is not None else []
        self.spans.extend(spans)
        return Invocation(code, stdout, stderr, wall,
                          ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, spans)

    @staticmethod
    def _collect_spans(path):
        spans = []
        directory, base = os.path.split(path)
        for name in sorted(os.listdir(directory)):
            if name == base or name.startswith(base + "."):
                full = os.path.join(directory, name)
                with open(full, encoding="utf-8") as fh:
                    for i, line in enumerate(fh):
                        rec = json.loads(line)
                        rec["index"] = i if name == base else None  # parents index the main file
                        spans.append(rec)
                os.remove(full)
        return spans

    def run_cli(self, argv, expect=None, trace_id=None, what=None):
        """One checked invocation: exit code 0 and, if given, the expected report."""
        inv = self.invoke(argv, trace_id)
        label = what or " ".join(argv)
        if inv.code != 0:
            self.check(False, f"{label}: exit {inv.code}: {inv.err.decode(errors='replace')[-500:]}")
        elif expect is not None:
            self.check(inv.out == expect, f"{label}: report differs from its reference")
        else:
            self.check(True, label)
        return inv


def setup_seconds(bench):
    """Median wall time of a fresh interpreter importing quadclass."""
    probe = [sys.executable, "-c", "import quadclass, sys; sys.stdout.write(quadclass.__file__)"]
    warm = subprocess.run(probe, env=ENV, cwd=ROOT, capture_output=True, timeout=60)
    where = warm.stdout.decode(errors="replace")
    if warm.returncode != 0 or not where.startswith(SRC + os.sep):
        raise SystemExit(f"quadclass does not import from {SRC}: {where or warm.stderr[-300:]}")
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = run_timed([sys.executable, "-c", "import quadclass"],
                                  subprocess.DEVNULL, subprocess.DEVNULL)
        times.append(wall)
        bench.check(code == 0, "import quadclass")
    return statistics.median(times)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """One pass of invocations, their references and the probe inputs.

    refs[i] is the expected report of argvs[i]; None means the first pass
    sets it. count is the number of class-group results one pass delivers.
    """

    def __init__(self, argvs, count, refs=None, before_each=None, after_pass=None,
                 records=None, probe_ds=None, serial_class_infos_s=None):
        self.argvs = argvs
        self.count = count
        self.refs = refs if refs is not None else [None] * len(argvs)
        self.before_each = before_each  # called before every invocation
        self.after_pass = after_pass  # called with the reports of each pass
        self.records = records if records is not None else {}  # D -> (h+, h, unit norm, r3)
        self.probe_ds = probe_ds  # None: sample the probe from records
        self.serial_class_infos_s = serial_class_infos_s


def _seeded_x(rng, base):
    return base + rng.randrange(base // 100)  # X varies by 1%, so wall times stay comparable


def _oracle_check(bench, rng, records, n):
    from quadclass import forms
    negatives = sorted(d for d in records if d < 0)
    for d in rng.sample(negatives, min(n, len(negatives))):
        h = records[d][1]
        bench.check(forms.analytic_h_imaginary(d) == h,
                    f"D={d}: h={h} differs from the analytic class number")


def _cache_path(name):
    path = os.path.join(WORK, name)
    if os.path.exists(path):
        os.remove(path)
    return path


def real_serial(bench, rng, scale, trace):
    x, t = _seeded_x(rng, scale["real_x"]), rng.choice(SHIFTS)
    _, pairs, _ = family_sets(x, t)
    cache = os.path.join(WORK, "real-serial.cache")
    argv = ["pairs", "--x", str(x), "--m", "1", "--n", "4", "--t", str(t),
            "--jobs", "1", "--cache", cache]
    records, first = {}, []

    def after_pass(outputs):
        data = read_bytes(cache)
        first.append(data)
        bench.check(data == first[0], "real-serial: cache records differ between passes")
        records.clear()
        records.update(read_cache(cache))
        bench.check(set(records) == pairs,
                    f"real-serial: cache holds {len(records)} records, expected {len(pairs)}")

    return Workload([argv], len(pairs), before_each=lambda: _cache_path("real-serial.cache"),
                    after_pass=after_pass, records=records)


def imag_pool(bench, rng, scale, trace):
    x = _seeded_x(rng, scale["imag_x"])
    _, _, s_minus = family_sets(x, 0)
    cache = _cache_path("imag-pool.cache")
    base = ["imaginary", "--x", str(x), "--m", "1", "--n", "4"]
    ref = bench.run_cli(base + ["--jobs", "1", "--cache", cache],
                        trace_id="setup-jobs1" if trace else None)
    records = read_cache(cache)
    bench.check(set(records) == s_minus,
                f"imag-pool: cache holds {len(records)} records, expected {len(s_minus)}")
    _oracle_check(bench, rng, records, scale["oracle"])
    serial = sum(s["end"] - s["start"] for s in ref.spans
                 if s["name"] == "experiments.compute_class_infos")
    return Workload([base + ["--jobs", "2"]], len(s_minus), refs=[ref.out], records=records,
                    serial_class_infos_s=serial)


def warm_cache(bench, rng, scale, trace):
    x, t = _seeded_x(rng, scale["warm_x"]), rng.choice(SHIFTS)
    s_plus, pairs, s_minus = family_sets(x, t)
    cache = _cache_path("warm-cache.cache")
    fam = ["--x", str(x), "--m", "1", "--n", "4"]
    argvs = [["nh-average", *fam, "--cache", cache],
             ["indivisibility", *fam, "--cache", cache],
             ["pairs", *fam, "--t", str(t), "--cache", cache],
             ["imaginary", *fam, "--cache", cache]]
    # Fill the cache untimed; the reports made while filling are the references.
    refs = [bench.run_cli(a + ["--jobs", "2"], what=f"fill: {a[0]}").out for a in argvs]
    records = read_cache(cache)
    bench.check(set(records) == s_plus | pairs | s_minus,
                f"warm-cache: cache holds {len(records)} records, "
                f"expected {len(s_plus | pairs | s_minus)}")
    _oracle_check(bench, rng, records, scale["oracle"])
    filled = read_bytes(cache)

    def after_pass(outputs):
        bench.check(read_bytes(cache) == filled, "warm-cache: a warm run changed the cache file")

    return Workload(argvs, 2 * len(s_plus) + len(pairs) + len(s_minus), refs=refs,
                    after_pass=after_pass, records=records)


def queries(bench, rng, scale, trace):
    lo, hi = scale["query_lo"], scale["query_hi"]
    ds = []
    for sign in (1, -1):
        picked = 0
        while picked < QUERIES // 2:
            d = sign * rng.randrange(lo, hi)
            if is_fundamental(d) and d not in ds:
                ds.append(d)
                picked += 1
    x = scale["sieve_x"]
    expected_count = squarefree_count_ap(x, SIEVE_K, SIEVE_L)
    argvs = [["classgroup", "--d", str(d)] for d in ds]
    argvs.append(["sieve-count", "--x", str(x), "--k", str(SIEVE_K), "--l", str(SIEVE_L)])
    records = {}

    def after_pass(outputs):
        for d, out in zip(ds, outputs):
            try:
                header, row = out.decode().splitlines()
                got_d, hp, h, un, r3 = (int(v) for v in row.split(","))
            except ValueError:
                bench.check(False, f"classgroup {d}: unreadable report")
                continue
            ok = (header == "d,h_plus,h,unit_norm,r3" and got_d == d and h % 3**r3 == 0
                  and (hp == h and un == 0 if d < 0 else un in (1, -1) and hp == h * (3 + un) // 2))
            bench.check(ok, f"classgroup {d}: inconsistent invariants {row}")
            records[d] = (hp, h, un, r3)
        try:
            count = int(outputs[-1].decode().splitlines()[1].split(",")[3])
        except (ValueError, IndexError):
            count = None
        bench.check(count == expected_count,
                    f"sieve-count: count {count}, expected {expected_count}")

    return Workload(argvs, len(ds), after_pass=after_pass, records=records, probe_ds=ds)


WORKLOADS = {
    "real-serial": real_serial,
    "imag-pool": imag_pool,
    "warm-cache": warm_cache,
    "queries": queries,
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

class Pass:
    def __init__(self, invocations, traced):
        self.invocations = invocations
        self.traced = traced
        self.wall = sum(i.wall for i in invocations)
        self.cpu = sum(i.cpu for i in invocations)
        self.rss_mb = max(i.rss_mb for i in invocations)
        self.digest = hashlib.sha256(b"".join(i.out for i in invocations)).hexdigest()


def run_passes(bench, wl, seconds, trace):
    """Closed loop for about `seconds`; with trace, every other pass is traced.

    Another pass starts only if at least half of the mean pass time so far
    remains, so the measured time ends within half a pass of `seconds`.
    """
    passes = []
    start = clock()
    while True:
        traced = trace and len(passes) % 2 == 1
        invs = []
        for i, argv in enumerate(wl.argvs):
            if wl.before_each:
                wl.before_each()
            trace_id = f"p{len(passes)}i{i}" if traced else None
            inv = bench.run_cli(argv, expect=wl.refs[i], trace_id=trace_id)
            if wl.refs[i] is None and inv.code == 0:
                wl.refs[i] = inv.out
            invs.append(inv)
        if wl.after_pass:
            wl.after_pass([i.out for i in invs])
        passes.append(Pass(invs, traced))
        elapsed = clock() - start
        if seconds - elapsed < elapsed / len(passes) / 2 and (not trace or len(passes) >= 2):
            return passes


def tail(values):
    """(q, value) for the highest percentile q with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11  # index of the highest sample that has ten above it
    return round(100 * (k + 1) / n), sorted(values)[k]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, wl, setup_s):
    return {
        "wall_s": metric(sum(p.wall for p in passes) / len(passes), "s"),
        "cpu_s": metric(sum(p.cpu for p in passes) / len(passes), "s"),
        "disc_per_s": metric(wl.count * len(passes) / sum(p.wall for p in passes), "1/s"),
        "peak_rss_mb": metric(statistics.median(p.rss_mb for p in passes), "MB"),
        "setup_s": metric(setup_s, "s"),
    }


# ----------------------------------------------------------------------
# tracing: per-layer metrics
# ----------------------------------------------------------------------

COUNT_FIELDS = ("cells", "entries", "requested", "from_cache", "records", "bytes")


def _pass_layers(p, main_pids):
    """Busy seconds, call counts and span counts of one traced pass."""
    busy, calls, counts = defaultdict(float), defaultdict(int), defaultdict(int)
    self_s = cache_s = spf_main = 0.0
    run_s = 0.0
    for inv in p.invocations:
        main = [s for s in inv.spans if s["pid"] in main_pids]
        children = defaultdict(float)
        for s in main:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        for s in inv.spans:
            name, dur = s["name"], s["end"] - s["start"]
            busy[name] += dur
            calls[name] += 1
            for field in COUNT_FIELDS:
                counts[f"{name}.{field}"] += s.get(field, 0)
        for s in main:
            name, dur = s["name"], s["end"] - s["start"]
            parent = main[s["parent"]]["name"] if s["parent"] is not None else None
            if name.startswith("experiments.") and name != "experiments.compute_class_infos":
                self_s += dur - children[s["index"]]
            if name == "arith.smallest_prime_factors":
                spf_main += dur
            if name == "cli.run":
                run_s += dur
            # Cache handling: loads outside a store, stores, and the
            # classification of each loaded record, called from the CLI itself.
            if (name == "cli.cache_load" and parent != "cli.cache_store"
                    or name == "cli.cache_store"
                    or name == "arith.classify_discriminant" and parent == "cli.run"):
                cache_s += dur
    forms_s = busy["experiments.compute_class_infos"] - spf_main
    return {
        "arith.smallest_prime_factors.busy_s": (busy["arith.smallest_prime_factors"], "s"),
        "arith.smallest_prime_factors.entries": (counts["arith.smallest_prime_factors.entries"], "count"),
        "arith.sieve_squarefree.busy_s": (busy["arith.sieve_squarefree"], "s"),
        "arith.sieve_squarefree.cells": (counts["arith.sieve_squarefree.cells"], "count"),
        "arith.count_squarefree_in_ap.busy_s": (busy["arith.count_squarefree_in_ap"], "s"),
        "arith.classify_discriminant.calls": (calls["arith.classify_discriminant"], "count"),
        "arith.classify_discriminant.busy_s": (busy["arith.classify_discriminant"], "s"),
        "experiments.compute_class_infos.busy_s": (busy["experiments.compute_class_infos"], "s"),
        "experiments.compute_class_infos.requested":
            (counts["experiments.compute_class_infos.requested"], "count"),
        "experiments.compute_class_infos.computed":
            (counts["experiments.compute_class_infos.requested"]
             - counts["experiments.compute_class_infos.from_cache"], "count"),
        "experiments.compute_class_infos.from_cache":
            (counts["experiments.compute_class_infos.from_cache"], "count"),
        "experiments.self_s": (self_s, "s"),
        "cli.cache_load.busy_s": (busy["cli.cache_load"], "s"),
        "cli.cache_load.records": (counts["cli.cache_load.records"], "count"),
        "cli.cache_store.busy_s": (busy["cli.cache_store"], "s"),
        "cli.cache_store.bytes": (counts["cli.cache_store.bytes"], "count"),
        "cli.render_report.busy_s": (busy["cli.render_report"], "s"),
        "cli.cache.share": (cache_s / run_s if run_s else 0.0, "1"),
        "import.busy_s": (busy["import"], "s"),
        "forms.share": (forms_s / p.wall, "1"),
    }


def layer_metrics(passes, wl):
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    main_pids = {s["pid"] for p in traced for inv in p.invocations
                 for s in inv.spans if s["name"] == "cli.run"}
    per_pass = [_pass_layers(p, main_pids) for p in traced]
    out = {name: metric(statistics.median(pp[name][0] for pp in per_pass), unit)
           for name, (_, unit) in per_pass[0].items()}
    jobs2 = statistics.median(pp["experiments.compute_class_infos.busy_s"][0] for pp in per_pass)
    eff = wl.serial_class_infos_s / (2 * jobs2) if wl.serial_class_infos_s and jobs2 else 0.0
    out["experiments.pool_efficiency"] = metric(eff, "1")
    out["trace_overhead_s"] = metric(statistics.median(p.wall for p in traced)
                                     - statistics.median(p.wall for p in plain), "s")
    return out


def forms_probe(bench, wl, rng, size):
    """Time sampled discriminants through the public forms functions.

    The probe factors by trial division (no smallest-prime-factor table), so
    its timings describe the per-discriminant path, not the bulk one.
    """
    from quadclass import forms
    ds = wl.probe_ds
    if ds is None:
        pool = sorted(wl.records)
        ds = rng.sample(pool, min(size, len(pool)))
    cgi_us = []
    enum_s = torsion_s = unit_s = 0.0
    classes = rho_steps = 0
    for d in ds:
        t0 = clock()
        info = forms.class_group_info(d)
        t1 = clock()
        reps = forms.enumerate_classes(d)
        t2 = clock()
        tt = forms.three_torsion_count(d)
        t3 = clock()
        un = forms.unit_norm(d) if d > 0 else 0
        t4 = clock()
        cgi_us.append((t1 - t0) * 1e6)
        enum_s += t2 - t1
        torsion_s += t3 - t2
        unit_s += t4 - t3
        classes += len(reps)
        rho_steps += sum(r.cycle_length for r in reps)
        got = (info.h_plus, info.h, info.unit_norm, info.r3)
        bench.check(got == tuple(wl.records.get(d, ())) and tt == 3**info.r3
                    and un == info.unit_norm and len(reps) == info.h_plus,
                    f"forms probe D={d}: {got} differs from the survey record {wl.records.get(d)}")
    cgi_us.sort()
    return {
        "forms.probe_size": metric(len(ds), "count"),
        "forms.class_group_info.p50_us": metric(statistics.median(cgi_us), "us"),
        "forms.class_group_info.p99_us":
            metric(cgi_us[min(len(cgi_us) - 1, math.ceil(0.99 * len(cgi_us)) - 1)], "us"),
        "forms.enumerate_classes.busy_s": metric(enum_s, "s"),
        "forms.three_torsion_count.extra_s": metric(torsion_s - enum_s, "s"),
        "forms.unit_norm.busy_s": metric(unit_s, "s"),
        "forms.classes": metric(classes, "count"),
        "forms.rho_steps": metric(rho_steps, "count"),
    }


def write_spans(bench, workload, seed):
    path = os.path.join(WORK, f"trace-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for rec in bench.spans:
            fh.write(json.dumps(rec) + "\n")
    return path


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def report(passes, metrics, bench, digest):
    print(f"passes: {len(passes)}; digest of one pass: {digest}")
    for name, m in metrics.items():
        line = f"{name}: {m['value']:.6g} {m['unit']}"
        if name in ("wall_s", "cpu_s"):
            values = [p.wall if name == "wall_s" else p.cpu for p in passes]
            q = tail(values)
            line += f" (mean of n={len(values)}; median {statistics.median(values):.6g} s; "
            line += f"p{q[0]} {q[1]:.6g} s" if q else "no percentile has ten samples above it"
            line += "; passes " + " ".join(f"{v:.3f}" for v in values) + ")"
        print(line)
    print(f"fail_frac: {bench.failed / max(bench.attempted, 1):.6g} 1 "
          f"({bench.failed} of {bench.attempted} checks failed)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quadclass", "cli.py")):
        print(f"no quadclass sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_BUDGET_S)

    bench = Bench()
    rng = random.Random(f"{args.workload}/{args.seed}")
    scale = SCALES["smoke" if args.smoke else "full"]
    trace = bool(args.trace)
    try:
        setup_s = setup_seconds(bench)
        wl = WORKLOADS[args.workload](bench, rng, scale, trace)
        passes = run_passes(bench, wl, args.seconds, trace)
        digest = passes[0].digest
        if args.seed == DEFAULT_SEED and not args.smoke:
            with open(PINS, encoding="utf-8") as fh:
                pinned = json.load(fh).get(args.workload)
            bench.check(digest == pinned, f"{args.workload}: seed {args.seed} reports "
                                          f"digest {digest}, pinned {pinned}")
        if trace:
            metrics = layer_metrics(passes, wl)
            metrics.update(forms_probe(bench, wl, rng, scale["probe"]))
            print(f"spans: {write_spans(bench, args.workload, args.seed)}")
        else:
            metrics = end_to_end(passes, wl, setup_s)
    except Timeout as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        bench.check(False, "run finished within its budget")
        metrics = {}
    except Exception:  # report the failure in the result line, not only as a traceback
        traceback.print_exc()
        bench.check(False, "benchmark ran to completion")
        metrics = {}
    finally:
        signal.alarm(0)

    if metrics:
        report(passes, metrics, bench, digest)
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

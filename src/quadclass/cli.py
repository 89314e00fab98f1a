"""Command-line front end: one subcommand per experiment, csv/json output,
a line-oriented result cache, and a worker-pool size flag.

Exit codes: 0 success; 2 invalid family or flag values (verdict printed);
3 domain error (e.g. a square discriminant); 4 cache corruption.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from . import arith, experiments, families, forms

__all__ = [
    "CacheCorruption",
    "CacheRecord",
    "cache_load",
    "cache_store",
    "main",
    "render_classgroup",
    "render_report",
    "render_sieve_count",
    "run",
]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DOMAIN = 3
EXIT_CACHE = 4

# Guards against composition intermediates outgrowing the desk-scale design.
MAX_X = 1 << 48

CSV_COLUMNS = (
    "checkpoint_x",
    "count_S",
    "count_S_plus",
    "count_L",
    "count_Lt",
    "count_intersection",
    "ratio_L",
    "ratio_Lt",
    "ratio_intersection",
    "nh_average",
    "target_bound",
)

CERT_COLUMNS = ("certificate_d", "t", "legendre_d", "legendre_dt", "h_d_mod3", "h_dt_mod3")


class CacheCorruption(Exception):
    """Malformed cache file, invariant violation, or conflicting records."""


class CacheRecord(NamedTuple):
    D: int
    h_plus: int
    h: int
    unit_norm: int  # 0 means not applicable (imaginary)
    r3: int


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _jsonval(v):
    if isinstance(v, float):
        return round(v, 6)
    return v


def _report_rows(report):
    rows = []
    for cp in report.checkpoints:
        rows.append({
            "checkpoint_x": cp.x,
            "count_S": cp.sets.S,
            "count_S_plus": cp.sets.S_plus,
            "count_L": cp.sets.L,
            "count_Lt": cp.sets.L_t,
            "count_intersection": cp.sets.L_cap_Lt,
            "ratio_L": cp.ratio_L,
            "ratio_Lt": cp.ratio_Lt,
            "ratio_intersection": cp.ratio_intersection,
            "nh_average": cp.nh_average,
            "target_bound": report.target_bound,
        })
    return rows


def render_report(report, fmt: str = "csv", certificates=None) -> str:
    """Byte-deterministic rendering; ratios carry 6 decimal digits."""
    rows = _report_rows(report)
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_cell(r[c]) for c in CSV_COLUMNS) for r in rows]
        if certificates is not None:
            lines.append(",".join(CERT_COLUMNS))
            lines += [f"{c.D.value},{c.t},{c.legendre_D},{c.legendre_Dt},{c.h_D_mod3},{c.h_Dt_mod3}"
                      for c in certificates]
        return "\n".join(lines) + "\n"
    if fmt != "json":
        raise ValueError(f"unknown format {fmt!r}")
    payload = {
        "experiment": report.experiment,
        "family": {"m": report.family.m, "N": report.family.N,
                   "t": report.family.t, "level": report.family.level},
        "denominator": report.denominator,
        "target_bounds": {k: _jsonval(v) for k, v in report.target_bounds.items()},
        "checkpoints": [{c: _jsonval(r[c]) for c in CSV_COLUMNS} for r in rows],
    }
    if certificates is not None:
        payload["certificates"] = [{
            "certificate_d": c.D.value, "t": c.t,
            "legendre_d": c.legendre_D, "legendre_dt": c.legendre_Dt,
            "h_d_mod3": c.h_D_mod3, "h_dt_mod3": c.h_Dt_mod3,
            "verdict": c.verdict,
        } for c in certificates]
    return json.dumps(payload, indent=2) + "\n"


def render_classgroup(info: forms.ClassGroupInfo, fmt: str = "csv") -> str:
    if fmt == "csv":
        return ("d,h_plus,h,unit_norm,r3\n"
                f"{info.D.value},{info.h_plus},{info.h},{info.unit_norm},{info.r3}\n")
    return json.dumps({
        "d": info.D.value, "h_plus": info.h_plus, "h": info.h,
        "unit_norm": info.unit_norm, "three_torsion_count": info.three_torsion_count,
        "r3": info.r3,
    }, indent=2) + "\n"


def render_sieve_count(res: arith.SquarefreeAPCount, fmt: str = "csv") -> str:
    if fmt == "csv":
        return ("x,k,l,count,main_term,relative_error\n"
                f"{res.x},{res.k},{res.l},{res.count},{res.main_term:.6f},{res.relative_error:.6f}\n")
    return json.dumps({
        "x": res.x, "k": res.k, "l": res.l, "count": res.count,
        "main_term": _jsonval(res.main_term), "relative_error": _jsonval(res.relative_error),
    }, indent=2) + "\n"


# ----------------------------------------------------------------------
# cache file: one `D,h_plus,h,unit_norm,r3` line per discriminant
# ----------------------------------------------------------------------

def _validate_record(rec: CacheRecord) -> None:
    if rec.D == 0 or rec.h_plus < 1 or rec.h < 1 or rec.r3 < 0:
        raise CacheCorruption(f"impossible record {rec}")
    if rec.unit_norm not in (-1, 0, 1):
        raise CacheCorruption(f"unit_norm outside {{-1, 0, 1}} in {rec}")
    if 3**rec.r3 > rec.h_plus:
        raise CacheCorruption(f"3^r3 exceeds h_plus in {rec}")
    if rec.D < 0:
        if rec.unit_norm != 0 or rec.h != rec.h_plus:
            raise CacheCorruption(f"imaginary record inconsistent: {rec}")
    else:
        if rec.unit_norm == 0 or rec.h_plus != rec.h * (2 if rec.unit_norm == 1 else 1):
            raise CacheCorruption(f"real record inconsistent: {rec}")


def cache_load(path: str) -> dict[int, CacheRecord]:
    """Load and validate a cache file; sorted ascending by D, no duplicates."""
    records: dict[int, CacheRecord] = {}
    prev = None
    with open(path, encoding="ascii", newline="") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw[:-1] if raw.endswith("\n") else raw
            parts = line.split(",")
            if len(parts) != 5:
                raise CacheCorruption(f"{path}:{lineno}: expected 5 fields")
            try:
                rec = CacheRecord(*(int(p) for p in parts))
            except ValueError as exc:
                raise CacheCorruption(f"{path}:{lineno}: {exc}") from None
            if ",".join(str(v) for v in rec) != line:
                raise CacheCorruption(f"{path}:{lineno}: non-canonical formatting")
            _validate_record(rec)
            if prev is not None and rec.D <= prev:
                raise CacheCorruption(f"{path}:{lineno}: records not strictly ascending")
            prev = rec.D
            records[rec.D] = rec
    return records


def cache_store(path: str, records) -> None:
    """Merge records into the cache file; conflicting duplicates are corruption.
    The file is replaced by a rename, so a failed write leaves the old one."""
    merged = cache_load(path) if os.path.exists(path) else {}
    for rec in records:
        old = merged.get(rec.D)
        if old is not None and old != rec:
            raise CacheCorruption(f"conflicting records for D={rec.D}: {old} vs {rec}")
        merged[rec.D] = rec
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            for d in sorted(merged):
                fh.write(",".join(str(v) for v in merged[d]) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _record_of(info: forms.ClassGroupInfo) -> CacheRecord:
    return CacheRecord(info.D.value, info.h_plus, info.h, info.unit_norm, info.r3)


def _info_of(rec: CacheRecord) -> forms.ClassGroupInfo:
    try:
        disc = arith.classify_discriminant(rec.D)
    except arith.NotFundamental as exc:
        raise CacheCorruption(f"cached D={rec.D} is not a fundamental discriminant") from exc
    return forms.ClassGroupInfo(disc, rec.h_plus, rec.h, rec.unit_norm, 3**rec.r3, rec.r3)


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

def _parse_checkpoints(text):
    try:
        return [int(p) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad checkpoint list {text!r}")


_EXPERIMENTS = {
    # command -> (runner, required family level)
    "nh-average": (experiments.nh_average, families.LEVEL_NH),
    "indivisibility": (experiments.indivisibility_density, families.LEVEL_NH),
    "pairs": (experiments.pair_experiment, families.LEVEL_THEOREM),
    "lambda": (experiments.lambda_survey, families.LEVEL_LAMBDA),
    "imaginary": (experiments.imaginary_density, families.LEVEL_NH),
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--jobs", type=int, default=1, help="worker processes (>= 1)")
    common.add_argument("--cache", default=None, help="path of the discriminant cache file")
    common.add_argument("--progress", action="store_true", help="progress on stderr")

    parser = argparse.ArgumentParser(
        prog="quadclass",
        description="Class groups of quadratic fields and 3-indivisibility density experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", parents=[common], help="invariants of one discriminant")
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("sieve-count", parents=[common],
                       help="squarefree count in an arithmetic progression vs. its main term")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    for name in _EXPERIMENTS:
        p = sub.add_parser(name, parents=[common], help=f"{name} experiment")
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, default=0)
        p.add_argument("--checkpoints", type=_parse_checkpoints, default=None)
    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except CacheCorruption as exc:
        print(f"cache corruption: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except arith.NotFundamental as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _dispatch(args) -> int:
    if args.jobs < 1:
        print("invalid arguments: --jobs must be >= 1", file=sys.stderr)
        return EXIT_INVALID

    if args.command == "classgroup":
        if abs(args.d) > MAX_X:
            print("invalid arguments: |d| must be <= 2^48", file=sys.stderr)
            return EXIT_INVALID
        info = forms.class_group_info(args.d)
        sys.stdout.write(render_classgroup(info, args.format))
        return EXIT_OK

    if args.command == "sieve-count":
        if args.x > MAX_X:
            print("invalid arguments: --x must be <= 2^48", file=sys.stderr)
            return EXIT_INVALID
        res = arith.count_squarefree_in_ap(args.x, args.k, args.l)
        sys.stdout.write(render_sieve_count(res, args.format))
        return EXIT_OK

    runner, level = _EXPERIMENTS[args.command]
    if args.x > MAX_X:
        print("invalid arguments: --x must be <= 2^48", file=sys.stderr)
        return EXIT_INVALID
    verdict = families.validate(args.m, args.n, args.t, level)
    if isinstance(verdict, families.FamilyRejection):
        print(str(verdict), file=sys.stderr)
        return EXIT_INVALID
    family = verdict

    cache_infos: dict = {}
    if args.cache and os.path.exists(args.cache):
        cache_infos = {d: _info_of(rec) for d, rec in cache_load(args.cache).items()}

    certificates = None
    if args.command == "lambda":
        certificates, report = runner(args.x, family, args.checkpoints, jobs=args.jobs,
                                      cache=cache_infos, progress=args.progress)
    else:
        report = runner(args.x, family, args.checkpoints, jobs=args.jobs,
                        cache=cache_infos, progress=args.progress)

    if args.cache:
        cache_store(args.cache, (_record_of(i) for i in cache_infos.values()))
    sys.stdout.write(render_report(report, args.format, certificates))
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

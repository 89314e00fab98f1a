"""Command-line front end: one subcommand per experiment, csv/json output,
a line-oriented result cache, and a worker-pool size flag.

A process loads only what its subcommand runs: a query loads no numpy,
and numpy is loaded only by a survey that computes some discriminant. A
survey whose discriminants are all cached loads neither numpy nor the batch,
nor the forms unless it builds lambda's certificates: the cache is parsed
by json and checked column by column in plain Python: one match finds the
cache file's first bad line, each parsed chunk is checked from the lists
json returns, and the squarefree sieve of the cache check serves the
survey's own scan. json is imported only to read a cache or to render
``--format json``. ``run`` sets OPENBLAS_NUM_THREADS to 1 unless the user
chose a value: quadclass calls no BLAS routine, and numpy's OpenBLAS would
otherwise start a worker thread that spends CPU in every process that
computes.

Exit codes: 0 success; 2 invalid family or flag values (verdict printed),
or a survey past experiments.survey_limit, refused before it allocates;
3 domain error (e.g. a square discriminant); 4 cache corruption, naming
the first bad line (a malformed or invalid record, or a D that is not a
fundamental discriminant), or a cache file that cannot be read or written
(a directory, or one in a missing directory, is refused before a survey
starts; the file is written only after it); 5 an invariant recheck failed
(``invariant violated: ...``, naming D or x).
"""

from __future__ import annotations

import argparse
import operator
import os
import re
import sys
from array import array
from bisect import bisect_left
from itertools import islice, repeat
from typing import TYPE_CHECKING, NamedTuple

from . import arith

if TYPE_CHECKING:
    from . import experiments, forms

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
EXIT_INVARIANT = 5

# The largest |d| of classgroup and x of sieve-count; each survey is bounded
# by experiments.survey_limit instead.
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
    import json

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
    import json

    return json.dumps({
        "d": info.D.value, "h_plus": info.h_plus, "h": info.h,
        "unit_norm": info.unit_norm, "three_torsion_count": info.three_torsion_count,
        "r3": info.r3,
    }, indent=2) + "\n"


def render_sieve_count(res: arith.SquarefreeAPCount, fmt: str = "csv") -> str:
    if fmt == "csv":
        return ("x,k,l,count,main_term,relative_error\n"
                f"{res.x},{res.k},{res.l},{res.count},{res.main_term:.6f},{res.relative_error:.6f}\n")
    import json

    return json.dumps({
        "x": res.x, "k": res.k, "l": res.l, "count": res.count,
        "main_term": _jsonval(res.main_term), "relative_error": _jsonval(res.relative_error),
    }, indent=2) + "\n"


# ----------------------------------------------------------------------
# cache file: one `D,h_plus,h,unit_norm,r3` line per discriminant
# ----------------------------------------------------------------------

# A canonical field is what str() makes of an int: "0", or an optional "-"
# and a nonzero digit, then more digits. At most 19 digits, so that it can
# fit in int64; the parse refuses a 19-digit field beyond int64.
_FIELD = rb"(?:0|-?[1-9][0-9]{0,18}+)"
# The good lines that open a file, each ended by LF or by the end of the
# file, in one match: the possessive repeat never backtracks into a line it
# has taken, so the match ends where the first bad line starts, and it keeps
# no backtracking state per line, where a greedy repeat keeps about 1 KB.
# Possessive repeats need Python 3.11, the floor of pyproject.toml.
_GOOD_LINES = re.compile(rb"(?:%s(?:\n|\Z))*+" % b",".join([_FIELD] * 5))
_INT64 = range(-(1 << 63), 1 << 63)
# Bytes of record lines parsed and checked at once, which bounds the Python
# ints alive during a load to about 10 MB.
_CHUNK = 1 << 20
_POW3 = [3**k for k in range(40)]  # 3^39 < 2^63 - 1 < 3^40


def _record_checks():
    """(check, message) per invariant of a record, in the order a record's
    first fault is reported. check(d, h_plus, h, unit_norm, r3) is whether
    every record of those nonempty lists of ints keeps the invariant, given
    that they keep the ones before it and that D ascends; each is a few
    passes of C-level builtins. A message is formatted with the record as
    rec and its sign as kind."""
    from .experiments import _fundamental, survey_limit

    # No run computes a |D| past the survey limit of its sign, so no run
    # stores one; the fundamental check, after this one, sieves within it.
    limits = range(-survey_limit(negative=True), survey_limit() + 1)

    def consistent(d, h_plus, h, unit_norm, r3):
        # unit_norm is 0 exactly for the D < 0, which come first, and h_plus
        # is 2h for unit norm 1, else h.
        k = bisect_left(d, 0)
        return (not any(unit_norm[:k]) and h_plus[:k] == h[:k] and 0 not in unit_norm[k:]
                and list(map(operator.mul, h[k:], map((1, 2, 1).__getitem__, unit_norm[k:])))
                == h_plus[k:])

    return [
        (lambda d, h_plus, h, unit_norm, r3:
         0 not in d and min(h_plus) >= 1 and min(h) >= 1 and min(r3) >= 0,
         "impossible record {rec}"),
        (lambda d, *_: min(d) in limits and max(d) in limits,
         "|D| exceeds the survey limit in {rec}"),
        (lambda d, h_plus, h, unit_norm, r3: min(unit_norm) >= -1 and max(unit_norm) <= 1,
         "unit_norm outside {{-1, 0, 1}} in {rec}"),
        # 3 does not divide h exactly when r3 = 0, so a survey may read either.
        # 3^39 < 2^63 - 1 < 3^40, so 3^r3 with r3 > 39 divides no int64 h.
        (lambda d, h_plus, h, unit_norm, r3:
         max(r3) <= 39 and not any(map(operator.mod, h, map(_POW3.__getitem__, r3))),
         "3^r3 does not divide h in {rec}"),
        (lambda d, h_plus, h, unit_norm, r3:
         all(map(operator.or_, r3, map(operator.mod, h, repeat(3)))),
         "r3 = 0 with 3 dividing h in {rec}"),
        (consistent, "{kind} record inconsistent: {rec}"),
        (lambda d, *_: all(_fundamental(d)), "cached D={rec.D} is not a fundamental discriminant"),
    ]


def _first_fault(part, before, checks):
    """(index, message) of the first record of part, five nonempty lists of
    ints, that breaks one of the checks of _record_checks or the ascending
    order of D after D = before (None at the first record), or None. The
    first bad record is looked for only when the whole part fails."""
    def clean(part):
        d = part[0] if before is None else [before, *part[0]]
        return (all(check(*part) for check, _ in checks)
                and all(map(operator.lt, d, islice(d, 1, None))))

    if clean(part):
        return None
    # Every prefix of a clean prefix is clean.
    i = bisect_left(range(len(part[0])), True, key=lambda k: not clean([c[: k + 1] for c in part]))
    rec = CacheRecord(*(c[i] for c in part))
    kind = "imaginary" if rec.D < 0 else "real"
    return i, next((message.format(rec=rec, kind=kind) for check, message in checks
                    if not check(*([v] for v in rec))), "records not strictly ascending")


def _parse_columns(data: bytes, end: int):
    """The five int64 array('q') columns of the canonical record lines
    data[:end], parsed by json a chunk of lines at a time, and (index,
    message) of the first record that _first_fault refuses, or None; after a
    refused record the columns stop at the end of its chunk. OverflowError
    when a field does not fit in int64."""
    import json

    checks = _record_checks()
    columns = [array("q") for _ in range(5)]
    start, before = 0, None
    while start < end:
        stop = data.find(b"\n", start + _CHUNK, end) + 1 or end
        fields = json.loads(b"[%s]" % data[start:stop].rstrip(b"\n").replace(b"\n", b","))
        part = [fields[j::5] for j in range(5)]
        del fields  # 4 MB of peak RSS at 202,635 records
        for column, values in zip(columns, part):
            column.extend(array("q", values))  # sized once, unlike an extend by the list
        fault = _first_fault(part, before, checks)
        if fault is not None:
            return columns, (len(columns[0]) - len(part[0]) + fault[0], fault[1])
        start, before = stop, part[0][-1]
    return columns, None


def _format_fault(line: bytes) -> str:
    """Why a line that is not five canonical int64 fields is refused."""
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError:
        return "non-ASCII byte"
    parts = text.split(",")
    if len(parts) != 5:
        return "expected 5 fields"
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        return str(exc)
    if ",".join(map(str, values)) != text:
        return "non-canonical formatting"
    return "field outside the int64 range"


def cache_load(path: str) -> experiments.ClassTable:
    """Load and validate a cache file; sorted ascending by D, no duplicates.

    The file is read once. One match of the good lines that open it finds
    the first line that is not five canonical integers, and the lines before
    it are parsed by json a chunk at a time into five int64 columns. Each
    chunk is checked from json's lists, column by column: the record
    invariants, that every D is a fundamental discriminant and the ascending
    order; only in a chunk that fails is the first bad record looked for.
    The columns become those of the experiments.ClassTable the surveys read.
    No numpy is loaded. CacheCorruption names path:lineno of the first bad
    line.
    """
    from . import experiments

    with open(path, "rb") as fh:
        data = fh.read()
    # The end of the file, or of the last good line before a bad one.
    end = _GOOD_LINES.match(data).end()
    try:
        columns, fault = _parse_columns(data, end)
    except OverflowError:  # a 19-digit field beyond int64; the lines before it stand
        fields = re.compile(rb"-?[0-9]{19}").finditer(data, 0, end)
        field = next(f for f in fields if int(f[0]) not in _INT64)
        end = data.rfind(b"\n", 0, field.start()) + 1
        columns, fault = _parse_columns(data, end)
    if fault is not None:
        raise CacheCorruption(f"{path}:{fault[0] + 1}: {fault[1]}")
    if end < len(data):
        why = _format_fault(data[end:].split(b"\n", 1)[0])
        raise CacheCorruption(f"{path}:{len(columns[0]) + 1}: {why}")
    return experiments.ClassTable(columns)


def cache_store(path: str, records) -> None:
    """Merge records, (D, h_plus, h, unit_norm, r3) sequences, into the cache
    file; conflicting duplicates are corruption.
    The file is re-read first, so records another run stored meanwhile are
    kept, and is replaced by a rename, so a failed write leaves the old one."""
    stored = zip(*cache_load(path).columns) if os.path.exists(path) else ()
    merged = {r[0]: tuple(r) for r in stored}
    for rec in map(tuple, records):
        old = merged.setdefault(rec[0], rec)
        if old != rec:
            raise CacheCorruption(f"conflicting records for D={rec[0]}: "
                                  f"{CacheRecord(*old)} vs {CacheRecord(*rec)}")
    tmp = _temp_path(path)
    try:
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            fh.writelines("{},{},{},{},{}\n".format(*merged[d]) for d in sorted(merged))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _temp_path(path: str) -> str:
    """The file beside path that cache_store writes before renaming it."""
    return f"{path}.{os.getpid()}.tmp"


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

def _parse_checkpoints(text):
    try:
        return [int(p) for p in text.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad checkpoint list {text!r}")


def _survey(name):
    """The runner experiments.<name>, which imports experiments when it is
    called: a classgroup or sieve-count process never loads it."""
    def runner(*args, **kwargs):
        from . import experiments

        return getattr(experiments, name)(*args, **kwargs)

    return runner


_EXPERIMENTS = {
    # command -> (runner, required family level, one of families.LEVELS)
    "nh-average": (_survey("nh_average"), "nh"),
    "indivisibility": (_survey("indivisibility_density"), "nh"),
    "pairs": (_survey("pair_experiment"), "theorem"),
    "lambda": (_survey("lambda_survey"), "lambda"),
    "imaginary": (_survey("imaginary_density"), "nh"),
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--jobs", type=int, default=1,
                        help="worker processes for D > 0 (>= 1); D < 0 is computed in one")
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
    # Before any survey imports numpy; see the module docstring.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
    except (AssertionError, RuntimeError) as exc:
        from concurrent.futures import BrokenExecutor

        if isinstance(exc, BrokenExecutor):
            raise  # a worker process died; no invariant was checked
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def _dispatch(args) -> int:
    if args.jobs < 1:
        print("invalid arguments: --jobs must be >= 1", file=sys.stderr)
        return EXIT_INVALID

    if args.command == "classgroup":
        if abs(args.d) > MAX_X:
            print("invalid arguments: |d| must be <= 2^48", file=sys.stderr)
            return EXIT_INVALID
        from . import forms

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

    from . import experiments, families

    runner, level = _EXPERIMENTS[args.command]
    verdict = families.validate(args.m, args.n, args.t, level)
    if isinstance(verdict, families.FamilyRejection):
        print(str(verdict), file=sys.stderr)
        return EXIT_INVALID
    family = verdict

    table = experiments.ClassTable()
    fresh = bool(args.cache) and not os.path.exists(args.cache)
    try:
        if fresh:  # refused before the survey if cache_store could not write it
            open(_temp_path(args.cache), "wb").close()
            os.remove(_temp_path(args.cache))
        elif args.cache:
            table = cache_load(args.cache)
    except OSError as exc:
        return _cache_error(args.cache, exc)
    loaded = len(table)

    result = runner(args.x, family, args.checkpoints, jobs=args.jobs, cache=table,
                    progress=args.progress)
    certificates, report = result if args.command == "lambda" else (None, result)

    # A run that computed nothing leaves an existing cache file untouched.
    if args.cache and (fresh or len(table) > loaded):
        try:
            cache_store(args.cache, zip(*table.columns))
        except OSError as exc:
            return _cache_error(args.cache, exc)
    sys.stdout.write(render_report(report, args.format, certificates))
    return EXIT_OK


def _cache_error(path, exc: OSError) -> int:
    print(f"cache error: cannot use {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_CACHE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

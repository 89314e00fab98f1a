"""Desk-scale density experiments over congruence families of discriminants.

Each experiment walks an arithmetic progression D = m (mod N), computes
exact class data for the qualifying fundamental discriminants, and reports
checkpointed counts and ratios against the classical target constants:

* ``nh_average``            average of 3^r3 over S+; limit 4/3 (Nakagawa-Horie).
* ``indivisibility_density`` fraction of S+ with 3 not dividing h; liminf >= 5/6.
* ``pair_experiment``       densities of L, L_t and their intersection inside
                            the progression; liminf bounds 5/pi^2 and
                            (10 - pi^2)/pi^2.
* ``lambda_survey``         certificates that lambda_3 vanishes for both
                            Q(sqrt(D)) and Q(sqrt(D+t)) (Iwasawa's criterion:
                            3 inert and 3 not dividing h).
* ``imaginary_density``     fraction of S- with 3 not dividing h; liminf >= 1/2.

Set conventions follow the definitions the constants come from: S and the
L-sets count D <= X inside the progression, while S+ and S- count
fundamental discriminants with |D| strictly below X. Each report names the
denominator its ratios use.

The class data of D > 0 fans out to a process pool (``jobs``); that of
D < 0 is one count over all of them, in the calling process whatever
``jobs`` is. Aggregation sorts by discriminant, so reports are
byte-identical for any worker count. An optional ``cache``, a ClassTable,
is consulted before computing and extended in place.

Class data comes from the numpy batch alone, and a survey past
survey_limit is refused before it allocates anything. numpy, the batch and
the forms are imported only when a discriminant is computed (_core_rows),
and the forms also where a ClassGroupInfo is built, as for lambda's
certificates. Everything else, the progression scan, the class table and
the aggregation, is plain Python over lists of ints and int64 array('q')
columns, so a survey answered from its cache loads no numpy. The CLI
starts numpy's OpenBLAS with one thread, since nothing here calls BLAS;
this module leaves the environment alone, so a Python caller may set
OPENBLAS_NUM_THREADS=1 itself before numpy is first imported.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from contextlib import ExitStack
from itertools import chain, compress, count, filterfalse, islice, repeat
from operator import and_, not_, or_
from typing import Iterator, NamedTuple

from .arith import (DEFAULT_MAX_CELLS, Discriminant, _largest_n, _squarefree_cells,
                    divisor_table_bytes, is_fundamental_discriminant, kronecker, mobius)
# perfbench/traced_cli.py wraps these names.
from .arith import sieve_squarefree, smallest_prime_factors  # noqa: F401
from .families import LEVEL_LAMBDA, LEVEL_NH, LEVEL_THEOREM, LEVELS, CongruenceFamily

# numpy is imported where a discriminant is computed: in _core_rows, and in
# the ClassTable methods that only a computing run or a reader of .rows
# reaches.

__all__ = [
    "ClassTable",
    "DensityReport",
    "DiscriminantSets",
    "Lambda3Certificate",
    "TARGET_IMAGINARY_INDIVISIBLE",
    "TARGET_INDIVISIBLE",
    "TARGET_NH_AVERAGE",
    "TARGET_PAIR_INTERSECTION",
    "TARGET_SET_DENSITY",
    "compute_class_infos",
    "enumerate_s_plus",
    "imaginary_density",
    "indivisibility_density",
    "lambda_survey",
    "nh_average",
    "pair_experiment",
    "survey_limit",
]

TARGET_NH_AVERAGE = 4.0 / 3.0
TARGET_INDIVISIBLE = 5.0 / 6.0
TARGET_SET_DENSITY = 5.0 / math.pi**2
TARGET_PAIR_INTERSECTION = (10.0 - math.pi**2) / math.pi**2
TARGET_IMAGINARY_INDIVISIBLE = 0.5

LAMBDA3_VERDICT = "lambda3(Q(sqrt(D))) = lambda3(Q(sqrt(D+t))) = 0"

_PAIR_BOUNDS = {"ratio_L": TARGET_SET_DENSITY,
                "ratio_Lt": TARGET_SET_DENSITY,
                "ratio_intersection": TARGET_PAIR_INTERSECTION}

# A run computes the class data of D > 0 over one divisor table of every n
# up to about D/4. survey_limit turns this cap on its size (128 MiB) into the
# largest D > 0 that a run accepts. D < 0 needs no table, but keeps the limit
# a table of every n up to about |D|/3 would give (6,402,243) until a limit
# is derived from the count's own time and memory.
_TABLE_CAP_BYTES = 1 << 27
# survey_limit of each cap, seeded with the limits that _limits derives at
# 128 MiB (tests derive them again), so that a run at the default cap does
# not spend the 3-6 ms of that search.
_SURVEY_LIMITS = {1 << 27: (8_533_837, 6_402_243)}


# ----------------------------------------------------------------------
# report data types
# ----------------------------------------------------------------------

# NamedTuples, not dataclasses, so that a survey does not import dataclasses
# and the inspect and ast modules it pulls in. A type whose values are
# checked subclasses its fields' NamedTuple and checks them in __new__.

class _Sets(NamedTuple):
    x: int
    family: CongruenceFamily
    S: int
    S_plus: int
    L: int | None = None
    L_t: int | None = None
    L_cap_Lt: int | None = None


class DiscriminantSets(_Sets):
    """Counts of the progression sets at one checkpoint."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.S_plus > self.S or self.S_plus < 0:
            raise AssertionError(f"set counts inconsistent at x={self.x}")
        if self.L is not None and self.L_t is not None:
            low = min(self.L, self.L_t)
            if not (0 <= (self.L_cap_Lt or 0) <= low <= self.S_plus):
                raise AssertionError(f"set chain violated at x={self.x}")
        return self


class Checkpoint(NamedTuple):
    x: int
    sets: DiscriminantSets
    ratio_L: float | None = None
    ratio_Lt: float | None = None
    ratio_intersection: float | None = None
    nh_average: float | None = None
    lemma_lhs: float | None = None  # 2 * #{r3 = 0} / |S+|
    lemma_rhs: float | None = None  # 3 - running average of 3^r3
    no_data: bool = False


class _Report(NamedTuple):
    experiment: str
    family: CongruenceFamily
    denominator: str  # "S", "S_plus", or "S_minus"
    target_bound: float
    target_bounds: dict
    checkpoints: list


class DensityReport(_Report):
    """Checkpointed counts and ratios, with the target constant attached."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        xs = [c.x for c in self.checkpoints]
        if xs != sorted(set(xs)):
            raise AssertionError("checkpoints must be strictly increasing")
        for c in self.checkpoints:
            for r in (c.ratio_L, c.ratio_Lt, c.ratio_intersection):
                if r is not None and not 0.0 <= r <= 1.0:
                    raise AssertionError(f"ratio {r} outside [0, 1] at x={c.x}")
            if c.nh_average is not None and c.nh_average < 1.0:
                raise AssertionError(f"average of 3^r3 below 1 at x={c.x}")
        return self


class Lambda3Certificate(NamedTuple):
    """Witness that 3 is inert and 3 does not divide h for D and D + t.

    All four constraint fields are recomputed from scratch at emission time;
    the verdict then follows from Iwasawa's criterion and is never computed
    directly.
    """

    D: Discriminant
    t: int
    legendre_D: int
    legendre_Dt: int
    h_D_mod3: int
    h_Dt_mod3: int
    verdict: str = LAMBDA3_VERDICT


# ----------------------------------------------------------------------
# bulk class-group computation
# ----------------------------------------------------------------------

def _limits(cap):
    """survey_limit of D > 0 and of D < 0 for a table cap of cap bytes."""
    # The largest table limit within cap: the bytes grow with the limit.
    top = bisect_left(range(cap // 4 + 1), True, key=lambda n: divisor_table_bytes(n) > cap) - 1
    limits = []
    # _largest_n is at most D/4 for D > 0 and |D|/3 for D < 0, so every |D|
    # up to 4 top, or 3 top, fits: the first fundamental |D| that misses is
    # searched for from there, and the limit is the one before it.
    for sign, start in ((1, 4 * top), (-1, 3 * top)):
        miss = next(m for m in count(start)
                    if _largest_n(sign * m) > top and is_fundamental_discriminant(sign * m))
        limits.append(next(m for m in range(miss - 1, 0, -1)
                           if is_fundamental_discriminant(sign * m)))
    return tuple(limits)


def survey_limit(negative: bool = False) -> int:
    """The largest |D| of a survey, D < 0 if negative, else D > 0.

    Every fundamental discriminant of that sign with |D| up to it is covered
    by a divisor table within _TABLE_CAP_BYTES, and the next one is not. The
    D > 0 are computed over that table; the D < 0 need none, but keep the
    limit of the table that the batch once read for them (_largest_n).
    """
    if _TABLE_CAP_BYTES not in _SURVEY_LIMITS:
        _SURVEY_LIMITS[_TABLE_CAP_BYTES] = _limits(_TABLE_CAP_BYTES)
    return _SURVEY_LIMITS[_TABLE_CAP_BYTES][negative]


def _check_limit(largest, negative=False):
    """ValueError when a run's largest |D| of one sign is past survey_limit."""
    if largest > (limit := survey_limit(negative)):
        raise ValueError(f"|D| = {largest} exceeds the survey limit {limit} for "
                         f"D {'<' if negative else '>'} 0 (a divisor table within "
                         f"{_TABLE_CAP_BYTES} bytes)")


_worker_table = None


def _pool_init(table):
    global _worker_table
    _worker_table = table


def _pool_chunk(chunk):
    from .batch import _batch_core_info

    return _batch_core_info(chunk, _worker_table)


def _trusted(d: int) -> Discriminant:
    # Only called on values that already passed the fundamental-discriminant
    # filters; bypasses re-validation.
    return Discriminant(d, "positive" if d > 0 else "negative", "odd" if d % 4 == 1 else "even")


def _core_rows(todo, jobs, progress):
    """The (len(todo), 5) int64 array of rows (d, h_plus, h, unit_norm, r3) of
    the ascending todo.

    The D < 0 come from one count of reduced forms (batch._neg_rows), in this
    process whatever jobs is. For the D > 0 the pos_table (divisors and cubic
    fields) is built once here and handed to pool workers through the
    initializer; it and the pool are released when this returns. The pool
    has at most one worker per chunk and per core, since the fork start
    method starts them all at the first submit. The pool module is imported
    here, so processes that start no pool never load it.
    """
    import numpy as np

    from .batch import _batch_core_info, _neg_rows, pos_table

    split = bisect_left(todo, 0)
    rows = [np.empty((0, 5), np.int64)]
    if split:
        rows.append(_neg_rows(todo[:split]))
        if progress:
            print(f"class groups: {split}/{len(todo)}", file=sys.stderr)
    pos = todo[split:]
    if not pos:
        return np.concatenate(rows)
    table = pos_table(pos[-1])
    # Freeing one 1 MiB block raises glibc's dynamic mmap threshold, so the
    # batch's temporaries (up to about 1 MiB a block) reuse heap pages instead
    # of faulting in fresh mmapped ones (pool workers inherit it at the fork).
    bytearray(1 << 20)
    workers = max(1, min(jobs, os.cpu_count() or 1))
    size = -(-len(pos) // (8 * workers))
    chunks = [pos[i : i + size] for i in range(0, len(pos), size)]
    workers = min(workers, len(chunks))
    with ExitStack() as stack:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_init, initargs=(table,)))
            parts = pool.map(_pool_chunk, chunks)
        else:
            parts = (_batch_core_info(chunk, table) for chunk in chunks)
        for part in parts:
            rows.append(part)
            if progress:
                print(f"class groups: {sum(map(len, rows))}/{len(todo)}", file=sys.stderr)
    return np.concatenate(rows)


def _info(d, h_plus, h, unit_norm, r3):
    from .forms import ClassGroupInfo

    return ClassGroupInfo(_trusted(d), h_plus, h, unit_norm, 3**r3, r3)


class ClassTable(Mapping):
    """Rows (D, h_plus, h, unit_norm, r3) sorted by D, held as five int64
    array('q') ``columns`` and read as a mapping D -> ClassGroupInfo, built
    when read; keys other than integers are absent. ``rows`` is an (n, 5)
    numpy copy of them, made when asked for; ``add`` merges rows of new D."""

    def __init__(self, columns=()):
        self.columns = tuple(columns) or tuple(array("q") for _ in range(5))

    @property
    def rows(self):
        import numpy as np

        return np.column_stack([np.frombuffer(c, np.int64) for c in self.columns])

    def add(self, rows):
        """Merge an (n, 5) int64 numpy array of rows of new, distinct D, in
        any order; they are sorted only when their D do not ascend."""
        import numpy as np

        if (rows[1:, 0] < rows[:-1, 0]).any():
            rows = rows[rows[:, 0].argsort()]
        # Into an empty table every row goes at 0, which spares np.insert its
        # index arrays of the rows' length.
        at = np.searchsorted(np.frombuffer(self.columns[0], np.int64), rows[:, 0]) if self else 0
        columns = tuple(array("q") for _ in self.columns)
        for column, old, new in zip(columns, self.columns, rows.T):
            column.frombytes(np.insert(np.frombuffer(old, np.int64), at, new).view(np.uint8))
        self.columns = columns

    def row(self, d):
        """The row of key d as a tuple of ints; KeyError when d is absent."""
        try:
            d = operator.index(d)
        except TypeError:
            raise KeyError(d) from None
        keys = self.columns[0]
        i = bisect_left(keys, d)
        if i == len(keys) or keys[i] != d:
            raise KeyError(d)
        return tuple(c[i] for c in self.columns)

    def within(self, lo, hi):
        """The columns of the rows with lo <= D <= hi: copies, or the table's
        own columns when every row is within."""
        keys = self.columns[0]
        i, j = bisect_left(keys, lo), bisect_right(keys, hi)
        if j - i == len(keys):
            return list(self.columns)
        return [c[i:j] for c in self.columns]

    def __getitem__(self, d):
        return _info(*self.row(d))

    def __contains__(self, d):
        try:
            self.row(d)
        except KeyError:
            return False
        return True

    def __iter__(self):
        return iter(self.columns[0])

    def __len__(self):
        return len(self.columns[0])


def compute_class_infos(ds, *, jobs: int = 1, cache: ClassTable | None = None,
                        progress: bool = False) -> ClassTable:
    """Class data for every fundamental discriminant in ds, cache-aware.

    Returns a ClassTable of exactly the D of ds, over the cache's own columns
    when the cache holds just those D. The cache, a ClassTable, is consulted
    first and gains the computed rows; any other raises TypeError.
    Output is independent of ``jobs``, which only the D > 0 use (_core_rows).
    A D to compute past survey_limit of its sign raises ValueError first.
    Only a run that computes some D loads numpy.
    """
    if cache is not None and not isinstance(cache, ClassTable):
        raise TypeError(f"cache must be a ClassTable or None, not {type(cache).__name__}")
    # Distinct D, ascending: each one unequal to the one before it. Not a
    # set, which raised the peak RSS of a cold nh-average at X = 10^6 by 3.5 MB.
    wanted = sorted(map(operator.index, ds))
    wanted = list(compress(wanted, map(operator.ne, wanted, chain((None,), wanted))))
    if not wanted:
        return ClassTable()
    table = ClassTable() if cache is None else cache
    columns = table.within(wanted[0], wanted[-1])
    # ascending; wanted itself when nothing is cached, as in a cold survey
    todo = list(filterfalse(set(columns[0]).__contains__, wanted)) if columns[0] else wanted
    if todo:
        _check_limit(-todo[0], negative=True)
        _check_limit(todo[-1])
        table.add(_core_rows(todo, jobs, progress))
        columns = table.within(wanted[0], wanted[-1])
    if len(columns[0]) > len(wanted):  # the table holds D that ds does not
        keep = list(map(set(wanted).__contains__, columns[0]))
        columns = [array("q", compress(c, keep)) for c in columns]
    return ClassTable(columns)


# ----------------------------------------------------------------------
# progression scan
# ----------------------------------------------------------------------

def _require_family(family, min_level=LEVEL_NH):
    if not isinstance(family, CongruenceFamily):
        raise ValueError(f"expected a validated CongruenceFamily, got {family!r}")
    if LEVELS.index(family.level) < LEVELS.index(min_level):
        raise ValueError(f"family level {family.level!r} is below required {min_level!r}")
    return family


def _checkpoints(checkpoints, x):
    if x < 1:
        raise ValueError("need x >= 1")
    if checkpoints is None:
        cps = [c for c in (10**3, 10**4, 10**5, 10**6) if c < x]
        cps.append(x)
        return cps
    cps = list(checkpoints)
    if cps != sorted(set(cps)) or not cps or cps[0] < 1 or cps[-1] > x:
        raise ValueError("checkpoints must be strictly increasing, within [1, x]")
    return cps


def _progression(family, lo, hi):
    """The members lo <= D <= hi of D = m (mod N), ascending."""
    return range(lo + (family.m - lo) % family.N, hi + 1, family.N)


# The squarefree flags of 0 < k < len(_sf), _sf[k], kept for every later
# _fundamental of the process; _sf[0] is 0.
_sf = bytearray(1)


def _fundamental(ds):
    """Flags (a bytes object of 1 or 0) of the fundamental discriminants in
    ds, a sequence of ints with |D| within DEFAULT_MAX_CELLS. The squarefree
    flags of [1, n], n = max |D|, are sliced into the flags of every
    -n <= D <= n: D = 1 (mod 4) with core |D|, and D = 8, 12 (mod 16) with
    core |D|/4. They come from _sf, which is sieved only over the cells it
    lacks, so a process sieves each cell once."""
    global _sf
    if not ds:
        return b""
    n = max(max(ds), -min(ds), 16)  # at least 16, so that every slice starts in range
    sf = _sf
    if n >= len(sf):
        # A new object, never an in-place extend: a call on another thread
        # that holds the old one still slices a consistent prefix.
        sf = _sf = sf + _squarefree_cells(len(sf), n, 1, DEFAULT_MAX_CELLS)
    flags = bytearray(2 * n + 1)  # flags[n + D]
    flags[n + 1 :: 4] = sf[1 : n + 1 : 4]
    flags[n - 3 :: -4] = sf[3 : n + 1 : 4]
    for d, core in ((8, 2), (12, 3), (-8, 2), (-4, 1)):
        flags[n + d :: 16 if d > 0 else -16] = sf[core : n // 4 + 1 : 4]
    flags[n + 1] = 0  # 1 is squarefree, but no discriminant
    return bytes(map(flags.__getitem__, map(n.__add__, ds)))


def _members(family, lo, hi):
    """The fundamental discriminants lo <= D <= hi of the progression, all of
    one sign, as a list sorted by |D|."""
    if max(-lo, hi) > DEFAULT_MAX_CELLS:
        raise ValueError(f"|D| up to {max(-lo, hi)} exceeds the squarefree sieve's "
                         f"{DEFAULT_MAX_CELLS} cells")
    prog = _progression(family, lo, hi)
    if hi < 0:
        prog = prog[::-1]
    return list(compress(prog, _fundamental(prog)))


def enumerate_s_plus(x: int, family: CongruenceFamily) -> Iterator[Discriminant]:
    """Fundamental discriminants 0 < D < x with D = m (mod N), ascending."""
    _require_family(family)
    return map(_trusted, _members(family, 1, x - 1))


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------

def _totals(values, ks):
    """The total of the first k of values, an iterable of ints or bools, for
    each k of the ascending ks, as ints."""
    values, total, done = iter(values), 0, 0
    totals = []
    for k in ks:
        total += sum(islice(values, k - done))
        done = k
        totals.append(total)
    return totals


def _survey(x, family, checkpoints, negative, stats, point, **run):
    """One Checkpoint per checkpoint c; point(c, |S|, k, *sums) builds those
    with data. The real side takes the members 0 < D <= x and counts |S| as
    1 <= D <= c, the imaginary side -x < D < 0 and -c < D < 0; k counts the
    members with |D| < c, and sums[i] totals the column stats[i](columns)
    over them, where columns are those of a ClassTable in the members' order."""
    cps = _checkpoints(checkpoints, x)
    _check_limit(x - 1 if negative else x, negative)
    fund = _members(family, 1 - x, -1) if negative else _members(family, 1, x)
    columns = compute_class_infos(fund, **run).columns  # ascending D
    if negative:  # fund is descending
        columns = [c[::-1] for c in columns]
    ks = [bisect_left(fund, c, key=abs) for c in cps]
    sums = [_totals(stat(columns), ks) for stat in stats]
    points = []
    for i, (c, k) in enumerate(zip(cps, ks)):
        s = len(_progression(family, 1 - c, -1) if negative else _progression(family, 1, c))
        if k == 0:
            points.append(Checkpoint(x=c, sets=DiscriminantSets(c, family, s, 0), no_data=True))
        else:
            points.append(point(c, s, k, *[total[i] for total in sums]))
    return points


def _torsion_sizes(columns):
    """3^r3 of each row."""
    return map(pow, repeat(3), columns[4])


def nh_average(x: int, family: CongruenceFamily, checkpoints=None, *,
               jobs: int = 1, cache: ClassTable | None = None,
               progress: bool = False) -> DensityReport:
    """Running average of 3^r3 over S+(X, m, N); the limit constant is 4/3."""
    _require_family(family)

    def point(c, s, k, tor):
        return Checkpoint(x=c, sets=DiscriminantSets(c, family, s, k), nh_average=tor / k)

    points = _survey(x, family, checkpoints, False, [_torsion_sizes], point,
                     jobs=jobs, cache=cache, progress=progress)
    return DensityReport("nh-average", family, "S_plus", TARGET_NH_AVERAGE,
                         {"nh_average": TARGET_NH_AVERAGE}, points)


def indivisibility_density(x: int, family: CongruenceFamily, checkpoints=None, *,
                           jobs: int = 1, cache: ClassTable | None = None,
                           progress: bool = False) -> DensityReport:
    """Fraction of S+ with h(D) not divisible by 3; liminf bound 5/6.

    Also reports both sides of the counting inequality
    2 * #{r3 = 0} / |S+| >= 3 - avg(3^r3), which is asserted exactly on the
    integer counts (pointwise 3^r >= 3 - 2*[r = 0]).
    """
    _require_family(family)

    def point(c, s, k, tor, zero):
        if not 2 * zero >= 3 * k - tor:  # pragma: no cover
            raise AssertionError(f"counting inequality violated at x={c}")
        return Checkpoint(
            x=c, sets=DiscriminantSets(c, family, s, k, L=zero),
            ratio_L=zero / k,
            nh_average=tor / k,
            lemma_lhs=2 * zero / k,
            lemma_rhs=3 - tor / k,
        )

    points = _survey(x, family, checkpoints, False,
                     [_torsion_sizes, lambda c: map(not_, c[4])], point,
                     jobs=jobs, cache=cache, progress=progress)
    return DensityReport("indivisibility", family, "S_plus", TARGET_INDIVISIBLE,
                         {"indivisible_ratio": TARGET_INDIVISIBLE}, points)


def _pair_survey(x, family, checkpoints, **run):
    """Checkpoints of the sets L, L_t over the progression members D <= x,
    the members of L with L_t, and the class data of D and D + t."""
    cps = _checkpoints(checkpoints, x)
    t = family.t
    _check_limit(x + t)
    prog = _progression(family, 1, x)
    shifted = range(prog.start + t, prog.stop + t, prog.step)
    # Members are 1 (mod 4) at theorem level, so L's base is exactly S+.
    # shifted (t >= 0) reaches the larger |D|, so prog's flags need no sieve.
    base_lt = _fundamental(shifted)
    base_l = _fundamental(prog)
    infos = compute_class_infos([*compress(prog, base_l), *compress(shifted, base_lt)], **run)
    indivisible = set(compress(infos.columns[0], map(not_, infos.columns[4])))
    in_l = bytes(map(indivisible.__contains__, prog))
    in_lt = bytes(map(indivisible.__contains__, shifted))
    in_both = bytes(map(and_, in_l, in_lt))
    ks = [bisect_right(prog, c) for c in cps]  # the L-sets count D <= checkpoint
    totals = [_totals(flags, ks) for flags in
              (in_l, in_lt, in_both, map(or_, in_l, in_lt), base_l)]
    points = []
    for i, (c, k) in enumerate(zip(cps, ks)):
        s = len(_progression(family, 1, c))
        if s != k:  # pragma: no cover
            raise AssertionError("progression count mismatch")
        if s == 0:
            sets = DiscriminantSets(c, family, 0, 0, L=0, L_t=0, L_cap_Lt=0)
            points.append(Checkpoint(x=c, sets=sets, no_data=True))
            continue
        l, lt, cap, cup, fund = (total[i] for total in totals)
        if cap != l + lt - cup:  # pragma: no cover
            raise AssertionError(f"inclusion-exclusion violated at x={c}")
        sets = DiscriminantSets(c, family, s, fund, L=l, L_t=lt, L_cap_Lt=cap)
        points.append(Checkpoint(x=c, sets=sets, ratio_L=l / s, ratio_Lt=lt / s,
                                 ratio_intersection=cap / s))
    return points, list(compress(prog, in_both)), infos


def pair_experiment(x: int, family: CongruenceFamily, checkpoints=None, *,
                    jobs: int = 1, cache: ClassTable | None = None,
                    progress: bool = False) -> DensityReport:
    """Densities of L, L_t and L with L_t shifted, inside the progression.

    L collects D <= X in the progression that are squarefree with
    3 not dividing h(D); L_t asks the same of D + t. Ratios use |S(X)|;
    the liminf bounds are 5/pi^2 for each set and (10 - pi^2)/pi^2 for the
    intersection, and the inclusion-exclusion identity is asserted exactly
    at every checkpoint.
    """
    _require_family(family, LEVEL_THEOREM)
    points, _, _ = _pair_survey(x, family, checkpoints,
                                jobs=jobs, cache=cache, progress=progress)
    return DensityReport("pairs", family, "S", TARGET_PAIR_INTERSECTION, _PAIR_BOUNDS, points)


def lambda_survey(x: int, family: CongruenceFamily, checkpoints=None, *,
                  jobs: int = 1, cache: ClassTable | None = None,
                  progress: bool = False) -> tuple[list[Lambda3Certificate], DensityReport]:
    """Certificates of vanishing lambda_3 for the pairs in L(X) with L_t(X).

    For each member D of the intersection, rechecks from scratch that D and
    D + t are squarefree, that the Legendre symbols of D and D + t mod 3 both
    equal -1 (forced by the congruences; a failure signals a bug), and that 3
    divides neither class number. Each certificate then witnesses
    lambda_3 = 0 for both fields by Iwasawa's criterion.
    """
    _require_family(family, LEVEL_LAMBDA)
    t = family.t
    points, both, infos = _pair_survey(x, family, checkpoints,
                                       jobs=jobs, cache=cache, progress=progress)
    certs = []
    for d in both:
        if mobius(d) == 0 or mobius(d + t) == 0:  # pragma: no cover
            raise RuntimeError(f"membership recheck failed for D={d}")
        leg_d = kronecker(d, 3)
        leg_dt = kronecker(d + t, 3)
        if leg_d != -1 or leg_dt != -1:
            raise RuntimeError(f"Legendre symbol of certified D={d} is not -1; "
                               "family congruences are broken")
        h_d = infos[d].h % 3
        h_dt = infos[d + t].h % 3
        if h_d == 0 or h_dt == 0:  # pragma: no cover
            raise RuntimeError(f"class number recheck failed for D={d}")
        certs.append(Lambda3Certificate(infos[d].D, t, leg_d, leg_dt, h_d, h_dt))
    report = DensityReport("lambda", family, "S", TARGET_PAIR_INTERSECTION, _PAIR_BOUNDS, points)
    return certs, report


def imaginary_density(x: int, family: CongruenceFamily, checkpoints=None, *,
                      jobs: int = 1, cache: ClassTable | None = None,
                      progress: bool = False) -> DensityReport:
    """Fraction of S-(X, m, N) with 3 not dividing h; liminf bound 1/2.

    S- collects the fundamental discriminants -X < D < 0 in the progression;
    h is the class number of the imaginary field of discriminant D.
    """
    _require_family(family)

    def point(c, s, k, indiv):
        return Checkpoint(x=c, sets=DiscriminantSets(c, family, s, k, L=indiv), ratio_L=indiv / k)

    points = _survey(x, family, checkpoints, True,
                     [lambda c: map(not_, c[4])], point,
                     jobs=jobs, cache=cache, progress=progress)
    return DensityReport("imaginary", family, "S_minus", TARGET_IMAGINARY_INDIVISIBLE,
                         {"indivisible_ratio": TARGET_IMAGINARY_INDIVISIBLE}, points)

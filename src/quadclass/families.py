"""Validation of congruence-family parameters (m, N, t).

A family selects the arithmetic progression D = m (mod N). Three levels of
hypotheses are recognised, each containing the previous:

* ``nh``      - the two Nakagawa-Horie conditions on (m, N):
                (1) every odd prime p | gcd(m, N) has p^2 | N and p^2 not | m;
                (2) if N is even, either 4 | N and m = 1 (mod 4), or 16 | N
                    and m = 8 or 12 (mod 16).
* ``theorem`` - additionally t >= 1 with t = 0 (mod 4),
                gcd(m, N) = gcd(m + t, N) = 1, m = 1 (mod 4), N = 0 (mod 4),
                and the nh conditions also hold for (m + t, N).
* ``lambda``  - additionally t = 0 (mod 12), m = 5 (mod 12), N = 0 (mod 12).

Rejections are structured verdicts (not exceptions) naming every violated
clause: odd-prime clause, even-N clause, gcd clause, mod-4 clause,
mod-12 clause, t-clause.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import _factorize

__all__ = [
    "CongruenceFamily",
    "FamilyRejection",
    "LEVELS",
    "LEVEL_LAMBDA",
    "LEVEL_NH",
    "LEVEL_THEOREM",
    "suggest",
    "validate",
]

LEVEL_NH = "nh"
LEVEL_THEOREM = "theorem"
LEVEL_LAMBDA = "lambda"
LEVELS = (LEVEL_NH, LEVEL_THEOREM, LEVEL_LAMBDA)


# NamedTuples, not dataclasses: a survey imports this module, and
# dataclasses would import inspect and ast with it.

class CongruenceFamily(NamedTuple):
    """Validated progression parameters; m is stored reduced into [1, N]."""

    m: int
    N: int
    t: int
    level: str


class FamilyRejection(NamedTuple):
    """Verdict listing every violated clause, rendered verbatim by the CLI."""

    m: int
    N: int
    t: int
    level: str
    violations: list[str] | tuple[str, ...] = ()

    def __bool__(self):
        return False

    def __str__(self):
        head = f"family (m={self.m}, N={self.N}, t={self.t}) rejected at level {self.level}:"
        return "\n".join([head] + [f"  - {v}" for v in self.violations])


def _nh_violations(m: int, N: int, label: str = "m") -> list[str]:
    out = []
    g = math.gcd(m, N)
    for p, _ in _factorize(g):
        if p == 2:
            continue
        if N % (p * p) != 0 or m % (p * p) == 0:
            out.append(
                f"odd-prime clause: p={p} divides gcd({label}, N) but needs "
                f"N = 0 (mod {p * p}) and {label} != 0 (mod {p * p})"
            )
    if N % 2 == 0:
        ok4 = N % 4 == 0 and m % 4 == 1
        ok16 = N % 16 == 0 and m % 16 in (8, 12)
        if not (ok4 or ok16):
            out.append(
                f"even-N clause: N even requires (N = 0 (mod 4) and {label} = 1 (mod 4)) "
                f"or (N = 0 (mod 16) and {label} = 8, 12 (mod 16))"
            )
    return out


def validate(m: int, N: int, t: int, level: str) -> CongruenceFamily | FamilyRejection:
    """Validate (m, N, t) at the given level; returns the family or a verdict."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    if m < 1 or N < 1 or t < 0:
        raise ValueError("need m >= 1, N >= 1, t >= 0")
    m = (m - 1) % N + 1  # progressions depend on m only through m mod N

    violations = _nh_violations(m, N)
    rank = LEVELS.index(level)
    if rank >= 1:
        t_mod = 12 if level == LEVEL_LAMBDA else 4
        if t < 1 or t % t_mod != 0:
            violations.append(f"t-clause: t must be a positive multiple of {t_mod}, got t={t}")
        if math.gcd(m, N) != 1 or math.gcd(m + t, N) != 1:
            violations.append(
                f"gcd clause: need gcd(m, N) = gcd(m + t, N) = 1, got "
                f"gcd={math.gcd(m, N)} and gcd(m+t, N)={math.gcd(m + t, N)}"
            )
        if m % 4 != 1 or N % 4 != 0:
            violations.append("mod-4 clause: need m = 1 (mod 4) and N = 0 (mod 4)")
        violations.extend(_nh_violations((m + t - 1) % N + 1, N, label="m+t"))
    if rank >= 2:
        if m % 12 != 5 or N % 12 != 0:
            violations.append("mod-12 clause: need m = 5 (mod 12) and N = 0 (mod 12)")
    if violations:
        return FamilyRejection(m, N, t, level, violations)
    return CongruenceFamily(m, N, t, level)


def suggest(level: str, t: int) -> CongruenceFamily | FamilyRejection:
    """Deterministic smallest-N, then smallest-m family valid at the level."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    t_mod = {LEVEL_NH: 1, LEVEL_THEOREM: 4, LEVEL_LAMBDA: 12}[level]
    if level != LEVEL_NH and (t < 1 or t % t_mod != 0):
        return FamilyRejection(0, 0, t, level, [
            f"t-clause: t must be a positive multiple of {t_mod}, got t={t}"])
    step = {LEVEL_NH: 1, LEVEL_THEOREM: 4, LEVEL_LAMBDA: 12}[level]
    N = step
    while True:
        for m in range(1, N + 1):
            fam = validate(m, N, t, level)
            if isinstance(fam, CongruenceFamily):
                return fam
        N += step

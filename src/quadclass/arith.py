"""Exact elementary number theory: Moebius function, squarefree sieving,
Kronecker symbols, fundamental discriminants, and counts of squarefree
integers in arithmetic progressions compared against their main term.

Everything here is integer-exact; floats appear only in main-term and
relative-error fields of :class:`SquarefreeAPCount`.

numpy is imported inside the functions that build arrays
(smallest_prime_factors, sieve_squarefree), never at module level, so the
single-discriminant path (primes_upto, is_squarefree, classify_discriminant),
count_squarefree_in_ap and ``import quadclass`` run without loading it. The
surveys ask whether many D are fundamental at once: experiments reads the
cores of them all off one sieve_squarefree window [1, max |D|].

The record types are NamedTuples (Discriminant, SquarefreeAPCount) or
immutable __slots__ classes (SieveWindow), not dataclasses, so that a query
does not import dataclasses and the inspect and ast modules it pulls in.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import compress
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Discriminant",
    "NotFundamental",
    "SieveWindow",
    "SquarefreeAPCount",
    "WindowTooLarge",
    "classify_discriminant",
    "count_squarefree_in_ap",
    "divisor_table_bytes",
    "is_fundamental_discriminant",
    "is_squarefree",
    "kronecker",
    "mobius",
    "primes_upto",
    "sieve_squarefree",
    "smallest_prime_factors",
]

# Sieve windows larger than this many cells are refused (see sieve_squarefree).
DEFAULT_MAX_CELLS = 1 << 27


# ----------------------------------------------------------------------
# primes and factorization helpers
# ----------------------------------------------------------------------

_primes: list[int] = []
_prime_limit = 0


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending. The sieve result is cached and grown on demand.

    An odd-only bytearray sieve: flags[i] stands for 2i + 1.
    """
    global _primes, _prime_limit
    if n > _prime_limit:
        limit = max(n, 2 * _prime_limit, 1 << 10)
        half = (limit + 1) // 2
        flags = bytearray(b"\x01") * half
        flags[0] = 0  # 1 is not prime
        for p in range(3, math.isqrt(limit) + 1, 2):
            if flags[p >> 1]:
                start = p * p >> 1
                flags[start::p] = bytes((half - 1 - start) // p + 1)
        _primes = [2, *compress(range(1, limit + 1, 2), flags)]
        _prime_limit = limit
    return _primes[: bisect_right(_primes, n)]


def smallest_prime_factors(limit: int) -> list[int]:
    """spf[n] = smallest prime factor of n for 2 <= n <= limit (spf[0] = spf[1] = 0).

    Used by callers that evaluate multiplicative functions on every n <= limit.
    """
    import numpy as np

    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            spf[p * p :: p][spf[p * p :: p] == 0] = p
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest  # primes (and 0, 1 which we zero out below)
    spf[:2] = 0
    return spf.tolist()


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (p, e) pairs, ascending in p.

    Trial division by sieved primes up to sqrt(n); adequate for desk-scale
    n <= 10**9. It factors the modulus k of count_squarefree_in_ap and the
    level gcd in families. Reduced-form enumeration does not use it: it reads
    a divisor table or solves b^2 = D (mod 4a) prime by prime.
    """
    out = []
    for p in primes_upto(math.isqrt(n)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def _largest_n(d):
    # The largest n = |d - b^2| / 4 of the b = d (mod 2) of an enumeration of
    # reduced forms, the least limit of a divisor table that covers d: at b = 1
    # or 2 for d > 0 (batch._batch_core_info), at the largest b with
    # 3b^2 <= |d| for d < 0, which the batch no longer reads from a table, but
    # which still fixes experiments.survey_limit(negative=True).
    b = 2 - (d & 1) if d > 0 else math.isqrt(-d // 3)
    b -= (b - d) & 1
    return abs(d - b * b) >> 2


def divisor_table_bytes(limit: int) -> int:
    """Bytes of batch.divisor_table(limit): 4 * (limit + 2 + sum_{n <= limit} tau(n))."""
    s = math.isqrt(limit)
    # sum_{n <= L} tau(n) counts pairs k * m <= L: 2 sum_{k <= s} floor(L/k) - s^2.
    entries = 2 * sum(limit // k for k in range(1, s + 1)) - s * s
    return 4 * (limit + 2 + entries)


# ----------------------------------------------------------------------
# Moebius function and squarefree tests
# ----------------------------------------------------------------------

def mobius(n: int) -> int:
    """Moebius function of n >= 1 via complete factorization."""
    if n < 1:
        raise ValueError("mobius is defined on positive integers")
    if n == 1:
        return 1
    result = 1
    for p in primes_upto(math.isqrt(n)):
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
    if n > 1:
        result = -result
    return result


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (n >= 1).

    Deliberately scans square divisors directly rather than reusing
    mobius(), so the two routes can be checked against each other.
    """
    if n < 1:
        raise ValueError("is_squarefree is defined on positive integers")
    if n & 3 == 0:
        return False
    for p in primes_upto(math.isqrt(n)):
        pp = p * p
        if pp > n:
            break
        if n % pp == 0:
            return False
    return True


class WindowTooLarge(ValueError):
    """Raised when a sieve window would exceed the configured memory bound."""


class SieveWindow:
    """Squarefree flags for the inclusive integer window [lo, hi].

    ``squarefree_flags[i]`` is set iff ``lo + i`` is squarefree. Immutable;
    two windows are equal only if they are the same object.
    """

    __slots__ = ("lo", "hi", "squarefree_flags")

    def __init__(self, lo: int, hi: int, squarefree_flags: np.ndarray):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "squarefree_flags", squarefree_flags)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"SieveWindow(lo={self.lo}, hi={self.hi}, squarefree_flags={self.squarefree_flags!r})"

    def __reduce__(self):
        return SieveWindow, (self.lo, self.hi, self.squarefree_flags)

    def flag(self, n: int) -> bool:
        if not self.lo <= n <= self.hi:
            raise IndexError(f"{n} outside window [{self.lo}, {self.hi}]")
        return bool(self.squarefree_flags[n - self.lo])

    def count(self) -> int:
        return int(self.squarefree_flags.sum())


def _squarefree_cells(lo: int, hi: int, k: int, max_cells: int) -> bytearray:
    """Squarefree flags (1 or 0) of the cells lo, lo + k, ..., up to hi; needs
    gcd(k, lo) = 1.

    For each prime p <= sqrt(hi) with p not dividing k, strikes the cells
    i = -lo * k^-1 (mod p^2); a prime p | k never has p^2 dividing a cell,
    since p does not divide lo. One byte per cell; a window is k = 1. A
    bytearray, so that counting cells needs no numpy.
    """
    cells = (hi - lo) // k + 1
    if cells > max_cells:
        raise WindowTooLarge(f"window of {cells} cells exceeds bound {max_cells}")
    flags = bytearray(b"\x01") * cells
    for p in primes_upto(math.isqrt(hi)):
        if k % p:
            q = p * p
            i = -lo * pow(k, -1, q) % q
            flags[i::q] = bytes(len(range(i, cells, q)))
    return flags


def sieve_squarefree(lo: int, hi: int, max_cells: int = DEFAULT_MAX_CELLS) -> SieveWindow:
    """Squarefree flags on [lo, hi] by striking multiples of p**2, p <= sqrt(hi).

    Cost is quasi-linear in the window length plus a prime sieve up to
    sqrt(hi); memory is one byte per window cell.
    """
    import numpy as np

    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    return SieveWindow(lo, hi, np.frombuffer(_squarefree_cells(lo, hi, 1, max_cells), bool))


# ----------------------------------------------------------------------
# Kronecker symbol
# ----------------------------------------------------------------------

def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a / n), fully general: n may be negative, even, or zero.

    Restricted to odd prime n it is the Legendre symbol.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    if n & 1 == 0:
        if a & 1 == 0:
            return 0
        twos = (n & -n).bit_length() - 1
        n >>= twos
        if twos & 1 and a % 8 in (3, 5):
            result = -result
    # n is now odd and positive: Jacobi with quadratic reciprocity.
    a %= n
    while a:
        while a & 1 == 0:
            a >>= 1
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ----------------------------------------------------------------------
# fundamental discriminants
# ----------------------------------------------------------------------

REASON_NOT_0_OR_1_MOD_4 = "not-0-or-1-mod-4"
REASON_NOT_SQUAREFREE_CORE = "not-squarefree-core"
REASON_PERFECT_SQUARE = "perfect-square"
REASON_IS_ONE = "is-one"


class NotFundamental(ValueError):
    """Rejection of a non-fundamental discriminant, carrying a reason code."""

    def __init__(self, d: int, reason: str):
        super().__init__(f"{d} is not a fundamental discriminant ({reason})")
        self.d = d
        self.reason = reason


class Discriminant(NamedTuple):
    """A validated fundamental discriminant.

    ``parity_class`` is "odd" for squarefree values = 1 mod 4 and "even" for
    values 4*m' with m' squarefree and = 2, 3 mod 4. Construct through
    :func:`classify_discriminant`; direct construction skips validation.
    """

    value: int
    sign: str  # "positive" | "negative"
    parity_class: str  # "odd" | "even"


def classify_discriminant(d: int) -> Discriminant:
    """Validate d as a fundamental discriminant or raise :class:`NotFundamental`.

    d = 1 is rejected (the unit field is not a quadratic field) and positive
    perfect squares are rejected (no indefinite form theory exists for them).
    """
    if d == 1:
        raise NotFundamental(d, REASON_IS_ONE)
    if d > 0 and math.isqrt(d) ** 2 == d:
        raise NotFundamental(d, REASON_PERFECT_SQUARE)
    r = d % 4
    if r == 1:
        if not is_squarefree(abs(d)):
            raise NotFundamental(d, REASON_NOT_SQUAREFREE_CORE)
        parity = "odd"
    elif r == 0:
        q = d // 4
        if q == 0 or q % 4 not in (2, 3) or not is_squarefree(abs(q)):
            raise NotFundamental(d, REASON_NOT_SQUAREFREE_CORE)
        parity = "even"
    else:
        raise NotFundamental(d, REASON_NOT_0_OR_1_MOD_4)
    return Discriminant(d, "positive" if d > 0 else "negative", parity)


def is_fundamental_discriminant(d: int) -> bool:
    try:
        classify_discriminant(d)
    except NotFundamental:
        return False
    return True


# ----------------------------------------------------------------------
# squarefree integers in arithmetic progressions
# ----------------------------------------------------------------------

class SquarefreeAPCount(NamedTuple):
    """Count of squarefree m <= x with m = l (mod k), against its main term.

    ``main_term`` is (6 / (k pi^2)) * prod_{p | k} (1 - p^-2)^-1 * x; the
    error term carries no explicit constant, so only the empirical
    ``relative_error`` |count - main_term| / main_term is reported.
    """

    x: int
    k: int
    l: int
    count: int
    main_term: float
    relative_error: float


def count_squarefree_in_ap(x: int, k: int, l: int, max_cells: int = DEFAULT_MAX_CELLS) -> SquarefreeAPCount:
    """Exact count of squarefree integers m <= x, m = l (mod k), gcd(k, l) = 1.

    Sieves only the progression: about x/k cells of one byte each, and
    max_cells bounds those cells (WindowTooLarge beyond it).
    """
    if x < 1:
        raise ValueError("need x >= 1")
    if k < 1:
        raise ValueError("need k >= 1")
    l = (l - 1) % k + 1  # normalize the residue into [1, k]
    if math.gcd(k, l) != 1:
        raise ValueError(f"gcd(k, l) = {math.gcd(k, l)} != 1 violates the coprimality hypothesis")
    count = _squarefree_cells(l, x, k, max_cells).count(1) if l <= x else 0
    prod = 1.0
    for p, _ in _factorize(k):
        prod *= 1.0 / (1.0 - 1.0 / (p * p))
    main = 6.0 / (k * math.pi**2) * prod * x
    rel = abs(count - main) / main
    return SquarefreeAPCount(x, k, l, count, main, rel)

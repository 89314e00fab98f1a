"""Class groups of quadratic fields through binary quadratic forms.

All arithmetic is exact. Conventions:

* definite forms (D < 0): a > 0; reduced means |b| <= a <= c with b >= 0
  whenever |b| = a or a = c; each class has exactly one reduced form.
* indefinite forms (D > 0, nonsquare): reduced means 0 < b < sqrt(D) and
  sqrt(D) - b < 2|a| < sqrt(D) + b, decided exactly by comparing squares;
  the reduction step `rho` permutes the reduced forms into cycles, and the
  number of cycles is the narrow class number h+. The sign of a alternates
  around every cycle, so the cycles are found from the a > 0 forms alone.
* class representatives are canonicalized to the lexicographically least
  (a, b, c) of their cycle, so equality of classes is equality of tuples.

A class x is 3-torsion exactly when x^2 = x^-1, so the 3-torsion count
takes one composition and one reduction per class. The narrow class group
and the ideal class group have the same odd part (their index is 1 or 2),
so 3-torsion counts computed on cycles are the 3-torsion counts of the
ideal class group; the wide class number h is recovered from h+ and the
norm of the fundamental unit.

Two routes compute the same class data. A single discriminant
(_core_info, behind class_group_info) factors every n = |D - b^2|/4 of its
enumeration with one polynomial sieve and walks its cycles in Python. Bulk
runs that fit a divisor_table (_batch_core_info) work a block of
discriminants at a time in numpy: every (D, b) row's window of divisors is
bisected out of the table at once, and for D > 0 the cycles are labelled by
pointer doubling on the permutation that two rho steps induce on the a > 0
forms. The batch also squares and reduces the classes in numpy for the
3-torsion test, reads the unit norm off the cycle labels (it is -1 exactly
when (-1, b, c) lies in the principal cycle) and checks the invariants as
masks. The single-discriminant route keeps the Python composition, the CF
period and the checks, needs no numpy, and is the reference the batch is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from .arith import Discriminant, classify_discriminant, kronecker, primes_upto, smallest_prime_factors

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ClassGroupInfo",
    "ClassRep",
    "Form",
    "UNIT_NORM_NOT_APPLICABLE",
    "analytic_h_imaginary",
    "class_group_info",
    "compose",
    "divisor_table",
    "divisor_table_bytes",
    "enumerate_classes",
    "is_reduced",
    "principal_class",
    "reduce_form",
    "rho",
    "three_torsion_count",
    "unit_norm",
]

UNIT_NORM_NOT_APPLICABLE = 0


class Form(NamedTuple):
    """Integer binary quadratic form a x^2 + b x y + c y^2 with cached discriminant."""

    a: int
    b: int
    c: int
    D: int

    @classmethod
    def make(cls, a: int, b: int, c: int) -> "Form":
        D = b * b - 4 * a * c
        if a == 0:
            raise ValueError("form must have a != 0")
        if D >= 0 and math.isqrt(abs(D)) ** 2 == D:
            raise ValueError(f"discriminant {D} is a perfect square; no form theory here")
        if D < 0 and a < 0:
            raise ValueError("negative-discriminant forms must be positive definite (a > 0)")
        return cls(a, b, c, D)


@dataclass(frozen=True)
class ClassRep:
    """A form class, canonicalized to the least (a, b, c) of its rho-cycle.

    Two ClassReps are equal iff their canonical forms are equal; for D < 0
    every cycle is a singleton and cycle_length is 1.
    """

    canonical_form: Form
    cycle_length: int = field(compare=False)


# ----------------------------------------------------------------------
# reduction, on raw (a, b, c) triples
# ----------------------------------------------------------------------

def _is_reduced_neg(a, b, c):
    ab = -b if b < 0 else b
    if ab > a or a > c:
        return False
    if b < 0 and (ab == a or a == c):
        return False
    return True


def _is_reduced_pos(a, b, c, D):
    # 0 < b < sqrt(D), sqrt(D) - b < 2|a| < sqrt(D) + b, via integer squares.
    if b <= 0 or b * b >= D:
        return False
    t = 2 * a if a > 0 else -2 * a
    u = t + b
    if u * u <= D:  # need sqrt(D) < 2|a| + b
        return False
    v = t - b
    if v >= 0 and v * v >= D:  # need 2|a| - b < sqrt(D)
        return False
    return True


def _reduce_neg(a, b, c):
    # Classical definite reduction: translate b into (-a, a], swap when a > c,
    # resolving boundary signs via the half-open translation range.
    while True:
        if not -a < b <= a:
            r = (a - b) // (2 * a)
            c += (a * r + b) * r
            b += 2 * a * r
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
        else:
            return a, b, c


def _rho(a, b, c, D, fl):
    # One reduction step: (a, b, c) -> (c, r, (r^2 - D) / (4c)) where r is the
    # unique integer with r = -b (mod 2|c|) and sqrt(D) - 2|c| < r < sqrt(D).
    # fl = isqrt(D); the window is exact because sqrt(D) is irrational.
    s = 2 * c if c > 0 else -2 * c
    r = fl - (fl + b) % s
    return c, r, (r * r - D) // (4 * c)


def _reduce_pos(a, b, c, D, fl):
    # |c| shrinks by roughly sqrt(D) per step until it is below sqrt(D),
    # after which at most a few more steps land on a reduced form with a > 0.
    while a < 0 or not _is_reduced_pos(a, b, c, D):
        a, b, c = _rho(a, b, c, D, fl)
    return a, b, c


def _cycle_of(form, D, fl):
    # The rho step of _rho, inlined: this loop is the hottest in the real route.
    # A reduced form of D is fixed by (a, b), so the cycle closes when they recur.
    a0, b0, _ = form
    cyc = [form]
    a, b, c = form
    while True:
        s = 2 * c if c > 0 else -2 * c
        b = fl - (fl + b) % s
        a, c = c, (b * b - D) // (4 * c)
        if a == a0 and b == b0:
            return cyc
        cyc.append((a, b, c))


# ----------------------------------------------------------------------
# public single-form operations
# ----------------------------------------------------------------------

def _coerce_disc(d) -> Discriminant:
    if isinstance(d, Discriminant):
        return d
    return classify_discriminant(d)


def is_reduced(f: Form) -> bool:
    """Reduction test per the conventions in the module docstring."""
    if f.D < 0:
        return _is_reduced_neg(f.a, f.b, f.c)
    return _is_reduced_pos(f.a, f.b, f.c, f.D)


def rho(f: Form) -> Form:
    """One indefinite reduction step; a bijection on the reduced forms of D."""
    if f.D < 0:
        raise ValueError("rho is defined for positive (indefinite) discriminants only")
    fl = math.isqrt(f.D)
    a, b, c = _rho(f.a, f.b, f.c, f.D, fl)
    return Form(a, b, c, f.D)


def reduce_form(f: Form) -> ClassRep:
    """Reduce f to its class representative.

    D < 0: the unique reduced form (a singleton cycle). D > 0: iterate rho
    to a reduced form, traverse its cycle, and canonicalize to the least
    (a, b, c) of the cycle.
    """
    if f.D < 0:
        a, b, c = _reduce_neg(f.a, f.b, f.c)
        return ClassRep(Form(a, b, c, f.D), 1)
    fl = math.isqrt(f.D)
    start = _reduce_pos(f.a, f.b, f.c, f.D, fl)
    cyc = _cycle_of(start, f.D, fl)
    a, b, c = min(cyc)
    return ClassRep(Form(a, b, c, f.D), len(cyc))


# ----------------------------------------------------------------------
# class enumeration
# ----------------------------------------------------------------------

def divisor_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The divisors of every 1 <= n <= limit, ascending, as compressed sparse rows.

    Returns int32 arrays (offsets, divisors): the divisors of n are
    divisors[offsets[n]:offsets[n + 1]], and row 0 is empty. With
    s = isqrt(limit), each row lists n's divisors d <= s by ascending d, then
    its divisors n/k > s by descending k <= s, so the build is 2s strided
    numpy passes with no per-n loop. Its size is divisor_table_bytes(limit),
    about 4 * limit * (ln limit + 1) bytes.
    """
    import numpy as np

    if not 0 <= limit <= 10**8:
        raise ValueError("divisor_table needs 0 <= limit <= 10**8 (int32 offsets)")
    s = math.isqrt(limit)
    count = np.zeros(limit + 1, np.int32)
    for d in range(1, s + 1):
        count[d::d] += 1
        count[d * (s + 1) :: d] += 1
    offsets = np.zeros(limit + 2, np.int32)
    np.cumsum(count, dtype=np.int32, out=offsets[1:])
    divisors = np.empty(int(offsets[-1]), np.int32)
    cursor = offsets[:-1].copy()  # next free slot of each row
    for d in range(1, s + 1):
        rows = cursor[d::d]
        divisors[rows] = d
        rows += 1
    for k in range(s, 0, -1):
        rows = cursor[k * (s + 1) :: k]
        divisors[rows] = np.arange(s + 1, s + 1 + len(rows), dtype=np.int32)
        rows += 1
    return offsets, divisors


def divisor_table_bytes(limit: int) -> int:
    """Bytes of divisor_table(limit): 4 * (limit + 2 + sum_{n <= limit} tau(n))."""
    s = math.isqrt(limit)
    # sum_{n <= L} tau(n) counts pairs k * m <= L: 2 sum_{k <= s} floor(L/k) - s^2.
    entries = 2 * sum(limit // k for k in range(1, s + 1)) - s * s
    return 4 * (limit + 2 + entries)


def _b_range(d):
    # The b of the enumeration, b = d (mod 2): 0 < b <= isqrt(d) for d > 0,
    # 0 <= b with 3b^2 <= |d| for d < 0.
    if d > 0:
        return range(2 - (d & 1), math.isqrt(d) + 1, 2)
    return range(d & 1, math.isqrt(-d // 3) + 1, 2)


def _largest_n(d):
    # The largest n = |d - b^2| / 4 the enumeration of _reduced_forms_* meets:
    # at the smallest b for d > 0, at the largest b for d < 0.
    bs = _b_range(d)
    b = bs[0] if d > 0 else bs[-1]
    return abs(d - b * b) >> 2


def _sqrt_mod(a, p):
    """A root r of r^2 = a (mod p), for an odd prime p and a square a mod p."""
    a %= p
    if a == 0:
        return 0
    if p & 3 == 3:
        return pow(a, (p + 1) >> 2, p)
    # Tonelli-Shanks with p - 1 = q * 2^s, q odd.
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = 2
    while pow(z, (p - 1) >> 1, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) >> 1, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def _rows(d, fl):
    """(b, n, window) for each b of d's enumeration: n = |d - b^2| / 4 and
    window the divisors a of n with fl - b + 1 <= 2a <= fl + b
    (fl = isqrt(d)) for d > 0, or b <= a <= isqrt(n) for d < 0. One sieve
    over the whole scan finds every window (_sieved_windows).
    """
    bs = _b_range(d)
    ns = [abs(d - b * b) >> 2 for b in bs]
    if d > 0:
        los = [(fl - b + 2) >> 1 for b in bs]
        his = [(fl + b) >> 1 for b in bs]
    else:
        los = bs
        his = [math.isqrt(n) for n in ns]
    return zip(bs, ns, _sieved_windows(d, bs, ns, los, his))


def _sieved_windows(d, bs, ns, los, his):
    """The divisors v of each ns[i] with los[i] <= v <= his[i], where
    ns[i] = |d - bs[i]^2| / 4.

    One polynomial sieve factors every n at once: an odd prime p divides n
    iff b^2 = d (mod p), so p strikes the rows b = +-sqrt(d) (mod p) and no
    others, and primes up to isqrt(max n) leave a cofactor that is 1 or
    prime. Each row grows its divisors as its primes strike; divisors above
    the window are never built.
    """
    m = len(ns)
    rem = list(ns)
    divs = [[1] for _ in range(m)]

    def strike(i, p):
        # divide p^e out of row i and multiply its divisors by p, ..., p^e
        n = rem[i] // p
        e = 1
        while n % p == 0:
            n //= p
            e += 1
        rem[i] = n
        row = layer = divs[i]
        top = his[i] // p
        for _ in range(e):
            layer = [v * p for v in layer if v <= top]
            row += layer

    for i, n in enumerate(ns):
        if not n & 1:
            strike(i, 2)
    b0 = bs[0]
    for p in primes_upto(math.isqrt(max(ns)))[1:]:
        dp = d % p
        if dp and pow(dp, (p - 1) >> 1, p) != 1:
            continue
        r = _sqrt_mod(dp, p)
        half = (p + 1) >> 1  # 2^-1 (mod p)
        for root in (r, p - r) if r else (0,):
            for i in range((root - b0) * half % p, m, p):
                strike(i, p)
    windows = []
    for row, c, lo, hi in zip(divs, rem, los, his):
        if 1 < c <= hi:  # a prime above every sieved p, so c^2 > n
            top = hi // c
            row += [v * c for v in row if v <= top]
        windows.append([v for v in row if v >= lo])
    return windows


def _reduced_forms_neg(d):
    # Each a in the window of n = (b^2 - d)/4 gives the reduced (a, +-b, n/a).
    out = []
    for b, n, window in _rows(d, 0):
        for a in window:
            c = n // a
            out.append((a, b, c))
            if 0 < b < a < c:
                out.append((a, -b, c))
    return out


def _reduced_forms_pos(d, fl):
    # The reduced forms of d with a > 0: (v, b, -n/v) for each v in the window
    # of n = (d - b^2)/4. Their mirrors (-v, b, n/v) are the a < 0 half; rho
    # sends (a, b, c) to (c, ., .) and ac < 0, so a alternates in sign around
    # every cycle and each cycle holds a form of each half.
    return [(v, b, -(n // v)) for b, n, window in _rows(d, fl) for v in window]


def _principal_form(d, fl):
    """The reduced principal form (1, b, (b^2 - d)/4), b = d (mod 2): the least
    b >= 0 for d < 0, the largest b <= fl = isqrt(d) for d > 0."""
    b = d & 1 if d < 0 else fl - ((fl - d) & 1)
    return 1, b, (b * b - d) >> 2


def _classes_pos(d, fl):
    """All rho-cycles of reduced forms of d > 0 as a sorted list of
    (canonical, length), and a dict from every reduced form with a > 0 to
    the canonical form of its cycle.
    """
    owner = {}
    classes = []
    for f in _reduced_forms_pos(d, fl):
        if f in owner:
            continue
        cyc = _cycle_of(f, d, fl)
        canonical = min(cyc)
        owner.update(zip(cyc[::2], repeat(canonical)))  # the a > 0 forms, as a alternates
        classes.append((canonical, len(cyc)))
    classes.sort()
    return classes, owner


def enumerate_classes(D) -> list[ClassRep]:
    """All form classes of a fundamental discriminant, sorted by canonical form.

    The list length is the class number h for D < 0 and the narrow class
    number h+ for D > 0.
    """
    disc = _coerce_disc(D)
    d = disc.value
    if d < 0:
        forms = sorted(_reduced_forms_neg(d))
        return [ClassRep(Form(a, b, c, d), 1) for (a, b, c) in forms]
    fl = math.isqrt(d)
    classes, _ = _classes_pos(d, fl)
    return [ClassRep(Form(*f, d), n) for f, n in classes]


def principal_class(D) -> ClassRep:
    """The identity class: the class of (1, b, (b^2 - D)/4), b = D (mod 2)."""
    d = _coerce_disc(D).value
    return reduce_form(Form(*_principal_form(d, math.isqrt(abs(d))), d))


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------

def _xgcd(x, y):
    """(g, u, v) with u*x + v*y = g = gcd(x, y) >= 0."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _compose_raw(f1, f2):
    # Dirichlet composition. With e = gcd(a1, a2, (b1 + b2)/2) the composite
    # has first coefficient a1*a2/e^2; the middle coefficient solves the
    # standard simultaneous congruences. Exactness of the final division is
    # invariant under the choice of residue representative r.
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    if abs(a1) > abs(a2):
        a1, b1, c1, a2, b2, c2 = a2, b2, c2, a1, b1, c1
    s = (b1 + b2) >> 1
    n = b2 - s
    if a2 % a1 == 0:
        y1 = 0
        d = a1 if a1 > 0 else -a1
    else:
        d, u, _ = _xgcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2 = -1
        x2 = 0
        d1 = d
    else:
        d1, u, v = _xgcd(s, d)
        x2 = u
        y2 = -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    num = c2 * d1 + r * (b2 + v2 * r)
    c3, rem = divmod(num, v1)
    if rem:  # pragma: no cover
        raise AssertionError("composition produced a non-integral form")
    return a3, b3, c3


def compose(x: ClassRep, y: ClassRep) -> ClassRep:
    """Gauss composition of form classes (exact, arbitrary precision)."""
    fx, fy = x.canonical_form, y.canonical_form
    if fx.D != fy.D:
        raise ValueError(f"cannot compose classes of discriminants {fx.D} and {fy.D}")
    a, b, c = _compose_raw((fx.a, fx.b, fx.c), (fy.a, fy.b, fy.c))
    return reduce_form(Form(a, b, c, fx.D))


# ----------------------------------------------------------------------
# 3-torsion, unit norm, assembled invariants
# ----------------------------------------------------------------------

# x^3 = 1 exactly when x^2 = x^-1, so each torsion test squares a class once
# and compares the square with the inverse: (a, -b, c) for a definite form,
# and the cycle of (c, b, a), which is equivalent to (a, -b, c), for an
# indefinite one. owner maps every reduced a > 0 form of d to a label of its
# cycle, and _reduce_pos lands both the square and (c, b, a) on such forms.

def _three_torsion_neg(h, forms):
    # Lagrange: a nontrivial 3-torsion element needs 3 | h. Classes come in
    # inverse pairs (a, b, c) <-> (a, -b, c) with the same answer, so only
    # the b >= 0 forms among the reduced forms listed are squared.
    if h % 3 != 0:
        return 1
    count = 0
    for f in forms:
        a, b, c = f
        if b < 0:
            continue
        if _reduce_neg(*_compose_raw(f, f)) == _reduce_neg(a, -b, c):
            count += 2 if 0 < b < a < c else 1
    return count


def _three_torsion_pos(d, fl, reps, owner):
    # reps holds one reduced form of each class.
    if len(reps) % 3 != 0:
        return 1
    count = 0
    for f in reps:
        a, b, c = f
        if owner[_reduce_pos(*_compose_raw(f, f), d, fl)] == owner[_reduce_pos(c, b, a, d, fl)]:
            count += 1
    return count


def three_torsion_count(D) -> int:
    """#{classes x : x*x*x = principal}; always a power of 3 (it is 3^r3).

    For D > 0 this counts in the narrow class group, which has the same
    3-torsion as the ideal class group.
    """
    d = _coerce_disc(D).value
    return 3 ** _r3(d, _classes_and_torsion(d)[1])


def unit_norm(D) -> int:
    """Norm (+1 or -1) of the fundamental unit of the real field of discriminant D.

    Computed as (-1)^period of the continued fraction of sqrt(D/4) when
    D = 0 (mod 4) and of (1 + sqrt(D))/2 when D = 1 (mod 4); the period is
    detected by repetition of the exact (P, Q) recurrence state.
    """
    disc = _coerce_disc(D)
    d = disc.value
    if d < 0:
        raise ValueError("unit_norm is defined for positive discriminants only")
    return -1 if _cf_period(d) & 1 else 1


def _cf_period(d):
    if d & 3 == 0:
        p, q, n = 0, 1, d >> 2
    else:
        p, q, n = 1, 2, d
    fl = math.isqrt(n)
    seen = {}
    step = 0
    while (p, q) not in seen:
        seen[(p, q)] = step
        a = (p + fl) // q
        p = a * q - p
        q = (n - p * p) // q
        step += 1
    return step - seen[(p, q)]


@dataclass(frozen=True)
class ClassGroupInfo:
    """Per-discriminant class data.

    unit_norm is 0 (UNIT_NORM_NOT_APPLICABLE) for D < 0. For D > 0,
    h = h_plus when the fundamental unit has norm -1 and h_plus/2 otherwise;
    three_torsion_count = 3**r3 in all cases.
    """

    D: Discriminant
    h_plus: int
    h: int
    unit_norm: int
    three_torsion_count: int
    r3: int


def _classes_and_torsion(d):
    """(class count, 3-torsion count) of a trusted fundamental discriminant d;
    for d > 0 both are of the narrow class group."""
    if d < 0:
        forms = _reduced_forms_neg(d)
        return len(forms), _three_torsion_neg(len(forms), forms)
    fl = math.isqrt(d)
    classes, owner = _classes_pos(d, fl)
    return len(classes), _three_torsion_pos(d, fl, [f for f, _ in classes], owner)


def _r3(d, count):
    """r3 with 3^r3 = count, the 3-torsion count of d; any other count is a bug."""
    r3 = 0
    while 3 ** (r3 + 1) <= count:
        r3 += 1
    if 3**r3 != count:
        raise AssertionError(f"3-torsion count {count} is not a power of 3 for D={d}")
    return r3


def _core_row(d, h_plus, count):
    """(h_plus, h, unit_norm, r3) of a trusted fundamental d from its (narrow)
    class count and 3-torsion count, checking that the count is a power of 3
    and that a unit of norm +1 comes with an even h_plus."""
    r3 = _r3(d, count)
    if d < 0:
        return h_plus, h_plus, UNIT_NORM_NOT_APPLICABLE, r3
    un = -1 if _cf_period(d) & 1 else 1
    if un == 1:
        if h_plus & 1:  # pragma: no cover
            raise AssertionError(f"unit norm +1 with odd narrow class number for D={d}")
        h = h_plus >> 1
    else:
        h = h_plus
    return h_plus, h, un, r3


def _core_info(d):
    """(h_plus, h, unit_norm, r3) for a trusted fundamental discriminant d,
    its enumeration sieved on its own (_sieved_windows)."""
    return _core_row(d, *_classes_and_torsion(d))


def class_group_info(D) -> ClassGroupInfo:
    """Assembled class-group invariants of a fundamental discriminant."""
    disc = _coerce_disc(D)
    h_plus, h, un, r3 = _core_info(disc.value)
    return ClassGroupInfo(disc, h_plus, h, un, 3**r3, r3)


# ----------------------------------------------------------------------
# batched class data over a divisor table
# ----------------------------------------------------------------------

# The most b-rows in one block of _batch_core_info (a block holds at least one
# discriminant): its temporaries are a few arrays of this length and of the
# block's forms, under 2 MB at |D| ~ 4·10^4.
_BLOCK_ROWS = 1 << 12


def _batch_core_info(ds, table):
    """(d, h_plus, h, unit_norm, r3) for each trusted fundamental d of ds, in
    order, equal to (d,) + _core_info(d).

    table is a divisor_table covering every n the enumeration of ds meets; a
    shorter one is refused with ValueError. Runs of one sign are computed a
    block of at most _BLOCK_ROWS b-rows at a time (_block_rows).
    """
    out = []
    block, ranges, rows = [], [], 0
    for d in ds:
        bs = _b_range(d)
        if block and ((d > 0) != (block[0] > 0) or rows + len(bs) > _BLOCK_ROWS):
            out += _block_rows(block, ranges, *table)
            block, ranges, rows = [], [], 0
        block.append(d)
        ranges.append(bs)
        rows += len(bs)
    if block:
        out += _block_rows(block, ranges, *table)
    return out


def _bisect(dv, lo, hi, x):
    """For each i, the first j in [lo[i], hi[i]) with dv[j] >= x[i], or hi[i]:
    bisect_left on every sorted run dv[lo[i]:hi[i]] at once."""
    import numpy as np

    size = hi - lo
    for _ in range(int(size.max()).bit_length()):
        half = size >> 1
        go = (size > 0) & (dv.take(lo + half, mode="clip") < x)
        lo = np.where(go, lo + half + 1, lo)
        size = np.where(go, size - half - 1, half)
    return lo


def _block_rows(block, ranges, off, dv):
    """_batch_core_info of one block of discriminants of one sign, with
    ranges[i] = _b_range(block[i]).

    Every (D, b) row of the block is built with np.repeat, and its window of
    divisors a of n = |D - b^2| / 4 is bisected out of the table (for D < 0,
    the divisors a <= isqrt(n) are the first ceil(tau(n)/2) of the row). The
    forms are listed by (D, b, a): for D < 0 the classes (a, b, c) with
    b >= 0, for D > 0 the a > 0 reduced forms (_pos_rows). All that stays
    per D in Python is building the output rows.
    """
    import numpy as np

    k = len(block)
    d = np.array(block, np.int64)
    b0 = np.array([bs.start for bs in ranges], np.int64)
    count = np.array([len(bs) for bs in ranges], np.int64)
    if block[0] > 0:
        fl = np.array([math.isqrt(x) for x in block], np.int64)
    j = np.repeat(np.arange(k), count)  # the block index of each row
    b = b0[j] + 2 * (np.arange(len(j)) - (np.cumsum(count) - count)[j])
    n = np.abs(d[j] - b * b) >> 2
    if n.max() > len(off) - 2:
        raise ValueError(f"divisor table up to n = {len(off) - 2} does not cover "
                         f"D={block[int(j[n.argmax()])]}")
    start = off[n].astype(np.int64)
    end = off[n + 1].astype(np.int64)
    if block[0] > 0:
        lo = _bisect(dv, start, end, (fl[j] - b + 2) >> 1)
        hi = _bisect(dv, lo, end, ((fl[j] + b) >> 1) + 1)
    else:
        lo = _bisect(dv, start, end, b)
        hi = start + ((end - start + 1) >> 1)
    width = hi - lo
    r = np.repeat(np.arange(len(j)), width)  # the row of each form
    a = dv[lo[r] + np.arange(len(r)) - (np.cumsum(width) - width)[r]].astype(np.int64)
    b, j = b[r], j[r]
    c = n[r] // a
    if block[0] > 0:
        return _pos_rows(block, d, fl, j, a, b, -c)
    # each form (a, b, c) is a class, and so is its mirror (a, -b, c) when 0 < b < a < c
    h = np.bincount(j, minlength=k) + np.bincount(j[(0 < b) & (b < a) & (a < c)], minlength=k)
    return _checked_rows(block, h, _torsion_neg(h, j, a, b, c), np.zeros(k, np.int64))


# The batch's int64 arithmetic is exact up to |D| = 4·10^8 + 4, beyond which
# no divisor_table covers a discriminant. Listed forms have 0 < a <= sqrt|D|,
# 0 <= b <= sqrt|D| and |c| <= |D|/3, and keys stay below k * (sqrt|D| + 1)^2
# for k discriminants. _square_np's products stay below 2|D|^1.5, and the
# square (A, B, C) has 0 < A < |D|, 0 <= B < 2|D| + sqrt|D| and
# |C| < |D| + sqrt|D|. For D < 0, every later value of _reduce_neg_np is below
# 4|D|, as each translation lands on a c below |D|. For D > 0, a rho step from
# a form with third coefficient c takes an r with |r| < 2|c| + sqrt(D), and
# the next third coefficient is at most max(|c|, sqrt D) in magnitude, so
# every rho step of the batch has r^2 < (2D + 3 sqrt D)^2 < 6.5·10^17 < 2^63.
# The reduced test of _reduce_pos_np compares 2a - b and 2a + b with isqrt(D)
# and squares nothing.

def _torsion_neg(h, j, a, b, c):
    """The 3-torsion count of each D of a block, from its b >= 0 classes
    (a, b, c) listed by block index j and its class numbers h: 1 unless
    3 | h, else the classes x with x^2 = x^-1, counting a mirror with its
    form (_three_torsion_neg)."""
    import numpy as np

    k = len(h)
    i = np.flatnonzero(h[j] % 3 == 0)
    j, a, b, c = j[i], a[i], b[i], c[i]
    mirror = (0 < b) & (b < a) & (a < c)
    sa, sb, sc = _reduce_neg_np(*_square_np(a, b, c))
    # the reduced inverse is (a, -b, c) for a mirrored form, else (a, b, c)
    hit = (sa == a) & (sb == np.where(mirror, -b, b)) & (sc == c)
    count = np.bincount(j[hit], minlength=k) + np.bincount(j[hit & mirror], minlength=k)
    return np.where(h % 3 == 0, count, 1)


def _pos_rows(block, d, fl, j, a, b, c):
    """The rows of a block of D > 0 from its a > 0 reduced forms (a, b, c),
    listed by (block index j, b, a).

    Two rho steps send each form to the next a > 0 form of its cycle: that
    permutation is found by np.searchsorted on a (j, b, a) key, and pointer
    doubling labels every form with the least index of its cycle, so h+
    counts the forms that are their own label (the roots).
    """
    import numpy as np

    k = len(block)
    D, F = d[j], fl[j]
    b1 = F - (F + b) % (-2 * c)
    c1 = (b1 * b1 - D) // (4 * c)  # rho: (a, b, c) -> (c, b1, c1), c1 > 0
    b2 = F - (F + b1) % (2 * c1)  # rho: -> (c1, b2, .)
    m = int(fl.max()) + 1  # a reduced form has 0 < a, b <= isqrt(D)
    key = (j * m + b) * m + a  # ascending

    def find(jj, bb, aa, what):
        # the index of each reduced form (aa, bb, .) of block[jj] in key
        x = (jj * m + bb) * m + aa
        i = np.minimum(np.searchsorted(key, x), len(key) - 1)
        lost = key[i] != x
        if lost.any():
            raise AssertionError(f"{what} is missing from the reduced forms of "
                                 f"D={block[int(jj[lost.argmax()])]}")
        return i

    nxt = find(j, b2, c1, "a rho^2 image")
    label = np.arange(len(key))
    jump = nxt
    while True:
        label = np.minimum(label, label[jump])
        if (label[nxt] == label).all():
            break
        jump = jump[jump]
    root = label == np.arange(len(key))
    h_plus = np.bincount(j[root], minlength=k)

    def label_of(jj, bb, aa):
        return label[find(jj, bb, aa, "a reduced form")]

    count = _torsion_pos(h_plus, j[root], a[root], b[root], c[root], D[root], F[root], label_of)
    return _checked_rows(block, h_plus, count, _unit_norms(d, fl, label_of))


def _torsion_pos(h_plus, j, a, b, c, D, F, label_of):
    """The 3-torsion count of each D > 0 of a block, from one reduced form
    (a, b, c) with a > 0 of each class, listed by block index j, and its
    narrow class numbers h_plus: 1 unless 3 | h+, else the classes whose
    square and (c, b, a) reduce into one cycle (_three_torsion_pos). The
    form (c, b, a) is reduced too, so one rho step takes it to the a > 0
    form (a, F - (F + b) mod 2a, .) of its cycle."""
    import numpy as np

    k = len(h_plus)
    i = np.flatnonzero(h_plus[j] % 3 == 0)
    j, a, b, c, D, F = j[i], a[i], b[i], c[i], D[i], F[i]
    sa, sb, _ = _reduce_pos_np(*_square_np(a, b, c), D, F)
    hit = label_of(j, sb, sa) == label_of(j, F - (F + b) % (2 * a), a)
    return np.where(h_plus % 3 == 0, np.bincount(j[hit], minlength=k), 1)


def _unit_norms(d, fl, label_of):
    """The norm of the fundamental unit of each d > 0 of a block: -1 exactly
    when the reduced form (-1, b, c), b = fl - ((fl - d) & 1), lies in the
    principal cycle, that of (1, b, -c). One rho step sends (-1, b, c) to the
    a > 0 form (c, r, .) of its cycle."""
    import numpy as np

    j = np.arange(len(d))
    b = fl - ((fl - d) & 1)
    c = (d - b * b) >> 2
    r = fl - (fl + b) % (2 * c)
    return np.where(label_of(j, b, 1) == label_of(j, r, c), -1, 1)


def _checked_rows(block, h_plus, count, norm):
    """The rows (d, h_plus, h, unit_norm, r3) of a block from its arrays of
    (narrow) class numbers, 3-torsion counts and unit norms (0 for d < 0),
    with _core_row's checks as masks: the first d that fails one raises
    _core_row's message."""
    import numpy as np

    pow3 = 3 ** np.arange(21, dtype=np.int64)  # 3^20 exceeds any h+ a table can cover
    r3 = np.minimum(np.searchsorted(pow3, count), 20)
    bad_count = pow3[r3] != count
    bad_norm = (norm == 1) & (h_plus & 1 == 1)
    if (bad_count | bad_norm).any():
        i = int((bad_count | bad_norm).argmax())
        if bad_count[i]:
            raise AssertionError(f"3-torsion count {count[i]} is not a power of 3 "
                                 f"for D={block[i]}")
        raise AssertionError(f"unit norm +1 with odd narrow class number for D={block[i]}")
    h = np.where(norm == 1, h_plus >> 1, h_plus)
    return list(zip(block, h_plus.tolist(), h.tolist(), norm.tolist(), r3.tolist()))


def _xgcd_np(x, y):
    """(g, u) with g = gcd(x, y) and u the coefficient of x of _xgcd(x, y),
    so u*x = g (mod y), for int64 arrays x >= 0 and y > 0. Euclid's steps
    are taken on the rows whose remainder is not yet 0 only."""
    import numpy as np

    g, u = np.empty_like(x), np.empty_like(x)
    i = np.arange(len(x))
    r0, r1, s0, s1 = x, y, np.ones_like(x), np.zeros_like(x)
    while len(i):
        done = r1 == 0
        g[i[done]], u[i[done]] = r0[done], s0[done]
        go = ~done
        i, r0, r1, s0, s1 = i[go], r0[go], r1[go], s0[go], s1[go]
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return g, u


def _square_np(a, b, c):
    """_compose_raw(f, f) for every form f = (a, b, c) of int64 arrays with
    a > 0 and b >= 0: with g = gcd(a, b), u*b = g (mod a) and v = a/g, the
    square is (v^2, b + 2vr, (cg + r(b + vr)) / v) for r = -uc mod v."""
    g, u = _xgcd_np(b, a)
    v = a // g
    r = -u * c % v
    return v * v, b + 2 * v * r, (c * g + r * (b + v * r)) // v


def _reduce_neg_np(a, b, c):
    """_reduce_neg on every row of int64 arrays; a row leaves the loop once
    it is reduced."""
    import numpy as np

    out = np.empty((3, len(a)), np.int64)
    i = np.arange(len(a))
    while len(i):
        r = (a - b) // (2 * a)  # 0 when -a < b <= a
        c = c + (a * r + b) * r
        b = b + 2 * a * r
        swap = (a > c) | ((a == c) & (b < 0))
        done = ~swap
        out[:, i[done]] = a[done], b[done], c[done]
        i, a, b, c = i[swap], c[swap], -b[swap], a[swap]
    return out


def _reduce_pos_np(a, b, c, D, F):
    """_reduce_pos on every row of int64 arrays, with F = isqrt(D); a row
    leaves the loop once it is a reduced form with a > 0, which is
    0 < b <= F, 2a - b <= F < 2a + b, exactly as sqrt(D) is irrational."""
    import numpy as np

    out = np.empty((3, len(a)), np.int64)
    i = np.arange(len(a))
    while len(i):
        done = (0 < b) & (b <= F) & (2 * a - b <= F) & (F < 2 * a + b)
        out[:, i[done]] = a[done], b[done], c[done]
        go = ~done
        i, a, b, c, D, F = i[go], a[go], b[go], c[go], D[go], F[go]
        r = F - (F + b) % (2 * np.abs(c))  # rho: (a, b, c) -> (c, r, .)
        a, b, c = c, r, (r * r - D) // (4 * c)
    return out


# ----------------------------------------------------------------------
# analytic class number (imaginary): independent oracle
# ----------------------------------------------------------------------

def analytic_h_imaginary(D) -> int:
    """Exact class number of an imaginary field from the finite character sum
    h = w / (2|D|) * |sum_{a=1}^{|D|-1} kronecker(D, a) * a|.

    Shares nothing with the form-based route; used to cross-check it.
    """
    disc = _coerce_disc(D)
    d = disc.value
    if d >= 0:
        raise ValueError("analytic_h_imaginary needs a negative discriminant")
    w = 6 if d == -3 else 4 if d == -4 else 2
    m = -d
    spf = smallest_prime_factors(m) if m > 4 else None
    chi = [0] * m
    chi[1 % m] = 1
    total = 0
    for a in range(2, m):
        p = spf[a] if spf else a
        if p == a:
            chi[a] = kronecker(d, a)
        else:
            chi[a] = chi[p] * chi[a // p]
        total += chi[a] * a
    total += 1  # the a = 1 term
    num = w * abs(total)
    h, rem = divmod(num, 2 * m)
    if rem or h == 0:
        raise AssertionError(f"analytic class number formula failed for D={d}")
    return h

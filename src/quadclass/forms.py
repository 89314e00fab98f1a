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

Two routes compute the same class data. This module is the
single-discriminant route (_core_info, behind class_group_info): it factors
every n = |D - b^2|/4 of its enumeration with one polynomial sieve, walks
its cycles, composes and takes the CF period in Python, and needs no numpy.
Bulk runs use the numpy batch of quadclass.batch, which is tested against
this route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from .arith import Discriminant, classify_discriminant, kronecker, primes_upto, smallest_prime_factors

__all__ = [
    "ClassGroupInfo",
    "ClassRep",
    "Form",
    "UNIT_NORM_NOT_APPLICABLE",
    "analytic_h_imaginary",
    "class_group_info",
    "compose",
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
    # Striking p from row i divides p^e out of rem[i] and grows the row by
    # the layers p, p^2, ..., p^e times its divisors, each capped at his[i].
    for i, n in enumerate(ns):
        if not n & 1:
            row = layer = divs[i]
            top = his[i] >> 1
            while not n & 1:
                n >>= 1
                layer = [v << 1 for v in layer if v <= top]
                row += layer
            rem[i] = n
    b0 = bs[0]
    for p in primes_upto(math.isqrt(max(ns)))[1:]:
        dp = d % p
        if dp and pow(dp, (p - 1) >> 1, p) != 1:
            continue
        r = _sqrt_mod(dp, p)
        half = (p + 1) >> 1  # 2^-1 (mod p)
        for root in (r, p - r) if r else (0,):
            for i in range((root - b0) * half % p, m, p):
                n = rem[i] // p
                row = divs[i]
                top = his[i] // p
                layer = [v * p for v in row if v <= top]
                row += layer
                while not n % p:
                    n //= p
                    layer = [v * p for v in layer if v <= top]
                    row += layer
                rem[i] = n
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

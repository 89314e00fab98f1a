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
single-discriminant route (_core_info, behind class_group_info): it lists
the reduced forms by their first coefficient a <= sqrt|D|, from the square
roots of D mod 4a (_roots_mod_2a; Cohen, GTM 138, 5.3-5.6), walks its
cycles, composes and takes the CF period in Python, and needs no numpy. Its
memory is the reduced forms themselves, held once: for D > 0 they stream
into the map from each form to its cycle. The surveys use the numpy batch
of quadclass.batch, which is tested against this route.
"""

from __future__ import annotations

import math
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


class ClassRep:
    """A form class, canonicalized to the least (a, b, c) of its rho-cycle.

    Two ClassReps are equal iff their canonical forms are equal; for D < 0
    every cycle is a singleton and cycle_length is 1. Immutable.
    """

    __slots__ = ("canonical_form", "cycle_length")

    def __init__(self, canonical_form: Form, cycle_length: int):
        object.__setattr__(self, "canonical_form", canonical_form)
        object.__setattr__(self, "cycle_length", cycle_length)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.canonical_form == other.canonical_form

    def __hash__(self):
        return hash((self.canonical_form,))

    def __repr__(self):
        return f"ClassRep(canonical_form={self.canonical_form!r}, cycle_length={self.cycle_length})"

    def __reduce__(self):
        return ClassRep, (self.canonical_form, self.cycle_length)


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
    # The rho step of _rho, but while |c| > fl it takes r = -b (mod 2|c|) in
    # (-|c|, |c|], so that |c| shrinks at least fourfold per step until it is
    # at most fl; a few rho steps then land on a reduced form with a > 0.
    while a < 0 or not _is_reduced_pos(a, b, c, D):
        s = 2 * c if c > 0 else -2 * c
        m = max(fl, s >> 1)
        r = m - (m + b) % s
        a, b, c = c, r, (r * r - D) // (4 * c)
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


def _roots_mod_2a(d, top):
    """(a, roots) for each a <= top at which b^2 = d (mod 4a) is solvable,
    roots being its solutions b as residues mod 2a; a comes in no order.

    The powers a = 2^k start the search: their roots are lifted one bit at a
    time from b = d (mod 2). Odd prime powers p^e <= top then extend each a
    depth first, in ascending p: a root of d mod p (_sqrt_mod) Hensel-lifted
    to p^e where p does not divide d, else root 0 and e = 1, as d is
    fundamental; Chinese remaindering joins the roots. Only the a on the
    stack hold root lists.
    """
    stack = []
    a, s = 1, [d & 1]
    while s and a <= top:
        stack.append((a, s, 0))
        # b^2 = d (mod 8a) for b = r or r + 2a (mod 4a), r a root mod 2a
        s = [x for r in s for x in (r, r + 2 * a) if (x * x - d) % (8 * a) == 0]
        a *= 2
    # (p, a root r of d mod p, 1/(2r) mod p or 0 if r = 0) for each odd
    # p <= top with (d/p) != -1
    ps = []
    for p in primes_upto(top)[1:]:
        dp = d % p
        if not dp:
            ps.append((p, 0, 0))
        elif pow(dp, (p - 1) >> 1, p) == 1:
            r = _sqrt_mod(dp, p)
            ps.append((p, r, pow(2 * r, -1, p)))
    while stack:
        a, rs, i = stack.pop()
        yield a, rs
        m = 2 * a
        for j in range(i, len(ps)):
            p, r, w = ps[j]
            if a * p > top:
                break
            q = p
            while True:
                v = pow(m, -1, q)
                ys = (r, q - r) if r else (0,)
                stack.append((a * q, [x + m * ((y - x) * v % q) for x in rs for y in ys], j + 1))
                if not r or a * q * p > top:
                    break
                r += q * ((d - r * r) // q * w % p)  # Hensel: a root mod qp
                q *= p


def _reduced_forms_neg(d):
    # For each root r (mod 2a) the one b in (-a, a] with b = r gives the
    # reduced (a, b, c) when c >= a, with b >= 0 if c = a.
    out = []
    for a, roots in _roots_mod_2a(d, math.isqrt(-d // 3)):
        for b in roots:
            if b > a:
                b -= 2 * a
            c = (b * b - d) // (4 * a)
            if c > a or c == a and b >= 0:
                out.append((a, b, c))
    return out


def _reduced_forms_pos(d, fl):
    # The reduced forms of d with a > 0: (a, b, (b^2 - d)/4a) for each b of a
    # root class mod 2a in [max(1, fl + 1 - 2a, 2a - fl), fl] (fl = isqrt(d)),
    # the exact form of sqrt(d) - b < 2a < sqrt(d) + b, 0 < b < sqrt(d). The
    # window is at most 2a long, so each root gives at most one b. The mirrors
    # (-a, b, -c) are the a < 0 half; rho sends (a, b, c) to (c, ., .) and
    # ac < 0, so a alternates in sign around every cycle and each cycle holds
    # a form of each half. A generator, so its caller holds the forms once.
    for a, roots in _roots_mod_2a(d, fl):
        t = 2 * a
        lo = max(1, fl + 1 - t, t - fl)
        for r in roots:
            b = lo + (r - lo) % t
            if b <= fl:
                yield a, b, (b * b - d) // (4 * a)


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


def _square(a, b, c):
    """_compose_raw(f, f) for f = (a, b, c) with a > 0 and b >= 0, in one
    extended Euclid: with g = gcd(a, b), u*b = g (mod a) and v = a/g, the
    square is (v^2, b + 2vr, (cg + r(b + vr)) / v) for r = -uc mod v."""
    g, u, _ = _xgcd(b, a)
    v = a // g
    r = -u * c % v
    return v * v, b + 2 * v * r, (c * g + r * (b + v * r)) // v


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
    # Lagrange: a nontrivial 3-torsion element needs 3 | h, and when 3 || h the
    # 3-Sylow subgroup has order 3, so the count is 3. Classes come in
    # inverse pairs (a, b, c) <-> (a, -b, c) with the same answer, so only
    # the b >= 0 forms among the reduced forms listed are squared.
    if h % 9 != 0:
        return 3 if h % 3 == 0 else 1
    count = 0
    for a, b, c in forms:
        if b < 0:
            continue
        if _reduce_neg(*_square(a, b, c)) == _reduce_neg(a, -b, c):
            count += 2 if 0 < b < a < c else 1
    return count


def _three_torsion_pos(d, fl, reps, owner):
    # reps holds one reduced form of each class; one rho step takes it to a
    # reduced form (a, b, c) of its class with a > 0, which _square needs.
    # Only 9 | h+ needs squaring, as for _three_torsion_neg.
    if len(reps) % 9 != 0:
        return 3 if len(reps) % 3 == 0 else 1
    count = 0
    for f in reps:
        a, b, c = _rho(*f, d, fl)
        if owner[_reduce_pos(*_square(a, b, c), d, fl)] == owner[_reduce_pos(c, b, a, d, fl)]:
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


class ClassGroupInfo(NamedTuple):
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
    its reduced forms listed by a (_roots_mod_2a)."""
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

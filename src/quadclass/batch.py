"""Batched class data for the surveys, in numpy.

The surveys compute their class data here alone. For D > 0,
_batch_core_info works over one pos_table, a block of discriminants at a
time: every (D, b) row's window of divisors is found by one bisection of its
table row at once, and the cycles are labelled by bounded rounds of pointer
doubling on rho^2 = pi^2, pi being a rho step and a negation, a permutation
of the a > 0 forms that one argsort inverts. It reads the unit norm off the
cycle labels (it is -1 exactly when (-1, b, c) lies in the principal
cycle). For D < 0, _neg_rows counts the reduced forms of every |D| at once,
one strided progression of c per (a, b) (Cohen, GTM 138, 5.3), with no
table. Either sign reads r3 off one count of binary cubic forms:
3^r3 = 2 N(D) + 1, N(D) the cubic fields of discriminant D (Delone-Faddeev;
Hasse, Math. Z. 31, 1930), each one reduced form, by its Hessian for D > 0
(_cubic_counts) and by the factor of its real root for D < 0
(_neg_cubic_counts). No class of either sign is composed, and no r3 is read
off h, so the checks 3^r3 | h and 3 | h => r3 > 0 tie two counts. The rows,
one int64 array, equal those of forms._core_info, the single-discriminant
route, which needs no numpy, squares every class, and is the reference the
batch is tested against.

Unlike arith, this module imports numpy at its top: only experiments imports
it, where a discriminant is computed, by which time numpy is loaded.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import _largest_n

__all__ = ["divisor_table", "pos_table"]


# ----------------------------------------------------------------------
# the tables: divisors of D > 0, and cubic fields of either sign
# ----------------------------------------------------------------------

def divisor_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The divisors of every 1 <= n <= limit, ascending, as compressed sparse rows.

    Returns int32 arrays (offsets, divisors): the divisors of n are
    divisors[offsets[n]:offsets[n + 1]], and row 0 is empty. With
    s = isqrt(limit), each row lists n's divisors d <= s by ascending d, then
    its divisors n/k > s by descending k <= s, so the build is 2s strided
    numpy passes with no per-n loop. Its size is arith.divisor_table_bytes(limit),
    about 4 * limit * (ln limit + 1) bytes.
    """
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


def pos_table(max_d):
    """(offsets, divisors, fields) = divisor_table(_largest_n(max_d)) and
    _cubic_counts(max_d), for the D > 0 up to max_d; the count, first, frees
    its int64 temporaries before the table is built."""
    fields = _cubic_counts(max_d)
    return (*divisor_table(_largest_n(max_d)), fields)


def _cubic_counts(x):
    """N(delta) for each 0 <= delta <= x, as uint8 from one bincount: the
    reduced binary cubic forms (a, b, c, d), a >= 1, of discriminant delta.

    Reduced means the Hessian P x^2 + Q xy + R y^2, P = b^2 - 3ac,
    Q = bc - 9ad, R = c^2 - 3bd, has 0 <= Q <= P <= R (Belabas, Math. Comp.
    66, 1997), so 3 delta = 4PR - Q^2 >= 3P^2. The cubic covariant at (1, 0),
    2bP - 3aQ, squares to 4P^3 - 27 delta a^2, so H(b, -3a) = P^2: then
    b^2 + 9a^2 <= P if b < 0 and b^2 - 3ab + 9a^2 <= P if b > 0 bound a and
    b. c runs over 1 <= P <= sqrt x, d over 0 <= Q <= P and P <= R, and
    R <= (3x + P^2)/(4P) by delta <= x; when b = 0, R = c^2 does not involve
    d, so the R cuts select c. Every product stays below 4x.

    For a fundamental D, N(D) counts the (3^r3 - 1)/2 cubic fields of
    discriminant D (Delone-Faddeev; Hasse): the reducible class Z x O_K has
    a = 0, as its Hessian x^2 + bxy + ((b^2 + 3D)/4) y^2 is 1 only at
    +-(1, 0), and no reduced form of a fundamental D in the tests' range lies
    on the boundary Q = 0, Q = P or P = R, where it would need a tie-break.
    """
    s, t = math.isqrt(x), math.isqrt(16 * x)  # floor(sqrt x), floor(4 sqrt x)
    deltas = [np.empty(0, np.int32)]
    for a in range(1, math.isqrt(t // 27) + 1):  # 27a^2 <= 4 sqrt x
        b = np.arange(-math.isqrt(max(s - 9 * a * a, 0)),
                      (3 * a + math.isqrt(t - 27 * a * a)) // 2 + 1, dtype=np.int64)
        lo, hi = -((s - b * b) // (3 * a)), (b * b - 1) // (3 * a)
        k = np.maximum(hi - lo + 1, 0)
        i = np.repeat(np.arange(len(b)), k)
        b, c = b[i], lo[i] + np.arange(len(i)) - (np.cumsum(k) - k)[i]
        p, cc = b * b - 3 * a * c, c * c
        top = (3 * x + p * p) // (4 * p)  # the most R
        lo, hi = -((p - b * c) // (9 * a)), b * c // (9 * a)  # 0 <= Q <= P
        # P <= R = c^2 - 3bd <= top: a window of d, or of c when b = 0
        e, u, v = np.where(b == 0, 1, 3 * b), np.where(b > 0, top, p), np.where(b > 0, p, top)
        lo = np.where(b == 0, lo, np.maximum(lo, -((u - cc) // e)))
        hi = np.where(b == 0, np.where((p <= cc) & (cc <= top), hi, lo - 1),
                      np.minimum(hi, (cc - v) // e))
        k = np.maximum(hi - lo + 1, 0)
        i = np.repeat(np.arange(len(k)), k)
        b, c, p = b[i], c[i], p[i]
        d = lo[i] + np.arange(len(i)) - (np.cumsum(k) - k)[i]
        q, r = b * c - 9 * a * d, c * c - 3 * b * d
        delta = (4 * p * r - q * q) // 3
        deltas.append(delta[delta <= x].astype(np.int32))
    return _tally(deltas, x, 1)


def _neg_cubic_counts(x):
    """N(n) for each 0 <= n <= x, as uint8 from one bincount: the reduced
    binary cubic forms (a, b, c, d), a >= 1, of discriminant -n.

    A form of discriminant < 0 is (X - t Y) phi, t its one real root and
    phi = (A, B, C) = (a, at + b, at^2 + bt + c) positive definite; reduced
    means 0 < B < A < C, one form of each GL2(Z) class. As
    F(s, 1) = a (s - t) phi(s, 1) has the sign of s - t, the three are the
    integer tests F(-b, a) < 0, F(a - b, a) > 0 and -ad F(-d, a) > 0 (d and t
    differ in sign): bc - ad > 0, (a - b)^2 + c(a - b) + ad > 0 and
    d^2 - bd + ac - a^2 > 0. None is an equality unless t is rational.
    n = (4AC - B^2) phi(t, 1)^2 >= 27aC^3/16 bounds a and C, and
    n >= 3 w^4, w = at + B/2, bounds b = 3B/2 - w and c = C + B(B/2 - w)/a.
    d runs between the roots (9abc - 2b^3 -+ sqrt(4P^3 + 27a^2 x))/(27a^2),
    P = b^2 - 3ac, of 27a^2 d^2 - (18abc - 4b^3) d + 4ac^3 - b^2 c^2 = n <= x,
    and (bc - (a - b)^2 - ac)/a < d < bc/a. The radicand stays below 2^53,
    where _isqrt_np is exact, up to x = 4·10^8 + 4 (2.2·10^15 there).

    For a fundamental D < 0, N(-D) counts the (3^r3 - 1)/2 cubic fields of
    discriminant D (Delone-Faddeev; Hasse): the one reducible class,
    Z x O_K, has a rational root and so no reduced form.
    """
    r = math.isqrt(math.isqrt(16 * x // 3))  # floor(2 (x/3)^(1/4)), 2|w| < r + 1
    deltas = [np.empty(0, np.int32)]
    a = 1
    while 27 * a**4 < 16 * x:
        top = int((16 * x / (27 * a)) ** (1 / 3)) + 1  # C < top
        b, c = (g.ravel() for g in np.meshgrid(
            np.arange(-(r // 2), (3 * a + r) // 2 + 1, dtype=np.int64),
            np.arange(a - r // 2, top + (a + r) // 2 + 1, dtype=np.int64)))
        k, m = 9 * a * b * c - 2 * b**3, 27 * a * a
        s = 4 * (b * b - 3 * a * c) ** 3 + m * x
        on = s >= 0
        b, c, k, s = b[on], c[on], k[on], _isqrt_np(s[on])
        lo = np.maximum(-((s - k) // m), (b * c - (a - b) ** 2 - a * c) // a + 1)
        width = np.maximum(np.minimum((k + s) // m, (b * c - 1) // a) - lo + 1, 0)
        i = np.repeat(np.arange(len(width)), width)
        b, c = b[i], c[i]
        d = lo[i] + np.arange(len(i)) - (np.cumsum(width) - width)[i]
        n = (m * d + 4 * b**3 - 18 * a * b * c) * d + (4 * a * c - b * b) * c * c
        deltas.append(n[(n > 0) & (d * d - b * d + a * c > a * a)].astype(np.int32))
        a += 1
    return _tally(deltas, x, -1)


def _tally(deltas, x, sign):
    """N(n) for each 0 <= n <= x, as uint8, from one bincount of the int32
    arrays deltas, the |discriminant| of each listed form of sign sign."""
    n = np.bincount(np.concatenate(deltas), minlength=x + 1)
    if n.max() > 255:
        raise AssertionError(f"{n.max()} reduced cubic forms of D={sign * n.argmax()} "
                             "exceed uint8")
    return n.astype(np.uint8)


# ----------------------------------------------------------------------
# batched class data of D > 0 over a divisor table
# ----------------------------------------------------------------------

# The most b-rows in one block of _batch_core_info (a block holds at least one
# discriminant): its temporaries are a few arrays of this length and of the
# block's forms, under 2 MB at |D| ~ 4·10^4.
_BLOCK_ROWS = 1 << 12


def _batch_core_info(ds, table):
    """The rows (d, h_plus, h, unit_norm, r3) of the trusted fundamental d > 0
    of ds, in order, as one (len(ds), 5) int64 array: row i is
    (ds[i],) + _core_info(ds[i]).

    table is a pos_table covering every D of ds; a divisor table that misses
    an n the enumeration of ds meets is refused with ValueError. Each block
    (_block_rows) is the longest run of ds with at most _BLOCK_ROWS rows
    b = d (mod 2), 0 < b <= isqrt(d), or one d, cut by searchsorted over the
    row counts.
    """
    d = np.array(ds, np.int64)
    fl = _isqrt_np(d)
    b0 = 2 - (d & 1)
    count = ((fl - b0) >> 1) + 1
    ends = np.cumsum(count)
    out, start = [np.empty((0, 5), np.int64)], 0
    while start < len(d):
        top = ends[start] - count[start] + _BLOCK_ROWS
        stop = max(int(np.searchsorted(ends, top, "right")), start + 1)
        i = slice(start, stop)
        out.append(_block_rows(d[i], fl[i], b0[i], count[i], *table))
        start = stop
    return np.concatenate(out)


def _bisect(dv, lo, hi, x):
    """For each i, the first j in [lo[i], hi[i]) with dv[j] >= x[i], or hi[i]:
    bisect_left on every sorted run dv[lo[i]:hi[i]] at once, in steps of
    descending powers of two. _block_rows calls it once per row, for the
    lower end of the row's window."""
    pos = lo
    for p in range(int((hi - lo).max()).bit_length() - 1, -1, -1):
        ahead = pos + (1 << p)
        pos = np.where((ahead <= hi) & (dv.take(ahead - 1, mode="clip") < x), ahead, pos)
    return pos


def _block_rows(d, fl, b0, count, off, dv, fields):
    """_batch_core_info of one block d, with fl = isqrt(d), and b0 and
    count the first b and the number of each d's rows.

    Every (D, b) row of the block is built with np.repeat, and its window
    L = (F - b + 2) >> 1 <= a <= U = (F + b) >> 1, F = isqrt(D), of divisors
    a of n = (D - b^2) / 4 is found by one bisection, for its lower end: as
    (2a)(2n/a) = D - b^2, a < L exactly when n/a > U, so the row holds as
    many divisors above U as below L. The a > 0 reduced forms are listed by
    (D, b, a) (_pos_rows), and fields is pos_table's count of cubic fields.
    """
    j = np.repeat(np.arange(len(d)), count)  # the block index of each row
    b = b0[j] + 2 * (np.arange(len(j)) - (np.cumsum(count) - count)[j])
    n = (d[j] - b * b) >> 2
    if n.max() > len(off) - 2:
        raise ValueError(f"divisor table up to n = {len(off) - 2} does not cover "
                         f"D={d[j[n.argmax()]]}")
    start = off[n].astype(np.int64)
    end = off[n + 1].astype(np.int64)
    lo = _bisect(dv, start, end, (fl[j] - b + 2) >> 1)
    width = end - (lo - start) - lo
    r = np.repeat(np.arange(len(j)), width)  # the row of each form
    a = dv[lo[r] + np.arange(len(r)) - (np.cumsum(width) - width)[r]].astype(np.int64)
    return _pos_rows(d, fl, j[r], a, b[r], -(n[r] // a), fields)


# The int64 arithmetic of the D > 0 batch is exact up to D = 4·10^8 + 4,
# beyond which no divisor_table covers a D. Listed forms have 0 < a <= sqrt D,
# 0 <= b <= sqrt D and |c| <= D/3, and keys stay below k * (sqrt D + 1)^2
# for k discriminants.

def _pos_rows(d, fl, j, a, b, c, fields):
    """The rows of a block of discriminants d > 0 from their a > 0 reduced
    forms (a, b, c), listed by (block index j, b, a).

    pi, a rho step (a, b, c) -> (c, b1, c1) followed by negating a and c,
    permutes the forms of each D, as reduction ignores the signs. One argsort
    of the keys of the images inverts it, a key that does not match names
    the first broken D, and pi(pi(f)) = rho(rho(f)) is the next a > 0 form
    of the cycle of f. No cycle is longer than its D's count of forms, so
    ceil(log2) of the most forms of one D doubling rounds label every form
    with the least index of its cycle, checked once. h+ counts the roots,
    the forms that are their own label, and 3^r3 is 2 fields[d] + 1.
    """
    F = fl[j]
    b1 = F - (F + b) % (-2 * c)  # rho: (a, b, c) -> (c, b1, .), c < 0
    m = int(fl.max()) + 1  # a reduced form has 0 < a, b <= isqrt(D)
    key = (j * m + b) * m + a  # ascending
    x = (j * m + b1) * m - c  # the pi images, a permutation of key
    order = np.argsort(x)
    lost = x[order] != key
    if lost.any():
        i = int(lost.argmax())
        raise AssertionError("a rho^2 image is missing from the reduced forms of "
                             f"D={d[min(j[i], j[order[i]])]}")
    half = np.empty_like(order)
    half[order] = np.arange(len(key))
    nxt = half[half]
    label = np.arange(len(key))
    for i in range(int(np.bincount(j).max() - 1).bit_length()):
        jump = jump[jump] if i else nxt
        np.minimum(label, label[jump], out=label)
    if (label[nxt] != label).any():
        raise AssertionError("the cycle labels did not settle for "
                             f"D={d[j[(label[nxt] != label).argmax()]]}")
    root = label == np.arange(len(key))
    h_plus = np.bincount(j[root], minlength=len(d))

    def label_of(jj, bb, aa):
        # the cycle label of each reduced form (aa, bb, .) of d[jj]
        x = (jj * m + bb) * m + aa
        i = np.minimum(np.searchsorted(key, x), len(key) - 1)
        lost = key[i] != x
        if lost.any():
            raise AssertionError("a reduced form is missing from the reduced forms of "
                                 f"D={d[jj[lost.argmax()]]}")
        return label[i]

    count = 2 * fields[d].astype(np.int64) + 1
    return _checked_rows(d, h_plus, count, _unit_norms(d, fl, label_of))


def _unit_norms(d, fl, label_of):
    """The norm of the fundamental unit of each d > 0 of a block: -1 exactly
    when the reduced form (-1, b, c), b = fl - ((fl - d) & 1), lies in the
    principal cycle, that of (1, b, -c). One rho step sends (-1, b, c) to the
    a > 0 form (c, r, .) of its cycle."""
    j = np.arange(len(d))
    b = fl - ((fl - d) & 1)
    c = (d - b * b) >> 2
    r = fl - (fl + b) % (2 * c)
    return np.where(label_of(j, b, 1) == label_of(j, r, c), -1, 1)


def _checked_rows(d, h_plus, count, norm):
    """The rows (d, h_plus, h, unit_norm, r3) of a block, one int64 array
    filled column by column, from its int64 arrays of discriminants, (narrow)
    class numbers, 3-torsion counts and unit norms (0 for d < 0), with
    _core_row's checks as masks and two that tie r3 to h, 3^r3 | h and
    3 | h => r3 > 0: the first d that fails one raises its first message."""
    rows = np.empty((len(d), 5), np.int64)
    rows[:, 0], rows[:, 1], rows[:, 3] = d, h_plus, norm
    h, r3 = rows[:, 2], rows[:, 4]
    np.right_shift(h_plus, norm == 1, out=h)  # h = h+/2 when the norm is +1
    pow3 = 3 ** np.arange(21, dtype=np.int64)  # 3^20 exceeds any h+ a table can cover
    r3[:] = np.searchsorted(pow3, count)
    np.minimum(r3, 20, out=r3)
    bad_norm = (norm == 1) & (h_plus & 1 == 1)
    p = pow3[r3]
    bad_count = p != count
    p[r3 == 0] = 3  # 3^r3 | h where r3 > 0, and 3 does not divide h where r3 = 0
    bad_h = (np.remainder(h, p, out=p) == 0) != (r3 > 0)
    bad = bad_count | bad_norm | bad_h
    if bad.any():
        i = int(bad.argmax())
        if bad_count[i]:
            raise AssertionError(f"3-torsion count {count[i]} is not a power of 3 "
                                 f"for D={d[i]}")
        if bad_norm[i]:
            raise AssertionError(f"unit norm +1 with odd narrow class number for D={d[i]}")
        raise AssertionError(f"3-torsion count {count[i]} does not match h={h[i]} "
                             f"for D={d[i]}")
    return rows


# ----------------------------------------------------------------------
# class data of D < 0 from counts of reduced forms
# ----------------------------------------------------------------------

# The widest gap between neighbouring |D| that one count of h in _neg_rows
# spans (its count of cubic forms covers [0, max |D|] whatever the gaps). A
# count of h costs a round of numpy calls per a <= isqrt(max |D|/3), each
# over every n = lo + g t of its span, so with g = 1 a gap of about 2^16
# costs as much as a count of its own: at |D| ~ 6.4·10^6, one D takes 0.1 s
# alone, and [-6402243, -4, -3] took 18 s as one count.
_GAP = 1 << 16


def _neg_rows(ds):
    """The rows (d, h_plus, h, unit_norm, r3) of the distinct trusted
    fundamental d < 0 of ds, in order, as one (len(ds), 5) int64 array: row i
    is (ds[i],) + _core_info(ds[i]).

    The 3-torsion count of each D is 2 N(|D|) + 1, N the one count of
    reduced binary cubic forms of discriminant -n over 0 <= n <= max |D|
    (_neg_cubic_counts), made first, before any array of h. For h the |D| are
    counted in runs, split where neighbouring |D| are more than _GAP apart.
    The n = |D| of a run are lo + g t, with lo its least |D|, g the gcd of
    their differences (any g >= 1 serves one D) and t >= 0. _class_counts
    counts the reduced forms of every such n at once, and for a fundamental D
    these are its h classes. No r3 is read off h, so the checks 3^r3 | h and
    3 | h => r3 > 0 tie two counts.
    """
    n = -np.array(ds, np.int64)
    count = 2 * _neg_cubic_counts(int(n.max()))[n].astype(np.int64) + 1
    h = np.empty_like(n)
    order = np.argsort(n)
    for run in np.split(order, np.flatnonzero(np.diff(n[order]) > _GAP) + 1):
        lo = int(n[run[0]])
        g = int(np.gcd.reduce(n[run] - lo)) or 1
        t = (n[run] - lo) // g
        h[run] = _class_counts(lo, g, int(t[-1]) + 1)[t]
    d = np.negative(n, out=n)  # ds as an array, held once
    return _checked_rows(d, h, count, np.zeros(len(d), np.int64))


def _diagonal(a, lo, g, size):
    """(b, t) of the forms (a, b, a), 0 <= b <= a, whose n = 4a^2 - b^2 is
    lo + g t for some 0 <= t < size, one t per b."""
    b = np.arange(a + 1, dtype=np.int64)
    r = 4 * a * a - b * b - lo
    keep = (r >= 0) & (r % g == 0) & (r < g * size)
    return b[keep], r[keep] // g


def _progressions(a, lo, g, size):
    """(b, t, s): the b, 0 <= b <= a, that have forms (a, b, c) with c > a
    of some n = lo + g t, t < size, the least such t of each, and the step s
    of those t. The n of (a, b, c) are -b^2 (mod 4a), from c = a + 1 on, so
    with e = gcd(4a, g) the t solve (g/e) t = (-b^2 - lo)/e (mod s = 4a/e),
    which needs e | b^2 + lo."""
    e = math.gcd(4 * a, g)
    s = 4 * a // e
    b = np.arange(a + 1, dtype=np.int64)
    r = -b * b - lo
    b, r = b[r % e == 0], r[r % e == 0]
    t = r // e * pow(g // e, -1, s) % s
    least = -(-(4 * a * (a + 1) - b * b - lo) // g)  # the t of c = a + 1, rounded up
    t += s * np.maximum(-(-(least - t) // s), 0)
    keep = t < size
    return b[keep], t[keep], s


def _class_counts(lo, g, size):
    """The number of reduced forms of discriminant -n, for each
    n = lo + g t with 0 <= t < size, as an int32 array.

    A reduced form (a, b, c) has |b| <= a <= c, with b >= 0 when |b| = a or
    a = c, so 3a^2 <= n. For each a, the forms with c = a are the (a, b, a)
    with 0 <= b <= a (_diagonal). For c > a, (a, b, c) stands for itself and
    (a, -b, c) when 0 < b < a, and for itself alone when b is 0 or a; its t
    run from a first t in steps of s (_progressions). Viewed as rows of s
    counts, such a progression is one column from one row on: the rows where
    progressions start get a running sum of the starts, and each later row
    all of them.
    """
    top = math.isqrt((lo + g * (size - 1)) // 3)
    count = np.zeros(size + 4 * top, np.int32)  # rows of s <= 4a counts cover size
    for a in range(1, top + 1):
        count[_diagonal(a, lo, g, size)[1]] += 1
        b, t, s = _progressions(a, lo, g, size)
        if not len(t):
            continue
        two = (0 < b) & (b < a)
        row, col = np.divmod(t, s)
        first, last = int(row.min()), int(row.max())
        view = count[: -(-size // s) * s].reshape(-1, s)
        if last > first:
            cell = (row - first) * s + col
            cells = (last - first + 1) * s
            starts = np.bincount(cell, minlength=cells) + np.bincount(cell[two], minlength=cells)
            view[first:last] += starts.reshape(-1, s).cumsum(0)[:-1]
        view[last:] += np.bincount(col, minlength=s) + np.bincount(col[two], minlength=s)
    return count[:size]


def _isqrt_np(x):
    """math.isqrt of every int64 x >= 0 below 2^53, from the float root,
    which is then off by at most one."""
    r = np.sqrt(x).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r

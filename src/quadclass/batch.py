"""Batched class data for the surveys, in numpy.

The surveys compute their class data here alone. For D > 0,
_batch_core_info works over one divisor_table, a block of discriminants at a
time: every (D, b) row's window of divisors is found by one bisection of its
table row at once, and the cycles are labelled by pointer doubling on the
permutation that two rho steps induce on the a > 0 forms, inverted by one
argsort. It reads the unit norm off the cycle labels (it is -1 exactly when
(-1, b, c) lies in the principal cycle). For D < 0, _neg_rows counts the
reduced forms of every |D| at once, one strided progression of c per
(a, b) (Cohen, GTM 138, 5.3), with no table. For the 3-torsion test both
square and reduce in numpy the classes of each D with 9 | h(+) only
(3 || h(+) gives 3, the order of the 3-Sylow subgroup), and both check the
invariants as masks. Their rows, one int64 array, equal those of
forms._core_info, the single-discriminant route, which needs no numpy and is
the reference the batch is tested against.

Unlike arith, this module imports numpy at its top: only experiments imports
it, where a discriminant is computed, by which time numpy is loaded.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import divisor_table_bytes  # noqa: F401  (re-exported)

__all__ = ["divisor_table", "divisor_table_bytes"]


# ----------------------------------------------------------------------
# divisor table
# ----------------------------------------------------------------------

def _b_range(d):
    # The b of the batch's enumeration of d > 0: b = d (mod 2), 0 < b <= isqrt(d).
    return range(2 - (d & 1), math.isqrt(d) + 1, 2)


def divisor_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The divisors of every 1 <= n <= limit, ascending, as compressed sparse rows.

    Returns int32 arrays (offsets, divisors): the divisors of n are
    divisors[offsets[n]:offsets[n + 1]], and row 0 is empty. With
    s = isqrt(limit), each row lists n's divisors d <= s by ascending d, then
    its divisors n/k > s by descending k <= s, so the build is 2s strided
    numpy passes with no per-n loop. Its size is divisor_table_bytes(limit),
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

    table is a divisor_table covering every n the enumeration of ds meets; a
    shorter one is refused with ValueError. The rows are computed a block of
    at most _BLOCK_ROWS b-rows at a time (_block_rows).
    """
    out = [np.empty((0, 5), np.int64)]
    block, ranges, rows = [], [], 0
    for d in ds:
        bs = _b_range(d)
        if block and rows + len(bs) > _BLOCK_ROWS:
            out.append(_block_rows(block, ranges, *table))
            block, ranges, rows = [], [], 0
        block.append(d)
        ranges.append(bs)
        rows += len(bs)
    if block:
        out.append(_block_rows(block, ranges, *table))
    return np.concatenate(out)


def _bisect(dv, lo, hi, x):
    """For each i, the first j in [lo[i], hi[i]) with dv[j] >= x[i], or hi[i]:
    bisect_left on every sorted run dv[lo[i]:hi[i]] at once. _block_rows
    calls it once per row, for the lower end of the row's window."""
    size = hi - lo
    for _ in range(int(size.max()).bit_length()):
        half = size >> 1
        go = (size > 0) & (dv.take(lo + half, mode="clip") < x)
        lo = np.where(go, lo + half + 1, lo)
        size = np.where(go, size - half - 1, half)
    return lo


def _block_rows(block, ranges, off, dv):
    """_batch_core_info of one block of discriminants, with
    ranges[i] = _b_range(block[i]).

    Every (D, b) row of the block is built with np.repeat, and its window
    L = (F - b + 2) >> 1 <= a <= U = (F + b) >> 1, F = isqrt(D), of divisors
    a of n = (D - b^2) / 4 is found by one bisection, for its lower end: as
    (2a)(2n/a) = D - b^2, a < L exactly when n/a > U, so the row holds as
    many divisors above U as below L. The a > 0 reduced forms are listed by
    (D, b, a) (_pos_rows). All that stays per D in Python is building the
    output rows.
    """
    k = len(block)
    d = np.array(block, np.int64)
    b0 = np.array([bs.start for bs in ranges], np.int64)
    count = np.array([len(bs) for bs in ranges], np.int64)
    fl = np.array([math.isqrt(x) for x in block], np.int64)
    j = np.repeat(np.arange(k), count)  # the block index of each row
    b = b0[j] + 2 * (np.arange(len(j)) - (np.cumsum(count) - count)[j])
    n = (d[j] - b * b) >> 2
    if n.max() > len(off) - 2:
        raise ValueError(f"divisor table up to n = {len(off) - 2} does not cover "
                         f"D={block[int(j[n.argmax()])]}")
    start = off[n].astype(np.int64)
    end = off[n + 1].astype(np.int64)
    lo = _bisect(dv, start, end, (fl[j] - b + 2) >> 1)
    width = end - (lo - start) - lo
    r = np.repeat(np.arange(len(j)), width)  # the row of each form
    a = dv[lo[r] + np.arange(len(r)) - (np.cumsum(width) - width)[r]].astype(np.int64)
    return _pos_rows(block, d, fl, j[r], a, b[r], -(n[r] // a))


# The batch's int64 arithmetic is exact up to |D| = 4·10^8 + 4, beyond which
# no divisor_table covers a D > 0; the survey limit keeps the |D| of D < 0
# far below it. Listed forms have 0 < a <= sqrt|D|,
# 0 <= b <= sqrt|D| and |c| <= |D|/3, and keys stay below k * (sqrt|D| + 1)^2
# for k discriminants. _square_np's products stay below 2|D|^1.5, and the
# square (A, B, C) has 0 < A < |D|, 0 <= B < 2|D| + sqrt|D| and
# |C| < |D| + sqrt|D|. For D < 0, every later value of _reduce_neg_np is below
# 4|D|, as each translation lands on a c below |D|. For D > 0, a rho step of
# _reduce_pos_np from a form with third coefficient c takes an r with
# |r| <= |c| while |c| > sqrt(D), else |r| < 2|c| + sqrt(D) <= 3 sqrt(D), and
# the next third coefficient is at most max(|c|, sqrt D) in magnitude, so
# every rho step of the batch has r^2 < (D + sqrt D)^2 < 2^63.
# The reduced test of _reduce_pos_np compares 2a - b and 2a + b with isqrt(D)
# and squares nothing.

def _pos_rows(block, d, fl, j, a, b, c):
    """The rows of a block of D > 0 from its a > 0 reduced forms (a, b, c),
    listed by (block index j, b, a).

    Two rho steps send each form to the next a > 0 form of its cycle, so the
    (j, b, a) keys of the images are a permutation of the ascending keys of
    the forms: one argsort of the images inverts it, and a key that does not
    match names the first broken D. Pointer doubling labels every form with
    the least index of its cycle, so h+ counts the forms that are their own
    label (the roots).
    """
    k = len(block)
    D, F = d[j], fl[j]
    b1 = F - (F + b) % (-2 * c)
    c1 = (b1 * b1 - D) // (4 * c)  # rho: (a, b, c) -> (c, b1, c1), c1 > 0
    b2 = F - (F + b1) % (2 * c1)  # rho: -> (c1, b2, .)
    m = int(fl.max()) + 1  # a reduced form has 0 < a, b <= isqrt(D)
    key = (j * m + b) * m + a  # ascending

    x = (j * m + b2) * m + c1  # the rho^2 images, a permutation of key
    order = np.argsort(x)
    lost = x[order] != key
    if lost.any():
        i = int(lost.argmax())
        raise AssertionError("a rho^2 image is missing from the reduced forms of "
                             f"D={block[int(min(j[i], j[order[i]]))]}")
    nxt = np.empty_like(order)
    nxt[order] = np.arange(len(key))
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
        # the cycle label of each reduced form (aa, bb, .) of block[jj]
        x = (jj * m + bb) * m + aa
        i = np.minimum(np.searchsorted(key, x), len(key) - 1)
        lost = key[i] != x
        if lost.any():
            raise AssertionError("a reduced form is missing from the reduced forms of "
                                 f"D={block[int(jj[lost.argmax()])]}")
        return label[i]

    count = _torsion_pos(h_plus, j[root], a[root], b[root], c[root], D[root], F[root], label_of)
    return _checked_rows(block, h_plus, count, _unit_norms(d, fl, label_of))


def _torsion_pos(h_plus, j, a, b, c, D, F, label_of):
    """The 3-torsion count of each D > 0 of a block, from one reduced form
    (a, b, c) with a > 0 of each class, listed by block index j, and its
    narrow class numbers h_plus: the classes whose square and (c, b, a)
    reduce into one cycle, for the D with 9 | h+ only, whose classes alone
    are squared, else _sylow_count's 1 or 3 (_three_torsion_pos). The form
    (c, b, a) is reduced too, so one rho step takes it to the a > 0 form
    (a, F - (F + b) mod 2a, .) of its cycle."""
    k = len(h_plus)
    i = np.flatnonzero(h_plus[j] % 9 == 0)
    j, a, b, c, D, F = j[i], a[i], b[i], c[i], D[i], F[i]
    sa, sb, _ = _reduce_pos_np(*_square_np(a, b, c, *_xgcd_np(b, a)), D, F)
    hit = label_of(j, sb, sa) == label_of(j, F - (F + b) % (2 * a), a)
    return _sylow_count(h_plus, np.bincount(j[hit], minlength=k))


def _sylow_count(h, count):
    """The 3-torsion count of each class number h, given the squared count
    of every h with 9 | h: 1 when 3 does not divide h (Lagrange), 3 when
    3 || h, as the 3-Sylow subgroup then has order 3."""
    return np.where(h % 9 == 0, count, np.where(h % 3 == 0, 3, 1))


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


def _checked_rows(block, h_plus, count, norm):
    """The rows (d, h_plus, h, unit_norm, r3) of a block, an int64 array, from
    its arrays of (narrow) class numbers, 3-torsion counts and unit norms (0
    for d < 0), with _core_row's checks as masks: the first d that fails one
    raises _core_row's message."""
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
    return np.column_stack((block, h_plus, h, norm, r3)).astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# class data of D < 0 from one count of reduced forms
# ----------------------------------------------------------------------

# The widest gap between neighbouring |D| that one count of _neg_rows spans.
# A count costs a round of numpy calls per a <= isqrt(max |D|/3), each over
# every n = lo + g t of its span, so with g = 1 a gap of about 2^16 costs as
# much as a count of its own: at |D| ~ 6.4·10^6, one D takes 0.1 s alone,
# and [-6402243, -4, -3] took 18 s as one count.
_GAP = 1 << 16

# The least number of forms _neg_torsion squares at once (one a's forms may
# add more): its temporaries are a few int64 arrays of about this length. A
# survey at X = 10^6 peaks 5 to 10 MB higher with blocks of 2^16 forms, and
# takes no less time.
_BLOCK_FORMS = 1 << 13


def _neg_rows(ds):
    """The rows (d, h_plus, h, unit_norm, r3) of the distinct trusted
    fundamental d < 0 of ds, in order, as one (len(ds), 5) int64 array: row i
    is (ds[i],) + _core_info(ds[i]).

    The |D| are counted in runs, split where neighbouring |D| are more than
    _GAP apart. The n = |D| of a run are lo + g t, with lo its least |D|, g
    the gcd of their differences (any g >= 1 serves one D) and t >= 0.
    _class_counts counts the reduced forms of every such n at once, and for a
    fundamental D these are its h classes; _neg_torsion squares the classes
    of the D with 9 | h.
    """
    n = -np.array(ds, np.int64)
    h, count = np.empty_like(n), np.empty_like(n)
    order = np.argsort(n)
    for run in np.split(order, np.flatnonzero(np.diff(n[order]) > _GAP) + 1):
        lo = int(n[run[0]])
        g = int(np.gcd.reduce(n[run] - lo)) or 1
        t = (n[run] - lo) // g
        h[run] = _class_counts(lo, g, int(t[-1]) + 1)[t]
        count[run] = _neg_torsion(h[run], t, lo, g)
    return _checked_rows(ds, h, count, np.zeros(len(ds), np.int64))


def _diagonal(a, lo, g, size):
    """(b, t) of the forms (a, b, a), 0 <= b <= a, whose n = 4a^2 - b^2 is
    lo + g t for some 0 <= t < size, one t per b."""
    b = np.arange(a + 1, dtype=np.int64)
    r = 4 * a * a - b * b - lo
    keep = (r >= 0) & (r % g == 0) & (r < g * size)
    return b[keep], r[keep] // g


def _progressions(a, lo, g, size, c0):
    """(b, t, s): the b, 0 <= b <= a, that have forms (a, b, c) with c >= c0
    of some n = lo + g t, t < size, the least such t of each, and the step s
    of those t. The n of (a, b, c) are -b^2 (mod 4a), from c = c0 on, so with
    e = gcd(4a, g) the t solve (g/e) t = (-b^2 - lo)/e (mod s = 4a/e), which
    needs e | b^2 + lo."""
    e = math.gcd(4 * a, g)
    s = 4 * a // e
    b = np.arange(a + 1, dtype=np.int64)
    r = -b * b - lo
    b, r = b[r % e == 0], r[r % e == 0]
    t = r // e * pow(g // e, -1, s) % s
    least = -(-(4 * a * c0 - b * b - lo) // g)  # the t of c = c0, rounded up
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
        b, t, s = _progressions(a, lo, g, size, a + 1)
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


def _neg_torsion(h, t, lo, g):
    """The 3-torsion count of each D < 0 of _neg_rows, from its class number h
    and its t (|D| = lo + g t): the classes x with x^2 = x^-1, counting a
    mirror with its form, for the D with 9 | h only, whose classes alone are
    squared, else _sylow_count's 1 or 3 (_three_torsion_neg). t ascends."""
    pick = np.flatnonzero(h % 9 == 0)
    k = len(pick)
    hits = np.zeros(k, np.int64)
    for i, a, b, c, xg, xu in _picked_forms(t[pick], lo, g):
        mirror = (0 < b) & (b < a) & (a < c)
        sa, sb, sc = _reduce_neg_np(*_square_np(a, b, c, xg, xu))
        # the reduced inverse is (a, -b, c) for a mirrored form, else (a, b, c)
        hit = (sa == a) & (sb == np.where(mirror, -b, b)) & (sc == c)
        hits += np.bincount(i[hit], minlength=k) + np.bincount(i[hit & mirror], minlength=k)
    count = np.zeros(len(h), np.int64)
    count[pick] = hits
    return _sylow_count(h, count)


def _picked_forms(ts, lo, g):
    """The reduced forms (a, b, c) with b >= 0 of each n = lo + g ts[i], for
    the ascending ts, as blocks (i, a, b, c, *_xgcd_np(b, a)) of arrays, each
    of at least _BLOCK_FORMS forms but the last.

    They are gathered through the progressions of _class_counts, one a at a
    time, here from c = a on: ts[i] takes each b whose first t is ts[i]
    (mod s) and at most ts[i]. The extended Euclid of (b, a) is taken once
    per b of each a, not once per form.
    """
    if not len(ts):
        return
    size = int(ts[-1]) + 1
    block, held = [], 0
    for a in range(1, math.isqrt((lo + g * (size - 1)) // 3) + 1):
        b, t, s = _progressions(a, lo, g, size, a)
        col = t % s
        order = np.argsort(col, kind="stable")
        per = np.bincount(col, minlength=s)
        # ts[i] of residue r meets the per[r] progressions of that residue,
        # once |D| >= 3a^2
        first = int(np.searchsorted(ts, -(-(3 * a * a - lo) // g)))
        r = ts[first:] % s
        k = per[r]
        q = np.repeat(np.arange(len(r)), k)
        p = order[(np.cumsum(per) - per)[r][q] + np.arange(len(q)) - (np.cumsum(k) - k)[q]]
        i = q + first
        on = ts[i] >= t[p]
        i, b = i[on], b[p[on]]
        c = (lo + g * ts[i] + b * b) // (4 * a)
        bs = np.arange(a + 1, dtype=np.int64)
        xg, xu = _xgcd_np(bs, np.full_like(bs, a))
        block.append((i, np.full(len(i), a), b, c, xg[b], xu[b]))
        held += len(i)
        if held >= _BLOCK_FORMS:
            yield tuple(map(np.concatenate, zip(*block)))
            block, held = [], 0
    if held:
        yield tuple(map(np.concatenate, zip(*block)))


def _xgcd_np(x, y):
    """(g, u) with g = gcd(x, y) and u the coefficient of x of _xgcd(x, y),
    so u*x = g (mod y), for int64 arrays x >= 0 and y > 0. Euclid's steps
    are taken on the rows whose remainder is not yet 0 only."""
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


def _square_np(a, b, c, g, u):
    """_compose_raw(f, f) for every form f = (a, b, c) of int64 arrays with
    a > 0 and b >= 0, given (g, u) = _xgcd_np(b, a): with g = gcd(a, b),
    u*b = g (mod a) and v = a/g, the square is (v^2, b + 2vr, (cg + r(b + vr)) / v)
    for r = -uc mod v."""
    v = a // g
    r = -u * c % v
    return v * v, b + 2 * v * r, (c * g + r * (b + v * r)) // v


def _reduce_neg_np(a, b, c):
    """_reduce_neg on every row of int64 arrays; a row leaves the loop once
    it is reduced."""
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
    out = np.empty((3, len(a)), np.int64)
    i = np.arange(len(a))
    while len(i):
        done = (0 < b) & (b <= F) & (2 * a - b <= F) & (F < 2 * a + b)
        out[:, i[done]] = a[done], b[done], c[done]
        go = ~done
        i, a, b, c, D, F = i[go], a[go], b[go], c[go], D[go], F[go]
        m = np.maximum(F, np.abs(c))  # centred while |c| > F, as in _reduce_pos
        r = m - (m + b) % (2 * np.abs(c))  # rho: (a, b, c) -> (c, r, .)
        a, b, c = c, r, (r * r - D) // (4 * c)
    return out

import bisect
import itertools
import math
import pickle
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quadclass import arith, batch, experiments, forms
from quadclass.forms import ClassRep, Form


def fundamental_range(lo, hi):
    return [d for d in range(lo, hi) if d and arith.is_fundamental_discriminant(d)]


def transformed(f, rng, steps=6):
    """Apply a random word in the SL2(Z) generators to a form."""
    a, b, c = f.a, f.b, f.c
    for _ in range(steps):
        if rng.random() < 0.5:
            k = rng.randrange(-3, 4)
            # (x, y) -> (x + k y, y)
            a, b, c = a, b + 2 * a * k, a * k * k + b * k + c
        else:
            # (x, y) -> (-y, x)
            a, b, c = c, -b, a
    return Form(a, b, c, f.D)


class TestFormConstruction:
    def test_caches_discriminant(self):
        f = Form.make(1, 1, 6)
        assert f.D == -23

    def test_rejects_square_discriminant(self):
        with pytest.raises(ValueError):
            Form.make(1, 5, 6)  # D = 1
        with pytest.raises(ValueError):
            Form.make(1, 3, 0)  # D = 9

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError):
            Form.make(-1, 0, -1)

    def test_rejects_zero_a(self):
        with pytest.raises(ValueError):
            Form.make(0, 2, 3)


class TestIsReduced:
    @pytest.mark.parametrize("abc,expected", [
        ((1, 1, 6), True),
        ((3, 1, 2), False),   # a > c
        ((2, -1, 3), True),
        ((2, -2, 3), False),  # boundary |b| = a needs b >= 0
        ((2, 2, 3), True),
    ])
    def test_definite(self, abc, expected):
        assert forms.is_reduced(Form.make(*abc)) is expected

    @pytest.mark.parametrize("abc,expected", [
        ((1, 1, -1), True),    # D = 5
        ((-1, 1, 1), True),
        ((1, 3, -3), True),    # D = 21
        ((5, 11, 5), False),   # b^2 > D
        ((1, 1, -5), False),   # D = 21, window fails
    ])
    def test_indefinite(self, abc, expected):
        assert forms.is_reduced(Form.make(*abc)) is expected


class TestRho:
    def test_example_d5(self):
        f = Form.make(1, 1, -1)
        assert tuple(forms.rho(f))[:3] == (-1, 1, 1)
        assert forms.rho(forms.rho(f)) == f  # cycle length 2

    def test_rejects_definite(self):
        with pytest.raises(ValueError):
            forms.rho(Form.make(1, 1, 6))

    def test_preserves_discriminant_and_reducedness(self):
        # rho restricted to the reduced forms is a bijection: every reduced
        # form has exactly one rho-image and one rho-preimage, both reduced.
        rng = random.Random(31)
        pool = []
        for d in fundamental_range(2, 600):
            pool.extend(forms.Form(*t, d) for t in forms._reduced_forms_pos(d, math.isqrt(d)))
        sample = rng.sample(pool, min(10**4, len(pool)))
        for f in sample:
            g = forms.rho(f)
            assert g.D == f.D
            assert forms.is_reduced(g)

    def test_bijection_on_reduced_forms(self):
        # _reduced_forms_pos lists the a > 0 half; rho maps it onto the a < 0
        # half, which is its mirror.
        for d in fundamental_range(2, 500):
            fl = math.isqrt(d)
            reduced = set(forms._reduced_forms_pos(d, fl))
            assert all(a > 0 for a, _, _ in reduced), d
            images = {forms._rho(*f, d, fl) for f in reduced}
            assert images == {(-a, b, -c) for a, b, c in reduced}, d

    def test_sign_of_a_alternates_around_every_cycle(self):
        for d in fundamental_range(2, 20000):
            fl = math.isqrt(d)
            steps = 0
            for rep in forms.enumerate_classes(d):
                cyc = forms._cycle_of(tuple(rep.canonical_form)[:3], d, fl)
                assert len(cyc) == rep.cycle_length and len(cyc) % 2 == 0, d
                assert all(f[0] * g[0] < 0 for f, g in zip(cyc, cyc[1:] + cyc[:1])), d
                steps += rep.cycle_length
            assert steps == 2 * len(list(forms._reduced_forms_pos(d, fl))), d


class TestReduce:
    def test_already_reduced_definite_is_fixed(self):
        for abc in [(1, 1, 6), (2, -1, 3), (2, 1, 3), (1, 0, 1)]:
            f = Form.make(*abc)
            rep = forms.reduce_form(f)
            assert rep.canonical_form == f and rep.cycle_length == 1

    def test_definite_example(self):
        rep = forms.reduce_form(Form.make(4, 5, 3))
        assert tuple(rep.canonical_form)[:3] == (2, -1, 3)

    def test_indefinite_example_d21(self):
        # (5, 11, 5) reduces into the cycle {(-1, 3, 3), (3, 3, -1)}, which is
        # not the principal cycle of D = 21 (the narrow group has order 2).
        rep = forms.reduce_form(Form.make(5, 11, 5))
        assert rep == ClassRep(Form(-1, 3, 3, 21), 2)
        assert rep.cycle_length == 2
        assert rep != forms.principal_class(21)

    def test_class_invariant_under_sl2(self):
        rng = random.Random(37)
        discs = fundamental_range(-300, 300)
        for _ in range(400):
            d = rng.choice(discs)
            reps = forms.enumerate_classes(d)
            base = rng.choice(reps).canonical_form
            moved = transformed(base, rng)
            assert moved.D == d
            assert forms.reduce_form(moved) == forms.reduce_form(base)


class TestClassRep:
    def test_equality_and_hash_ignore_cycle_length(self):
        f = Form(-1, 3, 3, 21)
        x, y = ClassRep(f, 2), ClassRep(f, 4)
        assert x == y and not x != y and hash(x) == hash(y)
        assert len({x, y}) == 1
        z = ClassRep(Form(1, 3, -3, 21), 2)
        assert x != z and not x == z
        assert x != (f, 2) and x != f

    def test_immutable_with_dataclass_repr(self):
        x = forms.reduce_form(Form.make(5, 11, 5))
        assert repr(x) == "ClassRep(canonical_form=Form(a=-1, b=3, c=3, D=21), cycle_length=2)"
        for name in ("canonical_form", "cycle_length", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
        with pytest.raises(AttributeError):
            del x.cycle_length
        assert x.cycle_length == 2
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y.cycle_length == 2


class TestEnumerateClasses:
    def test_d_minus_23(self):
        got = [tuple(r.canonical_form)[:3] for r in forms.enumerate_classes(-23)]
        assert got == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]

    def test_d5_single_cycle(self):
        reps = forms.enumerate_classes(5)
        assert len(reps) == 1 and reps[0].cycle_length == 2
        assert reps[0] == forms.reduce_form(Form.make(1, 1, -1))

    def test_d229(self):
        assert len(forms.enumerate_classes(229)) == 3

    @pytest.mark.parametrize("d,h", [(-3, 1), (-4, 1), (-47, 5), (-163, 1), (-239, 15)])
    def test_known_imaginary_class_numbers(self, d, h):
        assert len(forms.enumerate_classes(d)) == h

    def test_rejects_non_fundamental(self):
        with pytest.raises(arith.NotFundamental):
            forms.enumerate_classes(9)


class TestDivisorTable:
    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 8, 9, 10, 99, 100, 2000])
    def test_rows_are_sorted_divisors(self, limit):
        offsets, divisors = batch.divisor_table(limit)
        assert offsets.dtype == divisors.dtype == "int32"
        assert len(offsets) == limit + 2 and offsets[0] == offsets[1] == 0
        assert offsets.nbytes + divisors.nbytes == arith.divisor_table_bytes(limit)
        for n in range(1, limit + 1):
            row = divisors[offsets[n] : offsets[n + 1]].tolist()
            assert row == sympy.divisors(n), n

    @staticmethod
    def _enumerated_ns(d):
        # every n = |d - b^2| / 4 that _reduced_forms_pos/_neg factor
        if d > 0:
            return [(d - b * b) >> 2 for b in range(2 - (d & 1), math.isqrt(d) + 1, 2)]
        out = []
        b = d & 1
        while 3 * b * b <= -d:
            out.append((b * b - d) >> 2)
            b += 2
        return out

    @staticmethod
    def _batch_matches_sieve(ds, table=None):
        rows = batch_rows(ds, table)
        assert rows == [[d, *forms._core_info(d)] for d in ds]
        return rows

    def test_table_path_matches_trial_division(self):
        # Every fundamental |D| < 2*10^4 of both signs goes through the batch in
        # one call per sign and matches the per-D sieve core. The bulk table
        # covers exactly the largest n met by a D > 0, so the D that meets it
        # reads the table's last row. _largest_n still bounds the b-scan of
        # D < 0, as survey_limit(negative=True) is derived from it.
        ds = fundamental_range(-20000, 20000)
        pos = [d for d in ds if d > 0]
        table = table_for(pos)
        assert len(table[0]) - 2 == max(max(self._enumerated_ns(d)) for d in pos)
        for d in ds:
            assert arith._largest_n(d) == max(self._enumerated_ns(d)), d
        self._batch_matches_sieve(ds, table)

    def test_largest_d_meets_the_largest_n(self):
        # experiments._core_rows sizes the table of its ascending D > 0 by the
        # last D alone: _largest_n never decreases for D > 0.
        top = 0
        for d in fundamental_range(1, 20000):
            top = max(top, arith._largest_n(d))
            assert arith._largest_n(d) == top, d

    def test_n_beyond_table_uses_trial_division(self):
        # A table one row short of the largest n is refused, never read past;
        # a table that covers D answers as the per-D sieve does. A D < 0 is
        # counted without a table.
        for d in (19997, 4 * 4999):
            table = table_for([d])
            assert len(table[0]) - 2 == max(self._enumerated_ns(d))
            with pytest.raises(ValueError, match=f"does not cover D={d}$"):
                batch._batch_core_info([d], (table[0][:-1], *table[1:]))
            self._batch_matches_sieve([d], table)
        self._batch_matches_sieve([-19999])

    @pytest.mark.parametrize("ds", [
        [5], [8], [12], [-3], [-4], [-8], [229], [-3299],
        [5, 8, 12, 13, 17, 21, 24, 28, 29, 229],
        [-3299, -23, -20, -8, -7, -4, -3],
        [-3299, -23, -4, 5, 12, 229, 32009],
        [229, -23, 5, -3299, 32009, -4],
    ], ids=lambda ds: ",".join(map(str, ds)))
    def test_chunks(self, ds):
        # one D, one sign, and mixed signs, sorted or not
        self._batch_matches_sieve(ds)

    @pytest.mark.parametrize("cap", [1, 7, 100])
    def test_block_boundaries_do_not_change_rows(self, cap, monkeypatch):
        # A cap below one D's rows makes every D > 0 its own block.
        ds = fundamental_range(-2000, 2000)
        table = table_for([d for d in ds if d > 0])
        whole = batch_rows(ds, table)
        monkeypatch.setattr(batch, "_BLOCK_ROWS", cap)
        assert batch_rows(ds, table) == whole

    def test_window_is_closed_under_cofactor(self):
        # The batch bisects only the lower end L = (F - b + 2) >> 1 of each
        # D > 0 row's window, F = isqrt(D): as (2a)(2n/a) = D - b^2, the
        # divisors a of n below L are the cofactors n/a above the upper end
        # U = (F + b) >> 1, so both sides hold equally many divisors.
        divs = [[] for _ in range(20000 // 4 + 1)]
        for a in range(1, len(divs)):
            for n in range(a, len(divs), a):
                divs[n].append(a)
        for d in fundamental_range(1, 20001):
            f = math.isqrt(d)
            for b in range(2 - (d & 1), f + 1, 2):
                row = divs[(d - b * b) >> 2]
                below = bisect.bisect_left(row, (f - b + 2) >> 1)
                above = len(row) - bisect.bisect_right(row, (f + b) >> 1)
                assert below == above, (d, b)

    @pytest.mark.parametrize("d,row", [
        (1129, [9, 9, -1, 1]), (-199, [9, 9, 0, 1]),  # 9 | h(+), r3 = 1
        (-3299, [27, 27, 0, 2]), (32009, [9, 9, -1, 2]),  # r3 = 2
        (229, [3, 3, -1, 1]), (-23, [3, 3, 0, 1]),  # 3 || h(+)
    ])
    def test_torsion_shortcut_boundary(self, d, row):
        # The batch reads r3 off no h, whether 9 | h(+) or 3 || h(+): either
        # sign counts its cubic fields.
        assert self._batch_matches_sieve([d]) == [[d, *row]]

    def test_r3_two_anchors(self):
        ds = TestThreeTorsion.R3_TWO
        assert [row[4] for row in self._batch_matches_sieve(ds)] == [2] * len(ds)

    def test_missing_divisor_names_d(self):
        # Without the divisor 4 of n = 44 the form (4, 9, -11) of D = 257 is
        # lost, and so is the rho^2 image of the form before it in its cycle.
        ds = [5, 229, 257, 269]
        table = without_divisor(table_for(ds), 44, 4)
        with pytest.raises(AssertionError, match="reduced forms of D=257$"):
            batch._batch_core_info(ds, table)
        self._batch_matches_sieve([5, 229, 269], table)
        # For D = 177 at b = 1 (window 7 <= a <= 7 of n = 44) the same divisor
        # is below the window. The upper end mirrors the lower one, so the
        # window of the broken row lists the non-reduced form (11, 1, -4).
        with pytest.raises(AssertionError, match="reduced forms of D=177$"):
            batch._batch_core_info([5, 177, 229, 257], table)


class TestBatchAcrossSigns:
    """The batch on every fundamental 0 < D < 10^5 and on the discriminants
    D* of Q(sqrt(-3D)), -3D if 3 does not divide D and -D/3 otherwise."""

    @pytest.fixture(scope="class")
    def reflected(self):
        ds = fundamental_range(1, 10**5)
        stars = [-3 * d if d % 3 else -d // 3 for d in ds]
        real = batch._batch_core_info(ds, table_for(ds)).tolist()
        imag = batch._neg_rows(sorted(stars)).tolist()
        r3 = {row[0]: row[4] for row in imag}
        return ds, real, [r3[s] for s in stars]

    def test_scholz_reflection(self, reflected):
        # Scholz (1932): r3(D) <= r3(D*) <= r3(D) + 1. Neither sign reads h.
        # Both count binary cubic forms, but under different reductions, by
        # the Hessian for D > 0 and by the factor of the real root for D < 0,
        # and they share no loop or bound.
        ds, real, r3_star = reflected
        gaps = [s - row[4] for row, s in zip(real, r3_star)]
        assert [d for d, g in zip(ds, gaps) if g not in (0, 1)] == []
        assert set(gaps) == {0, 1}

    def test_unit_norm_matches_cf_walk(self, reflected):
        ds, real, _ = reflected
        assert [row[3] for row in real] == [forms.unit_norm(d) for d in ds]

    def test_r3_matches_three_torsion_count(self, reflected):
        # The batch reads r3 off the count of cubic forms, and h+ off its
        # cycles: where 3 | h+, 3^r3 is the count of classes forms finds by
        # squaring, and elsewhere r3 = 0.
        ds, real, _ = reflected
        three = [(d, row[4]) for d, row in zip(ds, real) if row[1] % 3 == 0]
        assert len(three) == 3305
        assert [3**r3 for _, r3 in three] == [forms.three_torsion_count(d) for d, _ in three]
        assert [d for d, row in zip(ds, real) if row[1] % 3 and row[4]] == []


class TestCubicCount:
    """batch._cubic_counts and batch._neg_cubic_counts, the reduced binary
    cubic forms (a, b, c, d), a >= 1, of every discriminant of one sign up to
    x in absolute value, against enumerations that do not share their bounds."""

    def test_matches_brute_force_box(self):
        # Every (a, b, c, d) of a box, reduced or not, at x = 3000, for each
        # sign. The reduced forms found lie within half the box, so a bound of
        # the count cut past its exact value loses forms that the box keeps.
        x = 3000
        for sign in (1, -1):
            delta, on = reduced_in_box(sign)
            on &= delta <= x
            found = np.argwhere(on)
            centre = (np.array(on.shape[1:]) - 1) // 2
            assert 2 * found[:, 0].max() < on.shape[0], sign
            assert (2 * np.abs(found[:, 1:] - centre) <= centre).all(), sign
            want = np.bincount(delta[on], minlength=x + 1)
            assert cubic_count(sign, x).tolist() == want.tolist(), sign
            # The cuts that depend on x (R <= (3x + P^2)/(4P) and delta <= x
            # for D > 0, the roots in d of n <= x for D < 0) are exact where
            # x is itself a |discriminant|.
            for top in np.flatnonzero(want).tolist():
                assert cubic_count(sign, top).tolist() == want[: top + 1].tolist(), (sign, top)

    def test_matches_enumeration_with_wide_a_and_b(self):
        # At x = 10^5 with twice the a and b the count's bounds allow, c and
        # d cut only by 1 <= P <= sqrt x and 0 <= Q <= P.
        x = 10**5
        forms_ = cubic_forms(x, 12, 40)
        assert forms_[0].max() <= 6 and np.abs(forms_[1]).max() <= 20
        assert batch._cubic_counts(x).tolist() == np.bincount(forms_[4], minlength=x + 1).tolist()

    def test_neg_matches_enumeration_with_wide_b_and_c(self):
        # At x = 10^5 with twice the a, b and c the count's bounds allow: the
        # enumeration runs over a <= 30 and b, c >= -28, and the forms it
        # finds lie well inside.
        x = 10**5
        a, b, c, d, n = neg_cubic_forms(x)
        assert a.max() <= 15 and min(b.min(), c.min()) >= -14 and max(b.max(), c.max()) <= 30
        assert batch._neg_cubic_counts(x).tolist() == np.bincount(n, minlength=x + 1).tolist()

    def test_no_fundamental_form_on_the_hessian_boundary(self):
        # The count has no tie-break between the reduced forms of one class
        # whose Hessian has Q = 0, Q = P or P = R; no fundamental D <= 10^5
        # has such a form.
        a, b, c, d, delta = cubic_forms(10**5, 12, 40)
        p, q, r = b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d
        edge = (q == 0) | (q == p) | (p == r)
        assert edge.any()
        assert [D for D in delta[edge].tolist() if arith.is_fundamental_discriminant(D)] == []

    def test_no_fundamental_form_on_the_root_boundary(self):
        # Nor has the count of D < 0 a tie-break for B = 0, B = A or A = C:
        # the forms on that boundary have a rational root, and the only
        # fundamental -20000 <= D < 0 with one are -3 and -4, whose count
        # stays 0, as Z x O_K is their one class.
        a, b, c, d, n = neg_cubic_forms(20000, strict=False)
        edge = ((b * c == a * d) | ((a - b) ** 2 + c * (a - b) + a * d == 0)
                | (d * d - b * d + a * c == a * a))
        fundamental = {D for D in (-n[edge]).tolist() if arith.is_fundamental_discriminant(D)}
        assert sorted(fundamental) == [-4, -3]
        strict = np.bincount(neg_cubic_forms(20000)[4], minlength=20001)
        assert np.bincount(n[~edge], minlength=20001).tolist() == strict.tolist()

    def test_anchors(self):
        # 2 N(D) + 1 = 3^r3: D = 5 and 8 have no cubic field, 229 and 892
        # one, 32009 four; -3 and -4 none, -23 and -199 one, -3299 and -4027
        # four. The form (2, 0, -5, -1) of D = 892 and (2, 0, -1, 0) of D = 8
        # have R < P, which the b = 0 rule cuts by c.
        for sign, ds, want in [(1, [5, 8, 229, 892, 32009], [0, 0, 1, 1, 4]),
                               (-1, [-3, -4, -23, -199, -3299, -4027], [0, 0, 1, 1, 4, 4])]:
            n = cubic_count(sign, max(map(abs, ds)))
            assert n.dtype == np.uint8
            assert [int(n[abs(d)]) for d in ds] == want
            assert [3 ** forms._core_info(d)[3] for d in ds] == [2 * k + 1 for k in want]

    def test_neg_count_matches_three_torsion_count(self):
        # 2 N(-D) + 1 is forms' count of classes of order dividing 3 on every
        # fundamental -10^5 < D < 0 with 3 | h, and N(-D) = 0 elsewhere.
        ds = fundamental_range(-10**5 + 1, 0)
        n = batch._neg_cubic_counts(10**5)
        h = batch._neg_rows(ds)[:, 2].tolist()
        three = [d for d, k in zip(ds, h) if k % 3 == 0]
        assert len(three) == 11500
        assert [2 * int(n[-d]) + 1 for d in three] == [forms.three_torsion_count(d) for d in three]
        assert [d for d, k in zip(ds, h) if k % 3 and n[-d]] == []


class TestPositiveBatchSteps:
    """The steps of the D > 0 batch one at a time: the bisection of the
    divisor windows, the permutation pi whose square is rho^2, the bound on
    the labelling rounds and the block planning."""

    def test_bisect_matches_bisect_left(self):
        # Runs of every length 0..17 and of lengths 2^k and 2^k + 1 up to 2^10
        # + 1, repeats allowed, laid end to end in one array, each searched
        # for x below, above and among its entries (present or not).
        rng = random.Random(25)
        lengths = list(range(18)) + [n + e for k in range(5, 11) for n in [1 << k] for e in (0, 1)]
        runs, dv = [], []
        for size in lengths * 3:
            run = sorted(rng.randrange(1, 2 * size + 2) for _ in range(size))
            xs = [0, 2 * size + 3] + [rng.randrange(0, 2 * size + 4) for _ in range(3)]
            runs += [(len(dv), len(dv) + size, x, run) for x in xs + run[:1] + run[-1:]]
            dv += run
        lo, hi, x = (np.array(col, np.int64) for col in list(zip(*runs))[:3])
        got = batch._bisect(np.array(dv, np.int32), lo, hi, x).tolist()
        assert got == [s + bisect.bisect_left(run, v) for s, _, v, run in runs]

    def test_pi_squared_is_rho_squared(self):
        # pi is a rho step followed by (A, B, C) -> (-A, B, -C). On the a > 0
        # reduced forms of each D < 2*10^4 it is a permutation, and pi(pi(f))
        # is rho(rho(f)), so the batch takes one rho step per form.
        for d in fundamental_range(1, 20000):
            reduced = [Form(*f, d) for f in forms._reduced_forms_pos(d, math.isqrt(d))]
            pi = {}
            for f in reduced:
                g = forms.rho(f)
                pi[f] = Form(-g.a, g.b, -g.c, d)
            assert sorted(pi.values()) == sorted(reduced), d
            assert all(pi[pi[f]] == forms.rho(forms.rho(f)) for f in reduced), d

    def test_rounds_are_tight_where_h_plus_is_one(self, monkeypatch):
        # A D with h+ = 1 has one cycle through all its a > 0 forms, so with
        # one D per block the labelling takes exactly the bound's rounds.
        ds = [d for d in fundamental_range(1, 20000) if forms._core_info(d)[0] == 1]
        monkeypatch.setattr(batch, "_BLOCK_ROWS", 1)
        rows = batch._batch_core_info(ds, table_for(ds)).tolist()
        assert rows == [[d, *forms._core_info(d)] for d in ds]

    @pytest.mark.parametrize("cap", [1, 3, 40, 1 << 12])
    def test_blocks_are_the_longest_runs_that_fit(self, cap, monkeypatch):
        # Each block is the longest run of D, taken in order, whose b-rows
        # number at most _BLOCK_ROWS, or one D whose rows alone exceed it.
        ds = fundamental_range(1, 10000)
        blocks, block_rows = [], batch._block_rows
        monkeypatch.setattr(batch, "_block_rows", lambda d, *rest: blocks.append(d.tolist())
                            or block_rows(d, *rest))
        monkeypatch.setattr(batch, "_BLOCK_ROWS", cap)
        batch._batch_core_info(ds, table_for(ds))
        want, rows = [[]], 0
        for d in ds:
            count = len(range(2 - (d & 1), math.isqrt(d) + 1, 2))
            if want[-1] and rows + count > cap:
                want.append([])
                rows = 0
            want[-1].append(d)
            rows += count
        assert blocks == want


class TestNegativeCount:
    """The D < 0 route of the batch, one count of reduced forms over every
    |D| at once (batch._neg_rows), against the per-D forms route and the
    character sum."""

    def test_every_fundamental_d_matches_forms(self):
        ds = fundamental_range(-30000, 0)
        assert batch._neg_rows(ds).tolist() == [[d, *forms._core_info(d)] for d in ds]

    @pytest.mark.parametrize("m,n", [(1, 4), (1, 1), (5, 12), (3, 5), (8, 16), (12, 16)])
    def test_family_progressions_match_forms(self, m, n):
        # The |D| of a family step by a multiple g of its modulus, and each
        # (a, b) progression is counted on its residue mod g only.
        ds = [d for d in fundamental_range(-20000, 0) if (d - m) % n == 0]
        assert batch._neg_rows(ds).tolist() == [[d, *forms._core_info(d)] for d in ds]

    @pytest.mark.parametrize("ds", [
        [-3], [-4], [-8], [-3, -4, -8], ["R3_TWO"],
        [-199, 1129],
        [-4027, -3299, -199, -4, -3, 1129],
        [-3, 5, -11651, 229, -4],
        ["limit"],
        ["limit", -3299, -4, -3, 1129],
    ], ids=lambda ds: ",".join(map(str, ds)))
    def test_scattered_and_mixed_lists_match_forms(self, ds):
        # R3_TWO holds 32009 as well. "limit" is the D < 0 at
        # survey_limit(negative=True): one far |D| costs about one pass over
        # a <= isqrt(|D|/3), not |D|, and so does a far |D| beside near ones,
        # which are counted apart.
        ds = [d for x in ds for d in {"R3_TWO": TestThreeTorsion.R3_TWO,
                                      "limit": [-experiments.survey_limit(negative=True)]
                                      }.get(x, [x])]
        rows = experiments.compute_class_infos(ds).rows.tolist()
        assert rows == [[d, *forms._core_info(d)] for d in sorted(ds)]

    def test_h_matches_character_sum(self):
        ds = random.Random(20).sample(fundamental_range(-100000, -50000), 200)
        rows = batch._neg_rows(ds).tolist()
        assert [row[2] for row in rows] == [forms.analytic_h_imaginary(d) for d in ds]


class TestBatchArithmetic:
    # Fundamental D < 0 at |D| ~ 4·10^8, where the D > 0 batch's int64 bound
    # ends: forms squares and reduces every class in Python ints and finds
    # 3^r3 = 3, with 3 || h (h(-399999999) = 15360) as with 9 | h
    # (h(-400000004) = 16416).
    @pytest.mark.parametrize("d", [-399999999, -400000004])
    def test_square_and_reduce_match_python(self, d):
        fs = forms._reduced_forms_neg(d)
        assert forms._three_torsion_neg(len(fs), fs) == 3


def table_for(ds):
    """The pos_table of the D > 0 of ds, as a survey builds it: the least
    divisor table that covers them, and the cubic fields up to max(ds)."""
    return batch.pos_table(max(ds))


def batch_rows(ds, table=None):
    """The batch's rows of ds as lists, in order: the D > 0 over table (by
    default table_for them), the D < 0 from the count of reduced forms, as
    experiments._core_rows splits them."""
    pos, neg = [d for d in ds if d > 0], [d for d in ds if d < 0]
    rows = {}
    if pos:
        rows.update(zip(pos, batch._batch_core_info(pos, table or table_for(pos)).tolist()))
    if neg:
        rows.update(zip(neg, batch._neg_rows(neg).tolist()))
    return [rows[d] for d in ds]


def cubic_forms(x, a_top, b_top):
    """(a, b, c, d, delta), int64 rows, of the reduced binary cubic forms
    with 1 <= a <= a_top, |b| <= b_top and 0 < delta <= x, their c taken
    from 1 <= P <= sqrt x and their d from 0 <= Q <= P alone."""
    s = math.isqrt(x)
    a, b = (g.ravel() for g in np.meshgrid(np.arange(1, a_top + 1), np.arange(-b_top, b_top + 1)))
    lo = -((s - b * b) // (3 * a))
    k = np.maximum((b * b - 1) // (3 * a) - lo + 1, 0)
    i = np.repeat(np.arange(len(k)), k)
    a, b, c = a[i], b[i], lo[i] + np.arange(len(i)) - (np.cumsum(k) - k)[i]
    p = b * b - 3 * a * c
    lo = -((p - b * c) // (9 * a))
    k = np.maximum(b * c // (9 * a) - lo + 1, 0)
    i = np.repeat(np.arange(len(k)), k)
    a, b, c, p = a[i], b[i], c[i], p[i]
    d = lo[i] + np.arange(len(i)) - (np.cumsum(k) - k)[i]
    q, r = b * c - 9 * a * d, c * c - 3 * b * d
    delta = (4 * p * r - q * q) // 3
    on = (p <= r) & (delta <= x)
    return np.array([a, b, c, d, delta])[:, on]


def cubic_count(sign, x):
    """batch's count of reduced binary cubic forms of sign sign up to x."""
    return (batch._cubic_counts if sign > 0 else batch._neg_cubic_counts)(x)


def reduced_in_box(sign):
    """(|delta|, reduced) over every (a, b, c, d) of a box, the forms of sign
    sign: a Hessian with 0 <= Q <= P <= R for delta > 0, and the three tests
    of batch._neg_cubic_counts for delta < 0."""
    if sign > 0:
        a, b, c, d = np.ix_(np.arange(1, 7), *[np.arange(-24, 25)] * 3)
        p, q, r = b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d
        delta = (4 * p * r - q * q) // 3
        return delta, (0 <= q) & (q <= p) & (p <= r) & (0 < delta)
    a, b, c, d = np.ix_(np.arange(1, 13), *[np.arange(-24, 25)] * 2, np.arange(-36, 37))
    n = 27 * a * a * d * d + 4 * a * c**3 + 4 * b**3 * d - b * b * c * c - 18 * a * b * c * d
    return n, ((b * c > a * d) & ((a - b) ** 2 + c * (a - b) + a * d > 0)
               & (d * d - b * d + a * c > a * a) & (n > 0))


def neg_cubic_forms(x, strict=True):
    """(a, b, c, d, n), int64 rows, of the reduced binary cubic forms of
    discriminant -n, 0 < n <= x, with twice the a, b and c that
    batch._neg_cubic_counts allows; with strict=False, with the forms on
    the boundary of its three tests as well. d runs over the window of the
    two tests that are linear in d, cut by n <= x through its float roots
    in d, widened by one."""
    rho, out = (x / 3) ** 0.25, []
    for a in range(1, 2 * int((16 * x / 27) ** 0.25) + 1):
        top = (16 * x / (27 * a)) ** (1 / 3)
        b, c = (g.ravel() for g in np.meshgrid(
            np.arange(math.floor(-2 * rho), math.ceil(3 * a + 2 * rho) + 1),
            np.arange(math.floor(-2 * rho), math.ceil(2 * top + a + 2 * rho) + 1)))
        low, high = b * c - (a - b) ** 2 - a * c, b * c  # low < a d < high
        lo, hi = (low // a + 1, (high - 1) // a) if strict else (-(-low // a), high // a)
        k, s = 9 * a * b * c - 2 * b**3, 4 * (b * b - 3 * a * c) ** 3 + 27 * a * a * x
        root = np.sqrt(np.maximum(s, 0).astype(float))
        lo = np.maximum(lo, np.floor((k - root) / (27 * a * a)).astype(np.int64) - 1)
        hi = np.minimum(hi, np.ceil((k + root) / (27 * a * a)).astype(np.int64) + 1)
        hi[s < 0] = lo[s < 0] - 1
        w = np.maximum(hi - lo + 1, 0)
        i = np.repeat(np.arange(len(w)), w)
        b, c = b[i], c[i]
        d = lo[i] + np.arange(len(i)) - (np.cumsum(w) - w)[i]
        n = 27 * a * a * d * d + 4 * a * c**3 + 4 * b**3 * d - b * b * c * c - 18 * a * b * c * d
        third = d * d - b * d + a * c - a * a
        on = (0 < n) & (n <= x) & ((third > 0) if strict else (third >= 0))
        out.append(np.array([np.full(on.sum(), a), b[on], c[on], d[on], n[on]]))
    return np.concatenate(out, axis=1)


def without_divisor(table, n, a):
    """A divisor_table or pos_table with the divisor a of n deleted from row n."""
    off, dv, *rest = table
    i = off[n] + dv[off[n] : off[n + 1]].tolist().index(a)
    off = off.copy()
    off[n + 1 :] -= 1
    return off, np.delete(dv, i), *rest


def reference_forms(d):
    """Reduced forms of d from sympy.divisors of each n = |d - b^2| / 4,
    filtered by the reduction conditions (exact squares for d > 0); only
    the a > 0 forms for d > 0."""
    out = []
    if d < 0:
        b = d & 1
        while 3 * b * b <= -d:
            n = (b * b - d) >> 2
            for a in sympy.divisors(n):
                c = n // a
                if b <= a <= c:
                    out.append((a, b, c))
                    if 0 < b < a < c:
                        out.append((a, -b, c))
            b += 2
        return out
    for b in range(2 - (d & 1), math.isqrt(d) + 1, 2):
        n = (d - b * b) >> 2
        for v in sympy.divisors(n):
            if forms._is_reduced_pos(v, b, -(n // v), d):
                out.append((v, b, -(n // v)))
    return out


def brute_forms(d):
    """The reduced forms of d (only a > 0 for d > 0) by trying every (a, b)
    with a <= sqrt|d| and b of d's parity."""
    out = []
    if d < 0:
        for a in range(1, math.isqrt(-d // 3) + 1):
            for b in range(-a + 1 + ((a + 1 + d) & 1), a + 1, 2):
                c, rem = divmod(b * b - d, 4 * a)
                if not rem and forms._is_reduced_neg(a, b, c):
                    out.append((a, b, c))
        return out
    fl = math.isqrt(d)
    for a in range(1, fl + 1):
        for b in range(2 - (d & 1), fl + 1, 2):
            c, rem = divmod(b * b - d, 4 * a)
            if not rem and forms._is_reduced_pos(a, b, c, d):
                out.append((a, b, c))
    return out


def listed_forms(d):
    if d < 0:
        return forms._reduced_forms_neg(d)
    return list(forms._reduced_forms_pos(d, math.isqrt(d)))


class TestRootEnumeration:
    """The reduced forms listed by a, from the roots of b^2 = D (mod 4a)."""

    def test_matches_brute_force_scan(self):
        for d in fundamental_range(-4000, 4000):
            got = listed_forms(d)
            assert len(got) == len(set(got)) and set(got) == set(brute_forms(d)), d

    def test_roots_are_all_solutions_mod_2a(self):
        for d in fundamental_range(-3000, 3000)[::7]:
            top = math.isqrt(d) if d > 0 else math.isqrt(-d // 3)
            got = {}
            for a, rs in forms._roots_mod_2a(d, top):
                assert a not in got and len(rs) == len(set(rs)), (d, a)
                got[a] = sorted(rs)
            want = {}
            for a in range(1, top + 1):
                rs = [b for b in range(2 * a) if (b * b - d) % (4 * a) == 0]
                if rs:
                    want[a] = rs
            assert got == want, d

    @staticmethod
    def _check(d):
        assert arith.is_fundamental_discriminant(d)
        got = listed_forms(d)
        assert len(got) == len(set(got)) and set(got) == set(reference_forms(d)), d
        return got

    @pytest.mark.parametrize("d", [1000001, -999991])
    def test_d_1_mod_8_has_a_divisible_by_8(self, d):
        # Every power of 2 is admissible: b^2 = D (mod 2^(k+2)) lifts for all k.
        assert d % 8 == 1
        assert max(a & -a for a, _, _ in self._check(d)) >= 8

    @pytest.mark.parametrize("d", [1000005, -999995])
    def test_d_5_mod_8_has_odd_a_only(self, d):
        assert d % 8 == 5
        assert all(a & 1 for a, _, _ in self._check(d))

    @pytest.mark.parametrize("d", [1000024, -999976, 1000012, -999988])
    def test_even_d_has_no_a_divisible_by_4(self, d):
        twos = {a & -a for a, _, _ in self._check(d)}
        assert twos == {1, 2}, d

    @pytest.mark.parametrize("d", [-15015, 60060])
    def test_ramified_odd_prime_divides_a_once(self, d):
        got = self._check(d)
        for p in (3, 5, 7, 11, 13):
            hits = [(a, b) for a, b, _ in got if a % p == 0]
            assert hits, p
            assert all(a % (p * p) and b % p == 0 for a, b in hits), p


class TestSquare:
    def test_equals_compose_raw_on_every_squared_form(self):
        # _three_torsion_neg squares the b >= 0 reduced forms and
        # _three_torsion_pos one a > 0 reduced form per class; every a > 0
        # reduced form is checked for D > 0.
        rng = random.Random(15)
        for sign in (-1, 1):
            for d in rng.sample(fundamental_range(1, 10**5) if sign > 0
                                else fundamental_range(-10**5, 0), 200):
                for f in listed_forms(d):
                    if f[1] >= 0:
                        assert forms._square(*f) == forms._compose_raw(f, f), (d, f)


class TestPolynomialSieve:
    """The square roots mod p behind the enumeration, and the enumeration
    against a sympy reference. (Named for the per-b sieve the enumeration by
    a replaced; the test ids are kept.)"""

    def test_sqrt_mod_matches_brute_force(self):
        # Every residue, a = 0 included, of every odd prime < 2000; the primes
        # p = 1 (mod 8) run the Tonelli-Shanks loop for more than one round.
        primes = arith.primes_upto(2000)[1:]
        assert any(p % 8 == 1 for p in primes)
        for p in primes:
            roots = {}
            for x in range(p):
                roots.setdefault(x * x % p, set()).add(x)
            for a, rs in roots.items():
                assert forms._sqrt_mod(a, p) in rs, (a, p)
                assert forms._sqrt_mod(a + 7 * p, p) in rs, (a, p)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2000, 10**15), st.integers(0, 10**15))
    def test_sqrt_mod_property(self, lo, x):
        p = sympy.nextprime(lo)
        a = x * x % p
        r = forms._sqrt_mod(a, p)
        assert 0 <= r < p and r * r % p == a

    @staticmethod
    def _random_fundamental(rng, sign, count):
        out = []
        while len(out) < count:
            d = sign * int(10 ** rng.uniform(6, 9))
            if arith.is_fundamental_discriminant(d):
                out.append(d)
        return out

    def _check(self, d, monkeypatch):
        if d < 0:
            got = forms._reduced_forms_neg(d)
        else:
            got = list(forms._reduced_forms_pos(d, math.isqrt(d)))
        want = reference_forms(d)
        assert len(got) == len(set(got)) and set(got) == set(want), d
        listed = forms._core_info(d)
        with monkeypatch.context() as m:
            m.setattr(forms, "_reduced_forms_neg", lambda *_: want)
            m.setattr(forms, "_reduced_forms_pos", lambda *_: want)
            assert listed == forms._core_info(d), d

    def test_random_discriminants_match_reference(self, monkeypatch):
        rng = random.Random(20261018)
        for d in self._random_fundamental(rng, 1, 20) + self._random_fundamental(rng, -1, 20):
            self._check(d, monkeypatch)

    @pytest.mark.parametrize("d", [-3, -4, -8, 5, 8, 12, 13,
                                   -4 * 3 * 5 * 7 * 11 * 13 * 17 * 19,
                                   -3 * 5 * 7 * 11 * 13 * 17 * 19 * 23,
                                   8 * 3 * 5 * 7 * 11 * 13 * 17 * 19])
    def test_edge_cases_match_reference(self, d, monkeypatch):
        assert arith.is_fundamental_discriminant(d)
        self._check(d, monkeypatch)


class TestPrincipalAndCompose:
    def test_principal_examples(self):
        assert forms.principal_class(5) == forms.reduce_form(Form.make(1, 1, -1))
        assert forms.principal_class(-4).canonical_form == Form(1, 0, 1, -4)
        assert forms.principal_class(12) == forms.reduce_form(Form.make(1, 0, -3))

    def test_identity_law_d_minus_23(self):
        pr = forms.principal_class(-23)
        for x in forms.enumerate_classes(-23):
            assert forms.compose(pr, x) == x

    def test_cyclic_cube_d_minus_23(self):
        c2 = forms.reduce_form(Form.make(2, 1, 3))
        sq = forms.compose(c2, c2)
        assert tuple(sq.canonical_form)[:3] == (2, -1, 3)
        assert forms.compose(sq, c2) == forms.principal_class(-23)

    @pytest.mark.parametrize("d", [-23, 229, 32009])
    def test_commutative(self, d):
        reps = forms.enumerate_classes(d)
        for x, y in itertools.combinations(reps, 2):
            assert forms.compose(x, y) == forms.compose(y, x)

    def test_rejects_mismatched_discriminants(self):
        with pytest.raises(ValueError):
            forms.compose(forms.principal_class(5), forms.principal_class(12))


class TestGroupLaws:
    """Exhaustive group checks through multiplication tables, |D| < 2000."""

    def _table(self, d):
        classes = forms.enumerate_classes(d)
        idx = {c: i for i, c in enumerate(classes)}
        # composing never leaves the class set and never changes D
        table = []
        for x in classes:
            row = []
            for y in classes:
                z = forms.compose(x, y)
                assert z.canonical_form.D == d
                row.append(idx[z])
            table.append(row)
        return classes, idx, table

    def test_group_laws_exhaustive(self):
        for d in fundamental_range(-2000, 2000):
            classes, idx, table = self._table(d)
            k = len(classes)
            e = idx[forms.principal_class(d)]
            assert all(table[e][j] == j for j in range(k)), d
            for i in range(k):
                f = classes[i].canonical_form
                inv = idx[forms.reduce_form(Form(f.a, -f.b, f.c, f.D))]
                assert table[i][inv] == e, d
            for i in range(k):
                for j in range(i, k):
                    assert table[i][j] == table[j][i], d
            for i in range(k):
                for j in range(k):
                    tij = table[i][j]
                    for l in range(k):
                        assert table[tij][l] == table[i][table[j][l]], d
            # 3-torsion against the brute-force table count
            tt = sum(1 for i in range(k) if table[table[i][i]][i] == e)
            assert tt == forms.three_torsion_count(d), d


class TestThreeTorsion:
    R3_TWO = [-11651, -10015, -9748, -8751, -6583, -5703, -4027, -3896, -3299, 32009]

    @pytest.mark.parametrize("d,tt", [(5, 1), (229, 3), (32009, 9), (-23, 3), (-3299, 9)])
    def test_examples(self, d, tt):
        assert forms.three_torsion_count(d) == tt

    def test_matches_cubing_oracle(self):
        # Beyond the exhaustive tables of TestGroupLaws (|D| < 2000): count the
        # classes whose cube, by the public compose, is the principal class,
        # for every D with 3 | h(+) in the two ranges. The real range reaches
        # the first real r3 = 2 case, D = 32009; the ranges hold the r3 = 2
        # cases listed.
        # three_torsion_count squares nothing when 3 || h(+); the oracle cubes
        # every class of those D too, of both signs.
        r3_two, sylow_three = [], set()
        for d in fundamental_range(-12000, -2000) + fundamental_range(2000, 33000):
            classes = forms.enumerate_classes(d)
            if len(classes) % 3:
                continue
            e = forms.principal_class(d)
            cubes = sum(1 for x in classes if forms.compose(forms.compose(x, x), x) == e)
            assert forms.three_torsion_count(d) == cubes, d
            if cubes == 9:
                r3_two.append(d)
            if len(classes) % 9:
                sylow_three.add(d > 0)
        assert r3_two == self.R3_TWO
        assert sylow_three == {False, True}

    def test_always_power_of_three(self):
        for d in fundamental_range(-400, 400):
            tt = forms.three_torsion_count(d)
            while tt % 3 == 0:
                tt //= 3
            assert tt == 1, d


class TestUnitNorm:
    @pytest.mark.parametrize("d,norm", [(5, -1), (8, -1), (12, 1), (13, -1), (21, 1), (229, -1)])
    def test_examples(self, d, norm):
        assert forms.unit_norm(d) == norm

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            forms.unit_norm(-23)

    def test_against_principal_cycle_predicate(self):
        # norm -1 iff some form in the principal cycle has a = -1
        for d in fundamental_range(2, 3000):
            fl = math.isqrt(d)
            b0 = d & 1
            start = forms._reduce_pos(1, b0, (b0 * b0 - d) >> 2, d, fl)
            cyc = forms._cycle_of(start, d, fl)
            predicate = any(a == -1 for a, _, _ in cyc)
            assert (forms.unit_norm(d) == -1) == predicate, d


class TestClassGroupInfo:
    @pytest.mark.parametrize("d,h_plus,h,un,r3", [
        (-23, 3, 3, 0, 1),
        (229, 3, 3, -1, 1),
        (12, 2, 1, 1, 0),
        (5, 1, 1, -1, 0),
        (32009, 9, 9, -1, 2),
    ])
    def test_examples(self, d, h_plus, h, un, r3):
        info = forms.class_group_info(d)
        assert (info.h_plus, info.h, info.unit_norm, info.r3) == (h_plus, h, un, r3)
        assert info.three_torsion_count == 3**r3

    @pytest.mark.parametrize("d,text", [
        (-23, "D=Discriminant(value=-23, sign='negative', parity_class='odd'), h_plus=3, h=3, "
              "unit_norm=0, three_torsion_count=3, r3=1"),
        (-3299, "D=Discriminant(value=-3299, sign='negative', parity_class='odd'), h_plus=27, "
                "h=27, unit_norm=0, three_torsion_count=9, r3=2"),
        (-4, "D=Discriminant(value=-4, sign='negative', parity_class='even'), h_plus=1, h=1, "
             "unit_norm=0, three_torsion_count=1, r3=0"),
        (12, "D=Discriminant(value=12, sign='positive', parity_class='even'), h_plus=2, h=1, "
             "unit_norm=1, three_torsion_count=1, r3=0"),
        (229, "D=Discriminant(value=229, sign='positive', parity_class='odd'), h_plus=3, h=3, "
              "unit_norm=-1, three_torsion_count=3, r3=1"),
        (32009, "D=Discriminant(value=32009, sign='positive', parity_class='odd'), h_plus=9, "
                "h=9, unit_norm=-1, three_torsion_count=9, r3=2"),
    ])
    def test_repr_fields_and_immutability(self, d, text):
        # the repr the dataclass of earlier versions printed
        info = forms.class_group_info(d)
        assert repr(info) == f"ClassGroupInfo({text})"
        assert info == forms.class_group_info(d) and hash(info) == hash(forms.class_group_info(d))
        assert info.D == arith.classify_discriminant(d)
        for name in ("D", "h_plus", "h", "unit_norm", "three_torsion_count", "r3"):
            with pytest.raises(AttributeError):
                setattr(info, name, 0)
        with pytest.raises(AttributeError):
            info.D.value = 0

    def test_parity_link(self):
        for d in fundamental_range(2, 3000):
            info = forms.class_group_info(d)
            if info.unit_norm == 1:
                assert info.h_plus % 2 == 0 and info.h == info.h_plus // 2
            else:
                assert info.h == info.h_plus
            assert (info.h % 3 == 0) == (info.h_plus % 3 == 0), d


class TestAnalyticImaginary:
    @pytest.mark.parametrize("d,h", [(-23, 3), (-4, 1), (-3, 1), (-7, 1), (-47, 5)])
    def test_examples(self, d, h):
        assert forms.analytic_h_imaginary(d) == h

    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            forms.analytic_h_imaginary(229)

    def test_agrees_with_form_count_to_2000(self):
        for d in fundamental_range(-2000, 0):
            assert forms.analytic_h_imaginary(d) == len(forms.enumerate_classes(d)), d

import concurrent.futures
import json
import random

import numpy as np
import pytest

from quadclass import arith, experiments, families, forms


@pytest.fixture(scope="module")
def fam14():
    return families.validate(1, 4, 4, "theorem")


@pytest.fixture(scope="module")
def fam_lambda():
    return families.validate(5, 12, 12, "lambda")


def h_of(d):
    return forms.class_group_info(d).h


class TestEnumerateSPlus:
    def test_window_100(self, fam14):
        got = [d.value for d in experiments.enumerate_s_plus(100, fam14)]
        assert got == [5, 13, 17, 21, 29, 33, 37, 41, 53, 57, 61, 65, 69, 73, 77, 85, 89, 93, 97]

    def test_strict_upper_bound(self, fam14):
        assert [d.value for d in experiments.enumerate_s_plus(6, fam14)] == [5]
        assert [d.value for d in experiments.enumerate_s_plus(5, fam14)] == []

    def test_empty(self, fam14):
        assert list(experiments.enumerate_s_plus(0, fam14)) == []

    def test_even_family(self):
        fam = families.validate(8, 16, 0, "nh")
        got = [d.value for d in experiments.enumerate_s_plus(100, fam)]
        assert got == [8, 24, 40, 56, 88]  # 72 = 4 * 18 has non-squarefree core

    def test_requires_family(self):
        with pytest.raises(ValueError):
            list(experiments.enumerate_s_plus(100, families.validate(3, 6, 0, "nh")))


class TestSurveyLimit:
    """survey_limit: the largest |D| of each sign whose divisor table fits
    _TABLE_CAP_BYTES, and the refusals it drives."""

    @staticmethod
    def _largest_ns(lo, hi, negative):
        """The fundamental discriminants of one sign with lo <= |D| <= hi, by
        |D|, and arith._largest_n of each, in numpy."""
        m = np.arange(lo, hi + 1, dtype=np.int64)
        m = m[np.frombuffer(experiments._fundamental((-m if negative else m).tolist()), bool)]
        if not negative:  # b = 1 for odd D, 2 for even D
            return m, (m - np.where(m & 1, 1, 4)) >> 2
        q = m // 3
        s = np.sqrt(q).astype(np.int64)
        s -= s * s > q
        s += (s + 1) ** 2 <= q
        b = s - ((s - m) & 1)  # the largest b = D (mod 2) with 3b^2 <= |D|
        return m, (m + b * b) >> 2

    @pytest.mark.parametrize("negative", [False, True], ids=["positive", "negative"])
    def test_every_fundamental_d_up_to_the_limit_fits_and_the_next_does_not(self, negative):
        cap = experiments._TABLE_CAP_BYTES
        limit = experiments.survey_limit(negative)
        sign = -1 if negative else 1
        top = 0
        for lo in range(1, limit + 1, 1 << 20):
            m, n = self._largest_ns(lo, min(lo + (1 << 20) - 1, limit), negative)
            top = max(top, int(n.max()))
            assert [arith._largest_n(sign * d) for d in m[::997].tolist()] == n[::997].tolist()
        assert m[-1] == limit
        assert arith.divisor_table_bytes(top) <= cap
        after = next(d for d in range(limit + 1, limit + 50)
                     if arith.is_fundamental_discriminant(sign * d))
        assert arith.divisor_table_bytes(arith._largest_n(sign * after)) > cap

    @pytest.mark.parametrize("cap", [1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14])
    def test_matches_a_scan_at_small_caps(self, cap, monkeypatch):
        monkeypatch.setattr(experiments, "_TABLE_CAP_BYTES", cap)
        for sign in (1, -1):
            fund = [m for m in range(1, cap) if arith.is_fundamental_discriminant(sign * m)]
            fits = [arith.divisor_table_bytes(arith._largest_n(sign * m)) <= cap for m in fund]
            assert experiments.survey_limit(sign < 0) == fund[fits.index(False) - 1], sign

    def test_default_cap_limits_are_derived(self):
        """survey_limit's seeded limits of the default cap are those _limits
        derives, so a run at that cap can skip the search."""
        derived = experiments._limits(1 << 27)
        assert derived == experiments._SURVEY_LIMITS[1 << 27] == (8_533_837, 6_402_243)

    def test_refused_before_any_array_is_made(self, monkeypatch, fam14, fam_lambda):
        # Each survey checks x, x + t or x - 1; enumerate_s_plus computes no
        # class data, so its bound is the squarefree sieve's 2^27 cells.
        def no_arange(*args, **kwargs):
            raise AssertionError("np.arange was called")

        monkeypatch.setattr(np, "arange", no_arange)
        pos, neg = experiments.survey_limit(), experiments.survey_limit(negative=True)
        runs = [(experiments.nh_average, pos + 1, fam14, pos),
                (experiments.indivisibility_density, pos + 1, fam14, pos),
                (experiments.pair_experiment, pos - 3, fam14, pos),
                (experiments.lambda_survey, pos - 11, fam_lambda, pos),
                (experiments.imaginary_density, neg + 2, fam14, neg)]
        for survey, x, fam, limit in runs:
            for x in (x, 2**30, 2**48):
                with pytest.raises(ValueError, match=f"exceeds the survey limit {limit} "):
                    survey(x, fam)
        for x in (2**27 + 2, 2**30):
            with pytest.raises(ValueError, match=f"exceeds the squarefree sieve's {2**27} cells"):
                experiments.enumerate_s_plus(x, fam14)


class TestNhAverage:
    def test_matches_direct_recomputation(self, fam14):
        rep = experiments.nh_average(2000, fam14, [500, 2000])
        members = [d.value for d in experiments.enumerate_s_plus(2000, fam14)]
        expected = sum(3 ** forms.class_group_info(d).r3 for d in members) / len(members)
        assert rep.checkpoints[-1].nh_average == pytest.approx(expected)
        assert rep.checkpoints[-1].sets.S_plus == len(members)
        assert rep.target_bound == pytest.approx(4 / 3)

    def test_no_data_flag(self, fam14):
        rep = experiments.nh_average(4, fam14, [2, 4])
        assert all(cp.no_data for cp in rep.checkpoints)

    def test_counts_monotone(self, fam14):
        rep = experiments.nh_average(3000, fam14)
        counts = [(cp.sets.S, cp.sets.S_plus) for cp in rep.checkpoints]
        assert counts == sorted(counts)

    def test_checkpoint_validation(self, fam14):
        with pytest.raises(ValueError):
            experiments.nh_average(100, fam14, [50, 50])
        with pytest.raises(ValueError):
            experiments.nh_average(100, fam14, [50, 200])


class TestIndivisibility:
    def test_matches_direct_recomputation(self, fam14):
        rep = experiments.indivisibility_density(1500, fam14, [1500])
        members = [d.value for d in experiments.enumerate_s_plus(1500, fam14)]
        good = [d for d in members if h_of(d) % 3 != 0]
        cp = rep.checkpoints[-1]
        assert cp.sets.L == len(good)
        assert cp.ratio_L == pytest.approx(len(good) / len(members))
        assert rep.target_bound == pytest.approx(5 / 6)

    def test_counting_inequality_reported(self, fam14):
        rep = experiments.indivisibility_density(2000, fam14)
        for cp in rep.checkpoints:
            if cp.no_data:
                continue
            assert cp.lemma_lhs == pytest.approx(2 * cp.sets.L / cp.sets.S_plus)
            assert cp.lemma_rhs == pytest.approx(3 - cp.nh_average)
            assert cp.lemma_lhs >= cp.lemma_rhs - 1e-12


class TestPairs:
    def test_frozen_counts_x100(self, fam14):
        rep = experiments.pair_experiment(100, fam14, [100])
        cp = rep.checkpoints[-1]
        sets = cp.sets
        assert (sets.S, sets.S_plus, sets.L, sets.L_t, sets.L_cap_Lt) == (25, 19, 19, 20, 15)
        assert cp.ratio_intersection == pytest.approx(15 / 25)

    def test_membership_against_set_definitions(self, fam14):
        x, t = 800, 4
        rep = experiments.pair_experiment(x, fam14, [x])
        rng = random.Random(43)
        members = list(range(1, x + 1, 4))
        sample = rng.sample(members, 60)
        in_l = in_lt = 0
        for d in sample:
            l_member = d != 1 and arith.mobius(d) != 0 and h_of(d) % 3 != 0
            lt_member = arith.mobius(d + t) != 0 and h_of(d + t) % 3 != 0
            in_l += l_member
            in_lt += lt_member
        # spot totals agree with the report when the sample is the whole set
        full_l = sum(1 for d in members if d != 1 and arith.mobius(d) != 0 and h_of(d) % 3 != 0)
        full_lt = sum(1 for d in members if arith.mobius(d + t) != 0 and h_of(d + t) % 3 != 0)
        cp = rep.checkpoints[-1]
        assert (cp.sets.L, cp.sets.L_t) == (full_l, full_lt)

    def test_inclusion_exclusion_exact(self, fam14):
        rep = experiments.pair_experiment(3000, fam14)
        for cp in rep.checkpoints:
            sets = cp.sets
            if sets.S == 0:
                continue
            # |L u Lt| recovered from the identity must be an integer within bounds
            union = sets.L + sets.L_t - sets.L_cap_Lt
            assert sets.L_cap_Lt <= min(sets.L, sets.L_t)
            assert max(sets.L, sets.L_t) <= union <= sets.S

    def test_requires_theorem_level(self):
        nh_only = families.validate(1, 4, 0, "nh")
        with pytest.raises(ValueError):
            experiments.pair_experiment(100, nh_only)

    def test_counts_monotone(self, fam14):
        rep = experiments.pair_experiment(2500, fam14)
        seq = [(c.sets.S, c.sets.L, c.sets.L_t, c.sets.L_cap_Lt) for c in rep.checkpoints]
        assert seq == sorted(seq)


class TestLambdaSurvey:
    def test_certificates_small_run(self, fam_lambda):
        certs, rep = experiments.lambda_survey(2000, fam_lambda)
        assert certs
        cp = rep.checkpoints[-1]
        assert len(certs) == cp.sets.L_cap_Lt
        for c in certs:
            d = c.D.value
            assert d % 3 == 2 and (d + c.t) % 3 == 2
            assert c.legendre_D == -1 and c.legendre_Dt == -1
            assert c.h_D_mod3 in (1, 2) and c.h_Dt_mod3 in (1, 2)
            assert c.verdict == experiments.LAMBDA3_VERDICT

    def test_certified_class_numbers_indivisible(self, fam_lambda):
        certs, _ = experiments.lambda_survey(1200, fam_lambda)
        for c in certs:
            assert h_of(c.D.value) % 3 != 0
            assert h_of(c.D.value + c.t) % 3 != 0

    def test_requires_lambda_level(self, fam14):
        with pytest.raises(ValueError):
            experiments.lambda_survey(100, fam14)


class TestImaginary:
    def test_matches_direct_recomputation(self, fam14):
        x = 1500
        rep = experiments.imaginary_density(x, fam14, [x])
        members = [d for d in range(-x + 1, 0) if d % 4 == 1 and arith.is_fundamental_discriminant(d)]
        good = [d for d in members if h_of(d) % 3 != 0]
        cp = rep.checkpoints[-1]
        assert cp.sets.S_plus == len(members)
        assert cp.sets.L == len(good)
        assert cp.ratio_L == pytest.approx(len(good) / len(members))
        assert rep.target_bound == 0.5

    def test_no_data(self, fam14):
        rep = experiments.imaginary_density(2, fam14, [2])
        assert rep.checkpoints[-1].no_data

    def test_even_family_members(self):
        fam = families.validate(8, 16, 0, "nh")
        rep = experiments.imaginary_density(100, fam, [100])
        members = [d for d in range(-99, 0) if d % 16 == 8 and arith.is_fundamental_discriminant(d)]
        assert rep.checkpoints[-1].sets.S_plus == len(members)


class TestDeterminismAndCache:
    def _render(self, rep):
        return [(c.x, c.sets, c.ratio_L, c.ratio_Lt, c.ratio_intersection, c.nh_average)
                for c in rep.checkpoints]

    def test_jobs_do_not_change_reports(self, fam14):
        x = 3000
        base = self._render(experiments.pair_experiment(x, fam14))
        for jobs in (2, 4):
            assert self._render(experiments.pair_experiment(x, fam14, jobs=jobs)) == base

    def test_warm_cache_transparent(self, fam14):
        cache = experiments.ClassTable()
        cold = self._render(experiments.indivisibility_density(2000, fam14, cache=cache))
        assert cache
        warm = self._render(experiments.indivisibility_density(2000, fam14, cache=cache))
        assert warm == cold

    def test_cache_is_extended_and_reused(self, monkeypatch):
        cache = experiments.ClassTable()
        experiments.compute_class_infos([5, 13, -23], cache=cache)
        assert set(cache) == {5, 13, -23}
        row = cache.row(5)
        computed = []
        core_rows = experiments._core_rows

        def recording(todo, *args):
            computed.append(todo)
            return core_rows(todo, *args)

        monkeypatch.setattr(experiments, "_core_rows", recording)
        experiments.compute_class_infos([5, 17], cache=cache)
        assert computed == [[17]]  # only the D the cache lacks are computed
        assert cache.row(5) == row  # cached row untouched
        assert set(cache) == {5, 13, 17, -23}

    def test_over_cap_falls_back_to_trial_division(self, monkeypatch):
        """A D past the table cap is refused, not computed one at a time (the
        name is that of the per-D fallback this refusal replaced). Under a
        1 KiB cap, whose survey limits are 197 for D > 0 and 148 for D < 0, a
        D past its sign's limit raises a ValueError naming the limit at any
        jobs, and the D within the limits keep the rows of the full cap."""
        ds = [d for d in range(-3000, 3000) if arith.is_fundamental_discriminant(d)]
        with_table = experiments.compute_class_infos(ds)
        monkeypatch.setattr(experiments, "_TABLE_CAP_BYTES", 1 << 10)
        assert (experiments.survey_limit(), experiments.survey_limit(negative=True)) == (197, 148)
        for jobs in (1, 2):
            with pytest.raises(ValueError, match=r"\|D\| = 201 exceeds the survey limit 197 for "
                                                 r"D > 0 \(a divisor table within 1024 bytes\)$"):
                experiments.compute_class_infos([5, 201, -3], jobs=jobs)
            with pytest.raises(ValueError, match=r"\|D\| = 151 exceeds the survey limit 148 for D < 0"):
                experiments.compute_class_infos([-151, 5], jobs=jobs)
            inside = [d for d in ds if -148 <= d <= 197]
            assert experiments.compute_class_infos(inside, jobs=jobs) == {
                d: with_table[d] for d in inside}
        # a D already in the cache is not computed, so it is not refused
        assert experiments.compute_class_infos([5, 201], cache=with_table) == {
            d: with_table[d] for d in (5, 201)}

    def test_pool_matches_serial(self):
        ds = [d for d in range(-500, 500) if arith.is_fundamental_discriminant(d)]
        serial = experiments.compute_class_infos(ds)
        pooled = experiments.compute_class_infos(ds, jobs=3)
        assert serial == pooled

    def test_pool_size_bounded_by_cores_and_chunks(self, monkeypatch):
        # A stand-in executor records max_workers and maps in this process,
        # so no large pool is ever started.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        ds = [d for d in range(-2000, 2000) if arith.is_fundamental_discriminant(d)]
        serial = experiments.compute_class_infos(ds)
        # _core_rows imports the executor from concurrent.futures when it
        # starts a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiments, "_worker_table", None)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        assert experiments.compute_class_infos(ds, jobs=100000) == serial
        assert experiments.compute_class_infos(ds, jobs=2) == serial
        pos = [d for d in ds if d > 0]
        assert experiments.compute_class_infos(pos[:2], jobs=100000) == {
            d: serial[d] for d in pos[:2]}
        # The D < 0 are counted in this process, so two of them start no pool.
        assert experiments.compute_class_infos(ds[:2], jobs=100000) == {
            d: serial[d] for d in ds[:2]}
        assert experiments.compute_class_infos(ds, jobs=0) == serial
        assert sizes == [3, 2, 2]
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert experiments.compute_class_infos(ds, jobs=100000) == serial
        assert sizes == [3, 2, 2]


class TestClassTable:
    """The mapping view over class rows that the surveys and the CLI share."""

    @pytest.fixture
    def table(self):
        return experiments.compute_class_infos([229, 5, -23, 5])

    def test_equals_dict_of_class_group_info(self, table):
        expected = {d: forms.class_group_info(d) for d in (-23, 5, 229)}
        assert table == expected and expected == table
        assert list(table) == [-23, 5, 229]
        assert table.rows.tolist() == [[-23, 3, 3, 0, 1], [5, 1, 1, -1, 0], [229, 3, 3, -1, 1]]

    @pytest.mark.parametrize("key", [2**70, -2**70, 2**63, -2**63 - 1, "5", 5.0, np.float64(5),
                                     None, (5,), b"5", 7, -2**63, 2**63 - 1],
                             ids=repr)
    def test_absent_keys(self, table, key):
        assert key not in table
        with pytest.raises(KeyError):
            table[key]
        assert table.get(key) is None

    @pytest.mark.parametrize("key", [5, np.int64(5), np.int32(5), np.uint64(5)], ids=repr)
    def test_integer_keys(self, table, key):
        assert key in table
        assert table[key] == forms.class_group_info(5)

    def test_empty(self):
        table = experiments.ClassTable()
        assert len(table) == 0 and list(table) == [] and 5 not in table and table == {}
        assert table.rows.shape == (0, 5) and table.rows.dtype == np.int64
        with pytest.raises(KeyError):
            table[5]

    def test_add_merges_in_order(self, table):
        table.add(experiments.compute_class_infos([13, -4]).rows)
        assert list(table) == [-23, -4, 5, 13, 229]
        assert table[13] == forms.class_group_info(13)
        assert table[-4] == forms.class_group_info(-4)

    @staticmethod
    def _row(d):
        info = forms.class_group_info(d)
        return [d, info.h_plus, info.h, info.unit_norm, info.r3]

    @pytest.mark.parametrize("before", [[], [229, -23]], ids=repr)
    @pytest.mark.parametrize("ds", [[13, 12, 8, 5, -3, -4, -24], [-24, -4, 5, 13]], ids=repr)
    def test_add_rows_in_any_order(self, before, ds):
        """Rows given in descending or ascending D, into an empty table or
        not, give ascending int64 columns of forms.class_group_info."""
        table = experiments.ClassTable()
        for new in (before, ds):
            table.add(np.array([self._row(d) for d in new], np.int64).reshape(-1, 5))
        expected = sorted(before + ds)
        assert [c.tolist() for c in table.columns] == list(map(list, zip(*map(self._row, expected))))
        assert {c.typecode for c in table.columns} == {"q"}
        assert table == {d: forms.class_group_info(d) for d in expected}

    @pytest.mark.parametrize("cache", [{}, {5: None}, [], [5]], ids=repr)
    @pytest.mark.parametrize("ds", [[], [5]], ids=repr)
    def test_other_caches_are_refused(self, monkeypatch, fam14, cache, ds):
        """A cache that is not a ClassTable raises TypeError naming its type,
        before anything is computed, even when there is nothing to compute."""
        def fail(*args):
            pytest.fail("_core_rows called")

        monkeypatch.setattr(experiments, "_core_rows", fail)
        name = type(cache).__name__
        with pytest.raises(TypeError, match=rf"not {name}$"):
            experiments.compute_class_infos(ds, cache=cache)
        with pytest.raises(TypeError, match=rf"not {name}$"):
            experiments.nh_average(100, fam14, cache=cache)

    def test_shares_the_columns_of_a_cache_holding_just_its_d(self):
        """A cold or warm run whose cache holds exactly its D gets the cache's
        own columns, and a later merge into the cache leaves them as they were."""
        cache = experiments.ClassTable()
        for ds in ([5, 13, -4], [13, -4, 5, 13]):
            got = experiments.compute_class_infos(ds, cache=cache)
            assert all(a is b for a, b in zip(got.columns, cache.columns))
        sub = experiments.compute_class_infos([5], cache=cache)
        assert not any(a is b for a, b in zip(sub.columns, cache.columns)) and list(sub) == [5]
        experiments.compute_class_infos([17], cache=cache)
        assert list(got) == [-4, 5, 13] and list(cache) == [-4, 5, 13, 17]

    def test_table_cache_is_extended(self, table):
        got = experiments.compute_class_infos(iter([17, 12, 13, 5]), cache=table)
        assert list(got) == [5, 12, 13, 17]
        assert list(table) == [-23, 5, 12, 13, 17, 229]

    @pytest.mark.parametrize("ds", [[], [5], [229, 5, -23, 5], [13, 13, 13], [17, -4, 5, -4, 17],
                                    np.array([12, -3, 12, -23], np.int64)], ids=repr)
    def test_holds_exactly_the_d_asked_for(self, table, ds):
        """Unsorted, repeated or no D; a cache holding other D adds none."""
        expected = sorted(set(np.asarray(ds).tolist()))
        for cache in (None, experiments.ClassTable(), table):
            got = experiments.compute_class_infos(ds, cache=cache)
            assert list(got) == expected
            assert got == {d: forms.class_group_info(d) for d in expected}

    def test_running_totals_do_not_overflow(self):
        totals = experiments._totals([3**39] * 3, [0, 1, 3])
        assert totals == [0, 3**39, 3 * 3**39] and 3 * 3**39 >= 1 << 63
        flags = experiments._totals(iter([True, False, True, True]), [1, 2, 2, 4])
        assert flags == [1, 1, 1, 3] and {type(v) for v in flags} == {int}

    def test_checkpoints_hold_python_numbers(self, fam14, fam_lambda):
        reports = [experiments.nh_average(500, fam14),
                   experiments.indivisibility_density(500, fam14),
                   experiments.pair_experiment(500, fam14),
                   experiments.lambda_survey(500, fam_lambda)[1],
                   experiments.imaginary_density(500, fam14)]
        for rep in reports:
            for cp in rep.checkpoints:
                values = {**cp._asdict(), "sets": cp.sets._asdict()}
                values["sets"]["family"] = values["sets"]["family"]._asdict()
                json.dumps(values, default=lambda o: pytest.fail(f"{type(o)} in {rep.experiment}"))
                for v in [*values.values(), *values["sets"].values()]:
                    assert type(v) in (int, float, bool, type(None), dict), (rep.experiment, v)


SCAN_XS = (1, 2, 5, 6, 9, 500)


def _brute_members(family, lo, hi):
    return [d for d in range(lo, hi + 1)
            if d % family.N == family.m % family.N and arith.is_fundamental_discriminant(d)]


def _brute_progression(family, lo, hi):
    return [d for d in range(lo, hi + 1) if d % family.N == family.m % family.N]


class TestScanEquivalence:
    """The progression scan against a brute-force filter through
    arith.is_fundamental_discriminant, for both signs."""

    @pytest.fixture(params=[(1, 4), (8, 16), (12, 16), (3, 9)], ids=lambda p: f"{p[0]}mod{p[1]}")
    def nh_family(self, request):
        return families.validate(*request.param, 0, "nh")

    @pytest.fixture(params=[(5, 12, 8, "theorem"), (17, 12, 12, "lambda")],
                    ids=["theorem-5mod12-t8", "lambda-17mod12-t12"])
    def pair_family(self, request):
        return families.validate(*request.param)

    @pytest.mark.parametrize("x", SCAN_XS)
    def test_enumerate_s_plus(self, nh_family, x):
        got = [d.value for d in experiments.enumerate_s_plus(x, nh_family)]
        assert got == _brute_members(nh_family, 1, x - 1)

    @pytest.mark.parametrize("x", SCAN_XS)
    def test_real_report_counts(self, nh_family, x):
        cps = [c for c in SCAN_XS if c <= x]
        for runner in (experiments.nh_average, experiments.indivisibility_density):
            rep = runner(x, nh_family, cps)
            for c, cp in zip(cps, rep.checkpoints):
                assert cp.sets.S == len(_brute_progression(nh_family, 1, c))
                assert cp.sets.S_plus == len(_brute_members(nh_family, 1, c - 1))

    @pytest.mark.parametrize("x", SCAN_XS)
    def test_imaginary_report_counts(self, nh_family, x):
        cps = [c for c in SCAN_XS if c <= x]
        rep = experiments.imaginary_density(x, nh_family, cps)
        for c, cp in zip(cps, rep.checkpoints):
            assert cp.sets.S == len(_brute_progression(nh_family, -c + 1, -1))
            members = _brute_members(nh_family, -c + 1, -1)
            assert cp.sets.S_plus == len(members)
            assert cp.sets.L == (sum(h_of(d) % 3 != 0 for d in members) if members else None)

    @pytest.mark.parametrize("x", SCAN_XS)
    def test_pair_sets(self, pair_family, x):
        cps = [c for c in SCAN_XS if c <= x]
        t = pair_family.t
        rep = experiments.pair_experiment(x, pair_family, cps)
        for c, cp in zip(cps, rep.checkpoints):
            prog = _brute_progression(pair_family, 1, c)
            in_l = [arith.is_fundamental_discriminant(d) and h_of(d) % 3 != 0 for d in prog]
            in_lt = [arith.is_fundamental_discriminant(d + t) and h_of(d + t) % 3 != 0
                     for d in prog]
            assert cp.sets.S == len(prog)
            assert cp.sets.S_plus == len(_brute_members(pair_family, 1, c))
            assert cp.sets.L == sum(in_l)
            assert cp.sets.L_t == sum(in_lt)
            assert cp.sets.L_cap_Lt == sum(a and b for a, b in zip(in_l, in_lt))

    @pytest.mark.parametrize("x", SCAN_XS)
    def test_lambda_certificates(self, x):
        fam = families.validate(17, 12, 12, "lambda")
        certs, _ = experiments.lambda_survey(x, fam)
        expected = [d for d in _brute_progression(fam, 1, x)
                    if all(arith.is_fundamental_discriminant(e) and h_of(e) % 3 != 0
                           for e in (d, d + fam.t))]
        assert [c.D.value for c in certs] == expected

    @pytest.mark.parametrize("first,second", [(30_000, 3000), (3000, 30_000)],
                             ids=["smaller-after-larger", "larger-after-smaller"])
    def test_fundamental_keeps_its_sieve(self, monkeypatch, first, second):
        """The kept sieve serves a smaller n by slicing and grows for a larger
        one by the cells it lacks alone."""
        windows = []
        cells = experiments._squarefree_cells

        def counted(lo, hi, k, max_cells):
            windows.append((lo, hi))
            return cells(lo, hi, k, max_cells)

        monkeypatch.setattr(experiments, "_squarefree_cells", counted)
        monkeypatch.setattr(experiments, "_sf", bytearray(1))
        for n in (first, second):
            kept = experiments._sf
            size = len(kept)
            ds = [*range(-n, n + 1, 7), -n, n, -n + 1, n - 1]
            assert list(experiments._fundamental(ds)) == [
                arith.is_fundamental_discriminant(d) for d in ds]
            # Grown into a new object, so a caller holding the old one still
            # slices a consistent prefix.
            assert len(kept) == size
        assert windows == ([(1, 30_000)] if first > second else [(1, 3000), (3001, 30_000)])

    def test_fundamental_without_window(self):
        rng = random.Random(19)
        every = list(range(-3000, 3001))
        draws = [rng.randrange(-10**6, 10**6 + 1) for _ in range(3000)]
        repeats = rng.choices(every, k=2000) + [-10**6, 10**6, 1, 0, -4, -3, -4]
        for ds in (every, draws, [], [d for d in draws if d > 0], [d for d in draws if d < 0],
                   repeats):
            got = experiments._fundamental(ds)
            assert list(got) == [arith.is_fundamental_discriminant(d) for d in ds]

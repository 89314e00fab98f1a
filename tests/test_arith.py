import bisect
import functools
import math
import pickle
import random

import numpy as np
import pytest
import sympy

from quadclass import arith


def brute_squarefree(n):
    return all(n % (k * k) for k in range(2, math.isqrt(n) + 1))


class TestMobius:
    @pytest.mark.parametrize("n,expected", [(1, 1), (4, 0), (6, 1), (30, -1), (45, 0), (229, -1)])
    def test_examples(self, n, expected):
        assert arith.mobius(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            arith.mobius(0)

    def test_against_sympy(self):
        rng = random.Random(7)
        for n in list(range(1, 2000)) + [rng.randrange(1, 10**9) for _ in range(300)]:
            assert arith.mobius(n) == sympy.mobius(n), n


class TestSquarefree:
    @pytest.mark.parametrize("n,expected", [(1, True), (45, False), (229, True), (4, False)])
    def test_examples(self, n, expected):
        assert arith.is_squarefree(n) is expected

    def test_matches_mobius_up_to_1e5(self):
        for n in range(1, 10**5 + 1):
            assert arith.is_squarefree(n) == (arith.mobius(n) != 0), n

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for n in [rng.randrange(1, 10**6) for _ in range(500)]:
            assert arith.is_squarefree(n) == brute_squarefree(n), n


class TestPrimesUpto:
    """primes_upto against sympy.primerange, sieved from an empty cache."""

    # 37^2 and 1031^2 are sieved to a prime square root, so a sieve that stops
    # one short of isqrt(limit) reports them prime.
    LIMITS = [0, 1, 2, 3, 4, 5, 24, 25, 1023, 1024, 1025, 37**2, 65537, 1031**2, 10**6]

    @staticmethod
    @functools.cache
    def _sympy_primes():
        return list(sympy.primerange(max(TestPrimesUpto.LIMITS) + 1))

    def expected(self, n):
        primes = self._sympy_primes()
        return primes[: bisect.bisect_right(primes, n)]

    @pytest.fixture
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(arith, "_primes", [])
        monkeypatch.setattr(arith, "_prime_limit", 0)

    @pytest.mark.parametrize("n", LIMITS)
    def test_matches_sympy(self, empty_cache, n):
        assert arith.primes_upto(n) == self.expected(n)

    @pytest.mark.parametrize("reverse", [False, True], ids=["growing", "shrinking"])
    def test_cache_grows_in_either_order(self, empty_cache, reverse):
        for n in sorted(self.LIMITS, reverse=reverse):
            assert arith.primes_upto(n) == self.expected(n), n

    def test_returned_list_is_a_copy(self, empty_cache):
        primes = arith.primes_upto(100)
        primes[0] = 4
        primes.append(101)
        assert arith.primes_upto(100) == self.expected(100)


class TestSieve:
    def test_window_1_to_10(self):
        w = arith.sieve_squarefree(1, 10)
        assert [n for n in range(1, 11) if w.flag(n)] == [1, 2, 3, 5, 6, 7, 10]

    def test_singleton_windows(self):
        assert arith.sieve_squarefree(49, 49).flag(49) is False
        assert arith.sieve_squarefree(1, 1).flag(1) is True

    def test_pointwise_agreement_on_random_windows(self):
        rng = random.Random(13)
        for _ in range(1000):
            lo = rng.randrange(1, 10**5)
            hi = lo + rng.randrange(0, 60)
            w = arith.sieve_squarefree(lo, hi)
            for n in range(lo, hi + 1):
                assert w.flag(n) == arith.is_squarefree(n), (lo, hi, n)

    def test_window_too_large(self):
        with pytest.raises(arith.WindowTooLarge):
            arith.sieve_squarefree(1, 10**7, max_cells=10**6)

    @pytest.mark.parametrize("k", [1, 4, 12, 49])
    def test_cells_shorter_than_a_prime_square(self, k):
        # Progressions of few cells: for most p the first cell p^2 strikes
        # lies past the last cell.
        for x in range(1, 201):
            for l in range(1, min(k, x) + 1):
                if math.gcd(k, l) == 1:
                    want = [int(brute_squarefree(m)) for m in range(l, x + 1, k)]
                    assert list(arith._squarefree_cells(l, x, k, 10**6)) == want, (x, k, l)

    def test_flags_are_a_bool_array(self):
        w = arith.sieve_squarefree(45, 100)
        assert isinstance(w.squarefree_flags, np.ndarray) and w.squarefree_flags.dtype == bool
        assert w.squarefree_flags.tolist() == [brute_squarefree(n) for n in range(45, 101)]
        assert w.count() == sum(map(brute_squarefree, range(45, 101)))

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            arith.sieve_squarefree(5, 4)
        with pytest.raises(ValueError):
            arith.sieve_squarefree(0, 4)


class TestRecordTypes:
    def test_sieve_windows_compare_by_identity(self):
        w, v = arith.sieve_squarefree(1, 4), arith.sieve_squarefree(1, 4)
        assert w == w and w != v and not w == v
        assert len({w, v}) == 2
        assert repr(w) == ("SieveWindow(lo=1, hi=4, squarefree_flags=array([ True,  True,  True, "
                           "False]))")

    def test_fields_cannot_be_set(self):
        records = {
            arith.sieve_squarefree(1, 4): ("lo", "hi", "squarefree_flags"),
            arith.classify_discriminant(-23): ("value", "sign", "parity_class"),
            arith.count_squarefree_in_ap(1000, 12, 5):
                ("x", "k", "l", "count", "main_term", "relative_error"),
        }
        for record, names in records.items():
            assert repr(pickle.loads(pickle.dumps(record))) == repr(record)
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
                with pytest.raises(AttributeError):
                    delattr(record, name)

    def test_values_and_equality(self):
        assert arith.classify_discriminant(-23) == arith.classify_discriminant(-23)
        assert arith.classify_discriminant(-23) != arith.classify_discriminant(-20)
        res = arith.count_squarefree_in_ap(1000, 12, 5)
        assert repr(res) == ("SquarefreeAPCount(x=1000, k=12, l=5, count=76, "
                             "main_term=75.99088773175333, relative_error=0.00011991264372162254)")
        assert res == arith.count_squarefree_in_ap(1000, 12, 5)


class TestKronecker:
    @pytest.mark.parametrize("a,n,expected", [
        (2, 3, -1),      # Legendre case: 2 is not a square mod 3
        (6, 3, 0),
        (3, 8, -1),
        (-1, 3, -1),
        (-1, -1, -1),
        (5, -1, 1),
        (1, 0, 1),
        (2, 0, 0),
    ])
    def test_examples(self, a, n, expected):
        assert arith.kronecker(a, n) == expected

    def test_identity_top_argument(self):
        for n in (-12, -7, -2, -1, 1, 2, 3, 8, 15, 30):
            assert arith.kronecker(1, n) == 1

    def test_against_sympy(self):
        rng = random.Random(17)
        for _ in range(3000):
            a = rng.randrange(-500, 501)
            n = rng.randrange(-500, 501)
            assert arith.kronecker(a, n) == sympy.kronecker_symbol(a, n), (a, n)

    def test_multiplicative_in_top_argument(self):
        rng = random.Random(19)
        for _ in range(10**4):
            a = rng.randrange(-300, 301)
            b = rng.randrange(-300, 301)
            n = rng.randrange(-300, 301)
            assert arith.kronecker(a * b, n) == arith.kronecker(a, n) * arith.kronecker(b, n)

    def test_period_3(self):
        # (a/3) depends only on a mod 3
        for a in range(-50, 200):
            assert arith.kronecker(a, 3) == arith.kronecker(a % 3, 3)


class TestClassifyDiscriminant:
    def test_accepts(self):
        d = arith.classify_discriminant(5)
        assert (d.value, d.sign, d.parity_class) == (5, "positive", "odd")
        d = arith.classify_discriminant(12)
        assert (d.sign, d.parity_class) == ("positive", "even")
        d = arith.classify_discriminant(-23)
        assert (d.sign, d.parity_class) == ("negative", "odd")
        d = arith.classify_discriminant(-4)
        assert (d.sign, d.parity_class) == ("negative", "even")

    @pytest.mark.parametrize("d,reason", [
        (9, arith.REASON_PERFECT_SQUARE),
        (1, arith.REASON_IS_ONE),
        (45, arith.REASON_NOT_SQUAREFREE_CORE),
        (16, arith.REASON_PERFECT_SQUARE),
        (20, arith.REASON_NOT_SQUAREFREE_CORE),  # 20/4 = 5 = 1 mod 4
        (7, arith.REASON_NOT_0_OR_1_MOD_4),
        (-6, arith.REASON_NOT_0_OR_1_MOD_4),
        (0, arith.REASON_NOT_SQUAREFREE_CORE),
    ])
    def test_rejections_reasons(self, d, reason):
        with pytest.raises(arith.NotFundamental) as err:
            arith.classify_discriminant(d)
        assert err.value.reason == reason

    def test_matches_brute_predicate(self):
        def brute(d):
            if d in (0, 1):
                return False
            if d > 0 and math.isqrt(d) ** 2 == d:
                return False
            if d % 4 == 1:
                return brute_squarefree(abs(d))
            if d % 4 == 0:
                q = d // 4
                return q % 4 in (2, 3) and brute_squarefree(abs(q))
            return False

        for d in range(-10**4, 10**4 + 1):
            assert arith.is_fundamental_discriminant(d) == brute(d), d


class TestSquarefreeInAP:
    def test_examples(self):
        assert arith.count_squarefree_in_ap(100, 4, 1).count == 20
        assert arith.count_squarefree_in_ap(10, 1, 1).count == 7

    def test_against_direct_enumeration(self):
        rng = random.Random(23)
        for _ in range(60):
            x = rng.randrange(50, 3000)
            k = rng.randrange(1, 30)
            coprime = [l for l in range(1, k + 1) if math.gcd(k, l) == 1]
            l = rng.choice(coprime)
            expected = sum(1 for m in range(l, x + 1, k) if brute_squarefree(m))
            assert arith.count_squarefree_in_ap(x, k, l).count == expected, (x, k, l)

    def test_main_term_constant(self):
        res = arith.count_squarefree_in_ap(10**6, 12, 5)
        # product over p | 12: (1 - 1/4)^-1 (1 - 1/9)^-1 = 3/2
        assert res.main_term == pytest.approx(6 / (12 * math.pi**2) * 1.5 * 10**6)
        assert res.relative_error == abs(res.count - res.main_term) / res.main_term
        assert res.relative_error <= 0.02

    def test_residue_classes_partition_all_squarefree(self):
        x, k = 5000, 12
        total = arith.sieve_squarefree(1, x).count()
        parts = 0
        for l in range(1, k + 1):
            if math.gcd(k, l) == 1:
                parts += arith.count_squarefree_in_ap(x, k, l).count
            else:
                w = arith.sieve_squarefree(1, x)
                parts += int(w.squarefree_flags[l - 1 :: k].sum())
        assert parts == total

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            arith.count_squarefree_in_ap(100, 6, 3)

    def test_below_residue_counts_nothing(self):
        assert arith.count_squarefree_in_ap(4, 12, 5).count == 0
        assert arith.count_squarefree_in_ap(1, 7, 3).count == 0

    def test_modulus_one(self):
        for x in (1, 2, 3, 4, 8, 9, 100, 2021):
            expected = sum(1 for m in range(1, x + 1) if brute_squarefree(m))
            for l in (0, 1, 5):  # every l is the residue 1 = k
                assert arith.count_squarefree_in_ap(x, 1, l).count == expected, (x, l)
        with pytest.raises(ValueError):
            arith.count_squarefree_in_ap(100, 6, 6)

    def test_max_cells_bounds_progression_cells(self):
        # x = 1000, k = 10, l = 3: the members 3, 13, ..., 993 are 100 cells.
        expected = sum(1 for m in range(3, 1001, 10) if brute_squarefree(m))
        assert arith.count_squarefree_in_ap(1000, 10, 3, max_cells=100).count == expected
        with pytest.raises(arith.WindowTooLarge):
            arith.count_squarefree_in_ap(1000, 10, 3, max_cells=99)
        with pytest.raises(arith.WindowTooLarge):
            arith.count_squarefree_in_ap(10**12, 1, 1, max_cells=10**6)

    def test_residue_normalization(self):
        a = arith.count_squarefree_in_ap(500, 7, 3)
        b = arith.count_squarefree_in_ap(500, 7, 10)
        assert a.count == b.count

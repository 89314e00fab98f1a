"""Acceptance suite: runs every criterion at its stated tolerance and prints
one pass/fail line per criterion (visible with `pytest -s`, and in captured
output otherwise).

The density criteria pin the X = 10^5 experiments on the family (1, 4)
(t = 4 for the pair experiment) and X = 10^4 on (17, 12) for the lambda
survey; determinism is checked by comparing rendered report bytes across
worker counts {1, 4} and across cold and warm caches.
"""

import math

import pytest

from quadclass import arith, cli, experiments, families, forms

X_MAIN = 10**5
X_LAMBDA = 10**4


def report_line(name, passed, detail):
    print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def fam14():
    fam = families.validate(1, 4, 4, "theorem")
    assert isinstance(fam, families.CongruenceFamily)
    return fam


@pytest.fixture(scope="module")
def fam_lambda():
    fam = families.validate(17, 12, 12, "lambda")
    assert isinstance(fam, families.CongruenceFamily)
    return fam


def _run_variants(runner, x, family, unpack=False):
    """Run cold/warm x jobs {1, 4} variants; return baseline result + renders."""
    results = {}
    renders = {}
    warm = experiments.ClassTable()

    def go(key, jobs, cache):
        if unpack:
            certs, rep = runner(x, family, jobs=jobs, cache=cache)
        else:
            certs, rep = None, runner(x, family, jobs=jobs, cache=cache)
        results[key] = (certs, rep)
        renders[key] = cli.render_report(rep, "csv", certs) + cli.render_report(rep, "json", certs)

    go("cold-j1", 1, warm)  # fills the warm cache
    go("cold-j4", 4, experiments.ClassTable())
    go("warm-j1", 1, warm)
    go("warm-j4", 4, warm)
    return results, renders


@pytest.fixture(scope="module")
def indiv_runs(fam14):
    return _run_variants(experiments.indivisibility_density, X_MAIN, fam14)


@pytest.fixture(scope="module")
def nh_runs(fam14):
    return _run_variants(experiments.nh_average, X_MAIN, fam14)


@pytest.fixture(scope="module")
def pairs_runs(fam14):
    return _run_variants(experiments.pair_experiment, X_MAIN, fam14)


@pytest.fixture(scope="module")
def lambda_runs(fam_lambda):
    return _run_variants(experiments.lambda_survey, X_LAMBDA, fam_lambda, unpack=True)


@pytest.fixture(scope="module")
def imag_runs(fam14):
    return _run_variants(experiments.imaginary_density, X_MAIN, fam14)


def test_a1_imaginary_oracle_equivalence():
    checked = 0
    for d in range(-1, -5000, -1):
        if not arith.is_fundamental_discriminant(d):
            continue
        h_forms = len(forms.enumerate_classes(d))
        h_sum = forms.analytic_h_imaginary(d)
        assert h_forms == h_sum, (d, h_forms, h_sum)
        checked += 1
    report_line("A1", checked > 1500, f"form count == character sum for {checked} discriminants, exact")


def test_a2_real_group_consistency():
    checked = 0
    for d in range(2, 5000):
        if not arith.is_fundamental_discriminant(d):
            continue
        classes = forms.enumerate_classes(d)
        k = len(classes)
        idx = {c: i for i, c in enumerate(classes)}
        # (i) the class set is closed under compose (idx lookup fails otherwise),
        # so the group it generates is the set itself: order == number of cycles.
        table = [[idx[forms.compose(x, y)] for y in classes] for x in classes]
        e = idx[forms.principal_class(d)]
        # (ii) identity, commutativity, inverses
        assert all(table[e][j] == j for j in range(k)), d
        assert all(table[i][j] == table[j][i] for i in range(k) for j in range(i, k)), d
        for i, x in enumerate(classes):
            f = x.canonical_form
            inv = idx[forms.reduce_form(forms.Form(f.a, -f.b, f.c, f.D))]
            assert table[i][inv] == e, d
        # (iii) unit norm +1 forces even narrow class number
        if forms.unit_norm(d) == 1:
            assert k % 2 == 0, d
        checked += 1
    report_line("A2", checked > 1500, f"cycles == group order and group laws for {checked} discriminants")


def test_a3_known_values():
    i229 = forms.class_group_info(229)
    assert (i229.h, i229.unit_norm) == (3, -1)
    assert len(forms.enumerate_classes(229)) == 3  # cycle count route
    assert forms.class_group_info(-23).h == 3
    assert forms.analytic_h_imaginary(-23) == 3  # independent route
    assert forms.three_torsion_count(32009) == 9
    assert forms.class_group_info(32009).r3 == 2
    # table-oracle route for the 3-torsion count
    classes = forms.enumerate_classes(32009)
    idx = {c: i for i, c in enumerate(classes)}
    table = [[idx[forms.compose(x, y)] for y in classes] for x in classes]
    e = idx[forms.principal_class(32009)]
    assert sum(1 for i in range(len(classes)) if table[table[i][i]][i] == e) == 9
    i12 = forms.class_group_info(12)
    assert (i12.h, i12.h_plus) == (1, 2)
    report_line("A3", True, "h(229)=3 norm=-1, h(-23)=3, 3-torsion(32009)=9, h(12)=1 with h+=2")


def test_a4_squarefree_ap_main_term():
    res = arith.count_squarefree_in_ap(10**6, 12, 5)
    report_line("A4", res.relative_error <= 0.02,
                f"Q(10^6,12,5)={res.count}, main={res.main_term:.1f}, "
                f"rel.err={res.relative_error:.5f} <= 0.02")


def test_a5_indivisibility_bound(indiv_runs):
    _, rep = indiv_runs[0]["cold-j1"]
    ratio = rep.checkpoints[-1].ratio_L
    report_line("A5", ratio >= 5 / 6, f"indivisible ratio {ratio:.6f} >= 5/6 at X=10^5")


def test_a6_nh_average_bracket(nh_runs):
    _, rep = nh_runs[0]["cold-j1"]
    avgs = [cp.nh_average for cp in rep.checkpoints]
    assert [cp.x for cp in rep.checkpoints] == [10**3, 10**4, 10**5]
    final_ok = 1.10 <= avgs[-1] <= 1.40
    steps_ok = all(-0.08 <= b - a <= 0.08 for a, b in zip(avgs, avgs[1:]))
    report_line("A6", final_ok and steps_ok,
                f"averages {[f'{a:.4f}' for a in avgs]} in [1.10, 1.40] with steps within 0.08")


def test_a7_pair_intersection(pairs_runs, fam14):
    _, rep = pairs_runs[0]["cold-j1"]
    cp = rep.checkpoints[-1]
    bound = (10 - math.pi**2) / math.pi**2
    ratio_ok = cp.ratio_intersection >= bound and cp.ratio_intersection >= 0.01321
    # independent membership recount at the final checkpoint, using the warm
    # cache for class numbers but fresh squarefree decisions
    cache = experiments.ClassTable()
    experiments.pair_experiment(X_MAIN, fam14, [X_MAIN], cache=cache)
    t = fam14.t
    l = lt = cap = cup = 0
    for d in range(fam14.m, X_MAIN + 1, fam14.N):
        in_l = d != 1 and arith.mobius(d) != 0 and cache[d].h % 3 != 0
        in_lt = arith.mobius(d + t) != 0 and cache[d + t].h % 3 != 0
        l += in_l
        lt += in_lt
        cap += in_l and in_lt
        cup += in_l or in_lt
    sets = cp.sets
    identity_ok = (l, lt, cap) == (sets.L, sets.L_t, sets.L_cap_Lt) and cap == l + lt - cup
    for point in rep.checkpoints:
        s = point.sets
        assert s.L_cap_Lt <= min(s.L, s.L_t) and s.L + s.L_t - s.L_cap_Lt <= s.S
    report_line("A7", ratio_ok and identity_ok,
                f"intersection ratio {cp.ratio_intersection:.6f} >= {bound:.6f}, "
                f"inclusion-exclusion exact ({cap} = {l} + {lt} - {cup})")


def test_a8_lambda_certificates(lambda_runs):
    certs, _ = lambda_runs[0]["cold-j1"]
    assert certs, "certificate list must be nonempty"
    for c in certs:
        d = c.D.value
        assert d % 3 == 2 and (d + c.t) % 3 == 2, d
        assert forms.class_group_info(d).h % 3 != 0, d          # fresh recomputation
        assert forms.class_group_info(d + c.t).h % 3 != 0, d
    report_line("A8", True,
                f"{len(certs)} certificates at X=10^4; all have D=2 (mod 3), D+t=2 (mod 3), 3 never divides h")


def test_a9_imaginary_bound(imag_runs):
    _, rep = imag_runs[0]["cold-j1"]
    ratio = rep.checkpoints[-1].ratio_L
    report_line("A9", ratio >= 0.5, f"imaginary indivisible ratio {ratio:.6f} >= 0.5 at X=10^5")


def test_a10_determinism(indiv_runs, nh_runs, pairs_runs, lambda_runs, imag_runs):
    details = []
    for name, (_, renders) in [("indivisibility", indiv_runs), ("nh-average", nh_runs),
                               ("pairs", pairs_runs), ("lambda", lambda_runs),
                               ("imaginary", imag_runs)]:
        base = renders["cold-j1"]
        for key in ("cold-j4", "warm-j1", "warm-j4"):
            assert renders[key] == base, f"{name} report differs for {key}"
        details.append(name)
    report_line("A10", True,
                "byte-identical reports across jobs in {1, 4} and cold/warm cache for " + ", ".join(details))

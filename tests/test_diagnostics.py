"""Kolmogorov distances, identity checks, condition scans, variance lemma."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from descentlab.compositions import BernoulliSpec, family_rule
from descentlab.diagnostics import (
    CltRecord,
    clt_table,
    condition_scan,
    identity_check,
    kolmogorov_distance,
    normal_cdf,
    psi_variance_check,
)
from descentlab.errors import FamilyError
from descentlab.families import (
    ExactPmf,
    counting_sequence,
    descent_triangle,
    triangle_row_pmf,
)
from descentlab.rng import Stream
from test_cli import peak_rss_mb

F = Fraction


def row_pmf(family, n):
    return triangle_row_pmf(descent_triangle(family, n), n)


def test_normal_cdf_reference_values():
    assert abs(normal_cdf(0.0) - 0.5) < 1e-15
    assert abs(normal_cdf(-1.0) - 0.15865525393145705) < 1e-14
    assert abs(normal_cdf(1.96) - 0.9750021048517795) < 1e-14


def test_kolmogorov_symmetric_two_point():
    pmf = ExactPmf(-1, (F(1, 2), F(0), F(1, 2)))
    expect = abs(0.5 - normal_cdf(-1.0))
    assert abs(kolmogorov_distance(pmf) - expect) < 1e-15


def test_kolmogorov_affine_invariance():
    base = row_pmf("involution", 9)
    shifted = ExactPmf(base.offset + 7, base.weights)
    assert kolmogorov_distance(base) == kolmogorov_distance(shifted)
    # scale the support by 3 (weights on a sparser lattice)
    scaled_weights = []
    for j, w in enumerate(base.weights):
        scaled_weights.append(w)
        if j < len(base.weights) - 1:
            scaled_weights.extend([F(0), F(0)])
    scaled = ExactPmf(0, tuple(scaled_weights))
    assert abs(kolmogorov_distance(base) - kolmogorov_distance(scaled)) < 1e-15


def test_kolmogorov_degenerate_rejected():
    with pytest.raises(FamilyError):
        kolmogorov_distance(ExactPmf(4, (F(1),)))


def test_kolmogorov_involution_row_six_frozen():
    # FROZEN: first exact run over the row [1, 9, 28, 28, 9, 1] / 76
    k = kolmogorov_distance(row_pmf("involution", 6))
    assert abs(k - 0.2028185287048339) < 1e-14


def test_kolmogorov_against_dense_grid():
    # independent evaluation: maximize |F(x) - Phi(x)| over a dense mesh that
    # brackets every jump from both sides
    import bisect

    for tag, n in (("involution", 6), ("involution", 31), ("derangement", 24),
                   ("fibonacci", 30), ("eulerian", 12), ("excedance", 17),
                   ("derangement", 9), ("involution", 14), ("fibonacci", 9),
                   ("eulerian", 7), ("excedance", 33), ("derangement", 40),
                   ("involution", 55), ("fibonacci", 55), ("eulerian", 9),
                   ("excedance", 8), ("derangement", 15), ("involution", 21),
                   ("fibonacci", 21), ("eulerian", 10)):
        pmf = row_pmf(tag, n)
        mean, sd = pmf.mean(), math.sqrt(pmf.variance())
        zs, cums = [], []
        acc = F(0)
        for k, w in pmf.items():
            acc += w
            zs.append(float(k - mean) / sd)
            cums.append(float(acc))

        def cdf(x):
            idx = bisect.bisect_right(zs, x)
            return cums[idx - 1] if idx else 0.0

        grid = [zs[0] - 1 + 2e-5 * j * (zs[-1] - zs[0] + 2) for j in range(50001)]
        grid += zs + [z - 1e-13 for z in zs]
        dense = max(abs(cdf(x) - normal_cdf(x)) for x in grid)
        assert abs(kolmogorov_distance(pmf) - dense) <= 1e-12


def test_clt_table_involution():
    res = clt_table("involution", [16, 32, 64, 128, 256])
    assert [r.n for r in res.records] == [16, 32, 64, 128, 256]
    assert res.slope <= -0.45
    for r in res.records:
        assert r.scaled == math.sqrt(r.n) * r.K
    assert res.max_scaled == max(r.scaled for r in res.records)


def test_clt_table_derangement_scaling_and_skips():
    res = clt_table("derangement", [4, 16, 64, 256])
    assert res.skipped == (4,)
    for r in res.records:
        assert r.scaled == r.n ** (1 / 3) * r.K


def test_clt_table_skips_rows_below_the_first_row():
    # no row survives, so none is rolled
    for fam in ("derangement", "excedance"):
        res = clt_table(fam, [1], min_n=1)
        assert (res.records, res.skipped) == ((), (1,))
    res = clt_table("derangement", [1, 5], min_n=1)
    assert [r.n for r in res.records] == [5] and res.skipped == (1,)


def test_clt_table_of_no_rows_is_empty():
    res = clt_table("involution", [])
    assert (res.records, res.skipped) == ((), ())
    assert all(math.isnan(x) for x in (res.slope, res.intercept, res.max_scaled))


def test_clt_record_rejects_a_distance_outside_the_unit_interval():
    for k in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="Kolmogorov distance"):
            CltRecord(10, 4.5, 1.0, k, k)


def test_identity_stan1():
    rep = identity_check("stan1", 4)
    assert rep.holds and rep.lhs == 10 and rep.offset_used == 0
    offsets = set()
    for n in range(2, 19):
        rep = identity_check("stan1", n)
        assert rep.holds
        offsets.add(rep.offset_used)
    assert len(offsets) == 1


def test_identity_stan2():
    rep = identity_check("stan2", 3)
    assert rep.holds and rep.lhs == 6 and rep.offset_used == 0
    offsets = set()
    for n in range(2, 19):
        rep = identity_check("stan2", n)
        assert rep.holds
        offsets.add(rep.offset_used)
    assert len(offsets) == 1


def test_identity_derangement_sum():
    rep = identity_check("derangement_sum", 2)
    assert rep.lhs == F(3, 8) and rep.rhs == F(3, 8) and rep.holds
    for n in range(1, 21):
        assert identity_check("derangement_sum", n).holds


def test_identity_fibonacci_pmf():
    for n in range(1, 15):
        assert identity_check("fibonacci_pmf", n).holds


def test_identity_guards():
    with pytest.raises(ValueError):
        identity_check("nonesuch", 3)


# the weight of a 2-part ending at position p in each composition sum
PRODUCT_SUM_WEIGHTS = {
    "stan1": lambda p: p - 1,
    "stan2": lambda p: (p - 1) ** 2,
    "derangement_sum": lambda p: F(1, p),
}


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(sorted(PRODUCT_SUM_WEIGHTS)), n=st.integers(1, 14))
def test_identity_sums_equal_composition_enumeration(which, n):
    total = oracles.composition_product_sum(n, PRODUCT_SUM_WEIGHTS[which])
    if which == "derangement_sum":
        total /= n + 2
    lhs = identity_check(which, n).lhs
    assert type(lhs) is Fraction and lhs == total


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 14))
def test_fibonacci_census_equals_composition_enumeration(n):
    # the check compares its census with the triangle row; so does this
    assert identity_check("fibonacci_pmf", n).holds
    census = oracles.two_part_census(n)
    f_n = counting_sequence("fibonacci", n)[n]
    assert [F(census.get(k, 0), f_n) for k in range(n // 2 + 1)] == list(
        row_pmf("fibonacci", n).weights)


@pytest.mark.parametrize("n", [100, 400])
@pytest.mark.parametrize("which", ["stan1", "stan2", "derangement_sum", "fibonacci_pmf"])
def test_identities_hold_at_large_n(which, n):
    assert identity_check(which, n).holds


def test_condition_scan_bounded():
    for tag in ("involution", "derangement"):
        rows = condition_scan(tag, range(10, 101))
        assert all(r.second_norm < 10 for r in rows)
        assert all(r.third_norm < 10 for r in rows)
        assert all(r.fourth_sup < 10 for r in rows)


def test_condition_scan_two_jump_order():
    rows = condition_scan("involution", range(10, 41), order=2)
    assert all(r.fourth_sup < 20 for r in rows)


def test_condition_scan_evaluates_each_conditional_moment_once(monkeypatch):
    import descentlab.processes as processes
    from descentlab.processes import _difference_moments, conditional_moment, parse_kind
    from test_processes import centered

    def reference_row(kind, i, order, law):  # the scan's formulas, public moments
        p, pp = 2.0, float(F(4, 3))
        sigma2 = sum(conditional_moment(kind, i, order, w, 2) * pr for w, pr in law)
        s2f = float(sigma2)
        acc2 = sum(abs(float(conditional_moment(kind, i, order, w, 2)) / s2f - 1.0)
                   ** p * float(pr) for w, pr in law)
        acc3 = sum(abs(float(conditional_moment(kind, i, order, w, 3)) / s2f**1.5)
                   ** pp * float(pr) for w, pr in law)
        col4 = max(float(conditional_moment(kind, i, order, w, 4)) / s2f**2
                   for w, pr in law)
        return (math.sqrt(i) * acc2 ** (1.0 / p),
                i ** (1.0 / (2.0 * pp)) * acc3 ** (1.0 / pp), col4)

    calls = []

    def counted(*args):
        calls.append(args)
        return _difference_moments(*args)

    # condition_scan imports the name from processes each time it runs
    monkeypatch.setattr(processes, "_difference_moments", counted)
    for tag, order in (("involution", 1), ("derangement", 1), ("involution", 2)):
        kind = parse_kind(tag)
        calls.clear()
        rows = condition_scan(tag, range(10, 31), order=order)
        tri = descent_triangle(tag, 30)
        sources = {row.i: [(k, pr) for k, pr in triangle_row_pmf(tri, row.i - order).items()
                           if pr > 0] for row in rows}
        # one call per (stage, source value) with positive probability
        assert sorted(calls) == sorted((kind, i, order, k)
                                       for i, law in sources.items() for k, _ in law)
        for row in rows:
            law = [(centered(kind, row.i, order, k), pr) for k, pr in sources[row.i]]
            assert (row.second_norm, row.third_norm, row.fourth_sup) == \
                reference_row(tag, row.i, order, law)


def test_condition_scan_takes_sources_over_different_denominators(monkeypatch):
    # the stage laws give every source of a stage one den; the scan must not
    # rely on it, so sources with odd values get their moments over 3 den
    import descentlab.processes as processes
    from descentlab.processes import _difference_moments

    def rescaled(kind, i, order, src):
        moments = _difference_moments(kind, i, order, src)
        return tuple(3 * m for m in moments) if src % 2 else moments

    for tag in ("involution", "derangement"):
        expected = condition_scan(tag, range(10, 41))
        monkeypatch.setattr(processes, "_difference_moments", rescaled)
        assert condition_scan(tag, range(10, 41)) == expected
        monkeypatch.undo()


def test_condition_scan_refuses_sources_below_the_first_row(monkeypatch):
    import descentlab.diagnostics as diag

    def no_rows(*args):
        raise AssertionError("a row was rolled")

    monkeypatch.setattr(diag, "rolled_rows", no_rows)
    for tag, stages, order in (("derangement", [2, 10], 1), ("derangement", [10, 3], 2),
                               ("involution", [2, 10], 2)):
        i = min(stages)
        with pytest.raises(FamilyError, match=f"stage {i} with order {order} reads "
                                              f"source row {i - order}, below the first"):
            condition_scan(tag, stages, order=order)


@pytest.mark.parametrize("tag", ["fibonacci", "excedance"])
def test_condition_scan_refuses_a_kind_it_does_not_cover(tag):
    with pytest.raises(FamilyError, match="condition scans cover involution and derangement"):
        condition_scan(tag, range(10, 21))


def test_condition_scan_refuses_a_degenerate_stage():
    # derangement row 2 has one member, and the stage-3 difference is zero
    for stages in ([3], range(3, 10)):
        with pytest.raises(FamilyError, match="stage 3: degenerate distribution: zero variance"):
            condition_scan("derangement", stages)
    assert [r.i for r in condition_scan("derangement", range(4, 10))] == list(range(4, 10))


def test_clt_tables_and_condition_scans_keep_no_rows():
    code = """
from descentlab import diagnostics
for fam in diagnostics.Family:
    diagnostics.clt_table(fam, [16, 64, 300])
for kind in ("involution", "derangement"):
    for order in (1, 2):
        diagnostics.condition_scan(kind, range(10, 120), order=order)
"""
    assert peak_rss_mb(sys.executable, "-c", code) < 60


def test_condition_scan_invalid_exponent():
    with pytest.raises(ValueError):
        condition_scan("involution", range(10, 12), p=F(1))


def test_psi_variance_trivial_and_lemma():
    zeros = [BernoulliSpec(F(0), F(0), F(0))] * 6
    vt, vp, holds = psi_variance_check(zeros, 6)
    assert (vt, vp, holds) == (0, 0, True)

    # uniform jump rule, symmetric zero-mean values
    specs = [BernoulliSpec(F(0), F(1), F(0))] + [
        BernoulliSpec(F(1, 2), F(1), F(-1)) for _ in range(5)
    ]
    vt, vp, holds = psi_variance_check(specs, 6)
    assert holds and vp <= vt

    # family rule with centered two-jump indicators
    rule = family_rule("fibonacci")
    for n in (10, 14):
        specs = [BernoulliSpec(F(0), F(1), F(0))]
        for i in range(2, n + 1):
            q = rule.two_jump(i)
            specs.append(BernoulliSpec(q, 1 - q, -q))
        vt, vp, holds = psi_variance_check(specs, n)
        assert holds and vp <= vt


def test_psi_variance_rejects_nonzero_mean():
    specs = [BernoulliSpec(F(0), F(1), F(0))] + [
        BernoulliSpec(F(1, 2), F(1), F(0)) for _ in range(4)
    ]
    with pytest.raises(ValueError, match="nonzero mean"):
        psi_variance_check(specs, 5)


def test_psi_variance_holds_at_large_n():
    # the fibonacci rule's centered two-jump indicators scaled by f_i, so the
    # values are integers: unscaled, Var psi at n = 1000 is exact with a
    # 2e5-bit denominator and takes some 20 s
    n = 1000
    rule = family_rule("fibonacci")
    f = counting_sequence("fibonacci", n)
    specs = [BernoulliSpec(F(0), F(1), F(0))]
    for i in range(2, n + 1):
        q = rule.two_jump(i)
        specs.append(BernoulliSpec(q, f[i] * (1 - q), -f[i] * q))
    vt, vp, holds = psi_variance_check(specs, n)
    assert holds and vp <= vt


def test_psi_variance_random_specs_hold():
    # randomized zero-mean specs across several word lengths
    stream = Stream(2024)
    for n in range(2, 13):
        specs = [BernoulliSpec(F(0), F(1), F(0))]
        for i in range(n - 1):
            p = F(1 + stream.next_u64() % 7, 9)
            a = F(stream.next_u64() % 11 - 5, 3) or F(1, 3)
            b = -p * a / (1 - p)
            specs.append(BernoulliSpec(p, a, b))
        vt, vp, holds = psi_variance_check(specs, n)
        assert holds


small_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def zero_mean_specs(draw, n):
    specs = [BernoulliSpec(F(0), draw(small_fractions), F(0))]
    for _ in range(n - 1):
        p = draw(st.builds(F, st.integers(0, 8), st.just(8)))
        if p == 1:  # a sure two-jump: its value must be 0, the other is free
            specs.append(BernoulliSpec(p, F(0), draw(small_fractions)))
        else:
            a = draw(small_fractions)
            specs.append(BernoulliSpec(p, a, -p * a / (1 - p)))
    return specs


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 14))
def test_psi_variance_equals_word_enumeration(data, n):
    specs = data.draw(zero_mean_specs(n), label="specs")
    m1, m2 = oracles.word_psi_moments(specs, n)
    _, vp, _ = psi_variance_check(specs, n)
    assert type(vp) is Fraction and vp == m2 - m1 * m1

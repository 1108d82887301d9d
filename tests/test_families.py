"""Triangles, counting sequences, and row pmfs against independent oracles."""

import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descentlab import families, processes
from descentlab.compositions import enumerate_compositions, family_rule
from descentlab.diagnostics import kolmogorov_distance, normal_cdf
from descentlab.errors import FamilyError, RuleError
from descentlab.families import (
    CountTriangle,
    ExactPmf,
    Family,
    counting_sequence,
    descent_triangle,
    triangle_row_pmf,
    two_jump_split,
)
from descentlab.moments import factorial_moment
from descentlab.processes import ProcessKind, exact_marginal

import oracles

# Golden reference rows, cross-checked against brute-force enumeration below.
INVOLUTION_ROWS = {
    1: [1],
    2: [1, 1],
    3: [1, 2, 1],
    4: [1, 4, 4, 1],
    5: [1, 6, 12, 6, 1],
    6: [1, 9, 28, 28, 9, 1],
}

DERANGEMENT_ROWS = {
    2: [1],
    3: [2, 0],
    4: [4, 4, 1],
    5: [8, 24, 12, 0],
    6: [16, 104, 120, 24, 1],
    7: [32, 392, 896, 480, 54, 0],
}


def test_counting_sequence_examples():
    assert counting_sequence("involution", 6)[-1] == 76
    assert counting_sequence("derangement", 4)[-1] == 9
    assert counting_sequence("fibonacci", 1) == [1, 1]
    assert counting_sequence("eulerian", 5) == [1, 1, 2, 6, 24, 120]


def test_counting_sequence_domain_error_names_family():
    with pytest.raises(FamilyError, match="derangement"):
        counting_sequence("derangement", 1)
    with pytest.raises(FamilyError):
        counting_sequence("nonesuch", 5)


def test_golden_involution_rows():
    tri = descent_triangle("involution", 6)
    for n, row in INVOLUTION_ROWS.items():
        assert tri.row(n) == row


def test_golden_derangement_rows():
    tri = descent_triangle("derangement", 7)
    for n, row in DERANGEMENT_ROWS.items():
        assert tri.row(n) == row


def test_fibonacci_and_excedance_examples():
    assert descent_triangle("fibonacci", 4).row(4) == [1, 3, 1]
    assert descent_triangle("excedance", 3).row(3) == [1, 1]


@pytest.mark.parametrize("family", ["eulerian", "involution"])
def test_small_triangles_match_enumeration(family):
    tri = descent_triangle(family, 7)
    oracle = oracles.eulerian_row if family == "eulerian" else oracles.involution_row
    for n in range(1, 8):
        assert tri.row(n) == oracle(n)


def test_derangement_and_excedance_triangles_match_enumeration():
    des_tri = descent_triangle("derangement", 7)
    exc_tri = descent_triangle("excedance", 7)
    for n in range(2, 8):
        des, exc = oracles.derangement_rows(n)
        assert des_tri.row(n) == des
        assert exc_tri.row(n) == exc


def test_fibonacci_triangle_matches_enumeration():
    tri = descent_triangle("fibonacci", 12)
    for n in range(1, 13):
        assert tri.row(n) == oracles.fibonacci_row(n)


def test_row_sums_match_counting_sequences():
    for tag in ("eulerian", "involution", "derangement", "excedance", "fibonacci"):
        fam = Family(tag)
        tri = descent_triangle(fam, 40)
        seq = counting_sequence(fam, 40)
        for n in range(fam.n_min, 41):
            assert tri.row_sum(n) == seq[n]


def test_involution_rows_palindromic_and_unimodal():
    tri = descent_triangle("involution", 200)
    for n in range(1, 201):
        row = tri.row(n)
        assert row == row[::-1]
        mid = len(row) // 2
        assert all(row[j] <= row[j + 1] for j in range(mid))


def test_derangement_rows_unimodal_with_middle_maximum():
    tri = descent_triangle("derangement", 200)
    for n in range(3, 201):
        row = tri.row(n)
        peak = max(range(len(row)), key=lambda j: row[j])
        assert all(row[j] <= row[j + 1] for j in range(peak))
        assert all(row[j] >= row[j + 1] for j in range(peak, len(row) - 1))
        top = max(row)
        peak_ks = {j + 1 for j, c in enumerate(row) if c == top}
        assert peak_ks & {n // 2, (n + 1) // 2}


def test_involution_growth_ratio_bounds():
    # sqrt(n+1) <= i_{n+1}/i_n <= sqrt(n+1) + 1, checked in exact arithmetic
    seq = counting_sequence("involution", 501)
    for n in range(1, 501):
        a, b = seq[n], seq[n + 1]
        assert b * b >= (n + 1) * a * a
        assert (b - a) ** 2 <= (n + 1) * a * a


def test_derangement_nearest_integer_to_factorial_over_e():
    # |d_n - n!/e| < 1/2 in exact arithmetic: bound 1/e by a truncated
    # alternating series with 20 guard terms, so the tail is rigorous.
    import math

    seq = counting_sequence("derangement", 30)
    for n in range(1, 31):
        m = n + 20
        series = sum(Fraction((-1) ** i, math.factorial(i)) for i in range(m + 1))
        tail = Fraction(1, math.factorial(m + 1))
        fact_n = math.factorial(n)
        assert abs(seq[n] - fact_n * series) + fact_n * tail < Fraction(1, 2)


def test_exact_pmf_examples():
    tri = descent_triangle("involution", 3)
    pmf = triangle_row_pmf(tri, 3)
    assert pmf.items() == [(0, Fraction(1, 4)), (1, Fraction(1, 2)), (2, Fraction(1, 4))]

    pmf = triangle_row_pmf(descent_triangle("derangement", 2), 2)
    assert pmf.items() == [(1, Fraction(1))]

    pmf = triangle_row_pmf(descent_triangle("fibonacci", 4), 4)
    assert pmf.items() == [
        (0, Fraction(1, 5)),
        (1, Fraction(3, 5)),
        (2, Fraction(1, 5)),
    ]


def test_pmf_weight_sum_guard():
    with pytest.raises(ValueError):
        ExactPmf(0, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        ExactPmf(0, (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        ExactPmf.from_counts(0, (2, -1))
    with pytest.raises(ValueError):
        ExactPmf.from_counts(0, (0, 0))


def test_pmf_equality_is_by_weights_whatever_the_count_scale():
    by_weights = ExactPmf(3, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
    by_counts = ExactPmf.from_counts(3, (2, 4, 2))
    assert (by_weights.counts, by_weights.total) == ((1, 2, 1), 4)
    assert by_weights == by_counts and hash(by_weights) == hash(by_counts)
    assert by_counts.weights == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    assert by_counts != ExactPmf.from_counts(2, (2, 4, 2))
    assert by_counts != ExactPmf.from_counts(3, (2, 4, 2, 0))


def test_degenerate_row_guard():
    tri = CountTriangle(Family.DERANGEMENT, 2, {2: [0]})
    with pytest.raises(FamilyError, match="degenerate"):
        triangle_row_pmf(tri, 2)


# ---------------------------------------------------------------------------
# integer-count pmfs against Fraction sums, and the grow-only stores
# ---------------------------------------------------------------------------

FAMILIES = list(Family)


def _kolmogorov_reference(pmf):
    """sup |F - Phi| with a Fraction mean and a Fraction running CDF."""
    items = pmf.items()
    mean = sum(k * w for k, w in items)
    sd = math.sqrt(sum((k - mean) ** 2 * w for k, w in items))
    best, cum = 0.0, Fraction(0)
    for k, w in items:
        phi = normal_cdf(float(k - mean) / sd)
        best = max(best, abs(float(cum) - phi))
        cum += w
        best = max(best, abs(float(cum) - phi))
    return best


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=st.integers(1, 60))
def test_integer_path_moments_equal_fraction_sums(family, n):
    n = max(n, family.n_min)
    pmf = triangle_row_pmf(descent_triangle(family, n), n)
    items = list(zip(pmf.support(), pmf.weights))
    mean = sum(k * w for k, w in items)
    assert pmf.mean() == mean
    assert pmf.variance() == sum((k - mean) ** 2 * w for k, w in items)
    for r in range(1, 5):
        assert pmf.raw_moment(r) == sum(Fraction(k) ** r * w for k, w in items)
    for r in range(2, 5):
        assert pmf.central_moment(r) == sum((k - mean) ** r * w for k, w in items)
    assert factorial_moment(pmf, 2) == sum(k * (k - 1) * w for k, w in items)
    if pmf.variance() == 0:
        with pytest.raises(FamilyError):
            kolmogorov_distance(pmf)
    else:
        assert kolmogorov_distance(pmf) == _kolmogorov_reference(pmf)


@pytest.fixture
def fresh_stores():
    """Empty stores for every family for the test's duration, so what the
    test sees of growth does not depend on which tests ran before."""
    saved = dict(families._STORES)
    families._STORES.update({fam: families._Store(fam) for fam in Family})
    yield families._STORES
    families._STORES.update(saved)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILIES), a=st.integers(1, 50), b=st.integers(1, 50))
def test_triangles_and_counts_do_not_depend_on_request_order(family, a, b):
    a, b = max(a, family.n_min), max(b, family.n_min)
    expected_counts = families._Store(family).counts.through(max(a, b))
    reference = oracles.reference_triangle(family)
    saved = families._STORES[family]
    families._STORES[family] = families._Store(family)
    try:
        first, second = descent_triangle(family, a), descent_triangle(family, b)
        for tri, m in ((first, a), (second, b)):
            assert [row for _, row in tri.rows()] == [
                reference.row(n) for n in range(family.n_min, m + 1)
            ]
        assert counting_sequence(family, b) == expected_counts[: b + 1]
        assert counting_sequence(family, a) == expected_counts[: a + 1]
    finally:
        families._STORES[family] = saved


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(list(ProcessKind)), n=st.integers(1, 300))
@example(kind=ProcessKind.INVOLUTION, n=300)
@example(kind=ProcessKind.DERANGEMENT, n=300)
@example(kind=ProcessKind.FIBONACCI, n=300)
@example(kind=ProcessKind.EXCEDANCE, n=300)
def test_exact_marginal_equals_triangle_row_pmf(kind, n):
    n = max(n, kind.n_min)
    assert exact_marginal(kind, n) == triangle_row_pmf(oracles.reference_triangle(kind.family), n)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILIES), ns=st.sets(st.integers(0, 300), max_size=6))
@example(family=Family.INVOLUTION, ns={1, 2, 3, 300})
@example(family=Family.DERANGEMENT, ns={2, 3, 300})
@example(family=Family.FIBONACCI, ns={1, 2, 300})
def test_rolled_rows_equal_the_triangle_rows(family, ns):
    ns = {max(n, family.n_min) for n in ns}
    reference = oracles.reference_triangle(family)
    assert list(families.rolled_rows(family, ns)) == \
        [(n, tuple(reference.row(n))) for n in sorted(ns)]


def test_rolled_rows_keep_nothing_and_refuse_rows_below_the_first(fresh_stores):
    rows = dict(families.rolled_rows("derangement", [40, 6, 6, 12]))
    assert list(rows) == [6, 12, 40]
    assert all((len(store.counts), len(store.sums), len(store.means))
               == (len(families._SEED_COUNTS[fam]), len(families._SEED_ROWS[fam]), 0)
               for fam, store in fresh_stores.items())
    assert list(families.rolled_rows("involution", [])) == []
    for family in ("derangement", "excedance", "eulerian", "fibonacci"):
        fam = Family(family)
        with pytest.raises(FamilyError, match=f"{family}: n={fam.n_min - 1} is below "
                                              f"the first row {fam.n_min}"):
            next(families.rolled_rows(family, [fam.n_min - 1, 10]))


@pytest.mark.parametrize("fam", ["involution", "derangement", "excedance", "fibonacci"])
def test_two_jump_split_counts_the_members_with_m_in_a_two_cycle(fam):
    for m in range(2, 10):
        assert two_jump_split(fam, m) == oracles.two_cycle_census(fam, m)


@pytest.mark.parametrize("fam", ["involution", "derangement", "excedance", "fibonacci"])
def test_two_jump_split_equals_the_hand_written_weight(fam):
    # the weight read off the term table's lag-2 terms, against
    # (m - 1) c_{m-2}, or c_{m-2} for fibonacci
    for m in range(2, 401):
        assert two_jump_split(fam, m) == oracles.reference_two_jump_split(Family(fam), m)


def test_an_inexact_two_jump_weight_raises(monkeypatch):
    # div(m) = 2m: the lag-2 weight m(m - 1) over it is inexact at m = 4
    _, terms = families._TERMS[Family.INVOLUTION]
    monkeypatch.setitem(families._TERMS, Family.INVOLUTION, ((0, 2), terms))
    assert two_jump_split("involution", 3) == (1, 4)  # (m - 1)/2 c_1 of c_3
    with pytest.raises(ArithmeticError, match=r"involution: div\(4\) does not divide"):
        two_jump_split("involution", 4)


def test_two_jump_split_needs_a_second_order_recurrence_and_index_two():
    message = "the eulerian family has a first-order recurrence"
    with pytest.raises(RuleError, match=message):
        two_jump_split("eulerian", 5)
    with pytest.raises(RuleError, match=message):
        family_rule("eulerian")
    with pytest.raises(FamilyError):
        two_jump_split("involution", 1)


def test_one_counting_sequence_per_family_whatever_the_sizes_asked(fresh_stores):
    fam = Family.INVOLUTION
    store = fresh_stores[fam]
    rule = family_rule(fam)
    for i in range(2, 301):
        counting_sequence(fam, i)
        rule.two_jump(i)
    assert len(store.counts) == 301
    for module in (families, processes):
        assert not any(hasattr(obj, "cache_info") for obj in vars(module).values())


def test_exact_means_are_kept_in_the_store(fresh_stores, monkeypatch):
    built = []

    def counted(family, n, before, last):
        built.append((family, n))
        return next_row(family, n, before, last)

    next_row = families._next_row
    monkeypatch.setattr(families, "_next_row", counted)
    store = fresh_stores[Family.DERANGEMENT]
    means = processes.exact_means(ProcessKind.DERANGEMENT, 40)
    # the means and the power sums they read are kept; no row is built
    assert len(store.means) == 41 and len(store.sums) == 41
    assert built == []
    assert processes.exact_means("derangement", 20) == means[:21]
    assert len(store.means) == 41 and len(store.sums) == 41  # a smaller request is a lookup
    # below the first row a mean is 0, also on a first request
    assert families.row_means("excedance", 1) == (0, 0)
    assert families.row_means("eulerian", 0) == (0,)
    assert built == []


def test_concurrent_growth_matches_a_fresh_build(fresh_stores):
    family = Family.INVOLUTION
    fresh = families._Store(family)
    expected = fresh.counts.through(90), fresh.sums.through(90)
    errors = []

    def grow(sizes):
        try:
            for m in sizes:
                counting_sequence(family, m)
                families.row_means(family, m)
                processes.exact_means(ProcessKind.DERANGEMENT, m)
        except Exception as exc:  # reported through the list below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(range(10 + t, 91, 4),))
                   for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors
    assert (fresh_stores[family].counts, fresh_stores[family].sums) == expected
    assert len(fresh_stores[Family.DERANGEMENT].means) == 91


# ---------------------------------------------------------------------------
# row power sums by recurrence
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=st.integers(1, 300))
@example(family=Family.EULERIAN, n=300)
@example(family=Family.INVOLUTION, n=300)
@example(family=Family.DERANGEMENT, n=300)
@example(family=Family.EXCEDANCE, n=300)
@example(family=Family.FIBONACCI, n=300)
def test_store_power_sums_equal_the_row_power_sums(family, n):
    n = max(n, family.n_min)
    sums = families._STORES[family].sums.through(n)[n]
    assert sums == triangle_row_pmf(oracles.reference_triangle(family), n).power_sums(4)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_term_table_restates_the_row_recurrence(family):
    seed, tri = families._SEED_ROWS[family], oracles.reference_triangle(family)
    rows = [*seed, *(tuple(tri.row(n)) for n in range(len(seed), 121))]
    for n in range(len(seed), 121):
        assert families._next_row(family, n, rows[n - 2], rows[n - 1]) == rows[n]


def test_power_sum_checks_raise_arithmetic_errors(monkeypatch):
    # (2k + 1) A(n-1, k) + (n - k) A(n-1, k-1): the k^(r+1) terms no longer cancel
    terms = dict(families._TERMS)
    terms[Family.EULERIAN] = ((1,), ((1, 0, ((1,), (2,))), (1, 1, ((0, 1), (-1,)))))
    monkeypatch.setattr(families, "_TERMS", terms)
    with pytest.raises(ArithmeticError, match="above degree 0"):
        families._power_sum_recurrence(Family.EULERIAN)
    store = families._Store(Family.INVOLUTION)
    sums, counts = list(store.sums.through(9)), store.counts.through(10)
    with pytest.raises(ArithmeticError, match="the counting sequence 9497"):
        families._next_sums(Family.INVOLUTION, sums, [*counts[:10], counts[10] + 1])
    sums[9] = (sums[9][0] + 1, *sums[9][1:])  # row 9 off by one member
    with pytest.raises(ArithmeticError, match="of S_1 is not divisible by 10"):
        families._next_sums(Family.INVOLUTION, sums, counts)


def test_derangement_closed_form_check_raises_on_disagreement():
    store = families._Store(Family.DERANGEMENT)
    store.counts[1] = 1  # d_1 corrupted: the next recurrence step disagrees
    with pytest.raises(ArithmeticError, match="closed form"):
        store.counts.through(2)


def test_involution_row_division_check_raises_on_a_remainder():
    # (1, 2) is not row 2: row 3's recurrence no longer divides by 3
    with pytest.raises(ArithmeticError, match="not divisible by 3"):
        families._next_row(Family.INVOLUTION, 3, (1,), (1, 2))


# Brute-force sums for the fold over ending positions: every composition of
# n, or every outcome of n independent terms, weighed and totalled directly.
_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def _brute_moments(paths, r_max):
    """[sum of w T^r, r = 0..r_max] over (w, T) pairs."""
    return [sum((w * t**r for w, t in paths), Fraction(0)) for r in range(r_max + 1)]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), r_max=st.integers(0, 4))
def test_position_moments_sum_over_every_composition(data, n, r_max):
    # branch (w, v) of lag = size for the part of that size ending at p
    table = {(p, size): data.draw(st.tuples(_RATIONALS, _RATIONALS))
             for p in range(1, n + 1) for size in (1, 2)}
    paths = []
    for comp in enumerate_compositions(n):
        w, t = Fraction(1), Fraction(0)
        for p, size in comp.position_pairs():
            w, t = w * table[p, size][0], t + table[p, size][1]
        paths.append((w, t))
    folded = families._position_moments(
        n, lambda p: tuple((size, *table[p, size]) for size in (1, 2)), r_max)
    assert folded == _brute_moments(paths, r_max)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 10), r_max=st.integers(0, 4))
def test_position_moments_with_lag_one_sum_over_independent_outcomes(data, n, r_max):
    # two lag-1 branches per position: 2^n outcomes of n independent terms
    table = [data.draw(st.lists(st.tuples(_RATIONALS, _RATIONALS), min_size=2, max_size=2))
             for _ in range(n)]
    paths = []
    for choice in itertools.product((0, 1), repeat=n):
        w, t = Fraction(1), Fraction(0)
        for branch, c in zip(table, choice):
            w, t = w * branch[c][0], t + branch[c][1]
        paths.append((w, t))
    folded = families._position_moments(
        n, lambda p: [(1, w, v) for w, v in table[p - 1]], r_max)
    assert folded == _brute_moments(paths, r_max)

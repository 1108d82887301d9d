"""Factorial and central moments, the recurrence solver, moment tables."""

import sys
from fractions import Fraction

import pytest
from test_cli import peak_rss_mb

from descentlab import families
from descentlab.errors import FamilyError
from descentlab.families import (
    ExactPmf,
    Family,
    descent_triangle,
    rolled_rows,
    triangle_row_pmf,
)
from descentlab.moments import (
    MomentReport,
    _lambdas,
    central_moments,
    derangement_lambda_recurrence_residual,
    factorial_moment,
    fourth_moment_scan,
    involution_lambda_recurrence_residual,
    moment_table,
    solve_linear_recurrence,
)

F = Fraction


def row_pmf(family, n):
    return triangle_row_pmf(descent_triangle(family, n), n)


def test_factorial_moment_examples():
    assert factorial_moment(row_pmf("involution", 4), 1) == F(3, 2)
    assert factorial_moment(row_pmf("derangement", 5), 1) == F(23, 11)
    symmetric = ExactPmf(3, (F(1, 4), F(1, 2), F(1, 4)))
    assert factorial_moment(symmetric, 1) == 4


def test_central_moments_examples():
    rep = central_moments(row_pmf("involution", 4), 4)
    assert rep.mean == F(3, 2) and rep.variance == F(13, 20)

    point = central_moments(ExactPmf(5, (F(1),)), 1)
    assert point.variance == 0 and point.third_central == 0 and point.fourth_central == 0

    assert central_moments(row_pmf("derangement", 4), 4).mean == F(5, 3)


def test_central_moments_against_definition():
    pmf = row_pmf("derangement", 7)
    rep = central_moments(pmf, 7)
    m = pmf.mean()
    for r, got in ((2, rep.variance), (3, rep.third_central), (4, rep.fourth_central)):
        assert got == sum((k - m) ** r * w for k, w in pmf.items())


def test_solve_linear_recurrence_examples():
    n = 17
    assert solve_linear_recurrence([F(1)] * n, [F(1)] * n, F(0), n) == n

    # damped-drift recurrence L_m = ((m-2)/m) L_{m-1} + m from L_2 = 0,
    # coefficients indexed by m = 3..n
    def damped(n):
        a = [F(m - 2, m) for m in range(3, n + 1)]
        b = [F(m) for m in range(3, n + 1)]
        return solve_linear_recurrence(a, b, F(0), n - 2)

    assert damped(3) == 3
    assert damped(4) == F(11, 2)
    # closed form consistent with the recurrence: (3n+2)(n+1)/12 - 4/(n(n-1))
    for n in range(3, 60):
        assert damped(n) == F((3 * n + 2) * (n + 1), 12) - F(4, n * (n - 1))


def test_solve_linear_recurrence_derangement_mean():
    from descentlab.families import counting_sequence

    d = counting_sequence("derangement", 10)
    for n in range(3, 11):
        a = [F((m - 1) * d[m - 1], d[m]) for m in range(3, n + 1)]
        b = [F((m - 1) ** 2 * d[m - 2], d[m]) for m in range(3, n + 1)]
        mu = solve_linear_recurrence(a, b, F(1), n - 2)  # mu_2 = 1
        assert mu == row_pmf("derangement", n).mean()
    assert solve_linear_recurrence(
        [F((m - 1) * d[m - 1], d[m]) for m in (3, 4)],
        [F((m - 1) ** 2 * d[m - 2], d[m]) for m in (3, 4)],
        F(1),
        2,
    ) == F(5, 3)


def test_solve_linear_recurrence_zero_coefficient_falls_back():
    # a zero a_i makes the product form undefined; forward evaluation stands
    assert solve_linear_recurrence([F(0), F(2)], [F(3), F(1)], F(9), 2) == 7


def test_solve_linear_recurrence_product_form_check_raises():
    class Drifting(list):
        """Coefficients that read one larger on every later pass."""

        def __init__(self, values):
            super().__init__(values)
            self.reads = 0

        def __getitem__(self, i):
            self.reads += 1
            return super().__getitem__(i) + (self.reads > len(self))

    with pytest.raises(ValueError, match="product form"):
        solve_linear_recurrence([F(1)] * 3, Drifting([F(1)] * 3), F(0), 3)


def test_moment_report_rejects_impossible_moments():
    with pytest.raises(ValueError, match="negative variance"):
        MomentReport(3, F(1), F(-1, 2), F(0), F(1))
    with pytest.raises(ValueError, match="Jensen"):
        MomentReport(3, F(1), F(2), F(0), F(3))


def test_moment_table_involution_mean_law():
    rows = moment_table("involution", range(1, 51))
    for row in rows:
        assert row.report.mean == F(row.report.n - 1, 2)
        assert row.asymptotics["mean_minus_half_n_minus_1"] == 0.0


def test_moment_table_derangement_asymptotics():
    rows = moment_table("derangement", range(2, 101))
    by_n = {r.report.n: r for r in rows}
    assert by_n[7].report.mean == F(949, 309)
    dev = abs(by_n[7].report.mean - 3 - F(1, 14))
    assert dev == F(1, 4326)
    # |E R_n - (n-1)/2 - 1/(2n)| below e^{-n/2} for 10 <= n <= 100
    import math

    for n in range(10, 101):
        gap = abs(by_n[n].report.mean - F(n - 1, 2) - F(1, 2 * n))
        assert gap < Fraction(math.exp(-n / 2))
    # 12 Var(R_n) / n approaches 1 from data
    assert abs(12 * by_n[100].report.variance / 100 - 1) < F(1, 25)


def test_moment_table_fibonacci_asymptotics():
    rows = moment_table("fibonacci", range(30, 61))
    for row in rows:
        assert abs(row.asymptotics["mean_vs_asymptotic"]) < 1e-9
        assert abs(row.asymptotics["variance_vs_asymptotic"]) < 0.5


def test_involution_variance_bound():
    rows = moment_table("involution", range(2, 201))
    for row in rows:
        n = row.report.n
        assert row.report.variance <= F(17 * n - 4, 12)


# FROZEN: max E[(X - EX)^4] / n^2 over 10 <= n <= 300, first exact run
FOURTH_RATIO_CAP = {
    "involution": 0.04783645745577085,
    "derangement": 0.02389463997245837,
}


def test_fourth_moment_scan():
    rows = fourth_moment_scan("involution", range(4, 80))
    by_n = {n: w4 for n, w4, _ in rows}
    assert by_n[4] == row_pmf("involution", 4).central_moment(4)

    for tag, cap in FOURTH_RATIO_CAP.items():
        rows = fourth_moment_scan(tag, range(10, 301))
        assert max(r for _, _, r in rows) <= cap + 1e-9

    # a point-mass row has vanishing central moments
    assert fourth_moment_scan("derangement", [2]) == [(2, 0, 0.0)]
    assert fourth_moment_scan("involution", range(5, 5)) == []

    with pytest.raises(FamilyError, match="fourth-moment scan covers involution and derangement"):
        fourth_moment_scan("fibonacci", range(4, 10))


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_moment_tables_equal_the_row_pmf_moments(family):
    tri = descent_triangle(family, 200)
    rows = moment_table(family, range(family.n_min, 201))
    assert [row.report.n for row in rows] == list(range(family.n_min, 201))
    for row in rows:
        pmf = triangle_row_pmf(tri, row.report.n)
        exact = (pmf.mean(), *map(pmf.central_moment, (2, 3, 4)))
        assert (row.report.mean, row.report.variance, row.report.third_central,
                row.report.fourth_central) == exact
        assert row.report.floats() == tuple(map(float, exact))
    if family in (Family.INVOLUTION, Family.DERANGEMENT):
        scan = fourth_moment_scan(family, range(family.n_min, 201))
        assert [n for n, _, _ in scan] == list(range(family.n_min, 201))
        for n, w4, _ in scan:
            assert w4 == triangle_row_pmf(tri, n).central_moment(4)


def test_moment_tables_below_the_first_row_raise():
    with pytest.raises(FamilyError, match="derangement: n=1 is below the first row 2"):
        moment_table("derangement", range(1, 5))
    with pytest.raises(FamilyError, match="involution: n=0 is below the first row 1"):
        fourth_moment_scan("involution", range(0, 5))


def test_a_deep_moment_table_builds_no_rows():
    # the derangement triangle to 600 alone holds about 85 MB
    code = """
from descentlab import families, moments
def refuse(*args):
    raise SystemExit("a row was built")
families._next_row = refuse
moments.moment_table("derangement", range(2, 601))
"""
    assert peak_rss_mb(sys.executable, "-c", code) < 60


def test_lambda_recurrences_hold_exactly():
    assert all(res == 0 for _, res in involution_lambda_recurrence_residual(1000))
    assert all(res == 0 for _, res in derangement_lambda_recurrence_residual(1000))


def test_lambda_recurrences_build_no_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(families, "_next_row", refuse)
    for residual in (involution_lambda_recurrence_residual,
                     derangement_lambda_recurrence_residual):
        assert [n for n, res in residual(300) if res == 0] == list(range(3, 301))


@pytest.mark.parametrize("family", [Family.INVOLUTION, Family.DERANGEMENT],
                         ids=lambda f: f.value)
def test_the_stored_lambdas_equal_the_row_factorial_moments(family):
    _, lam = _lambdas(family, 200)
    for n, row in rolled_rows(family, range(family.n_min, 201)):
        assert lam[n] == factorial_moment(ExactPmf.from_counts(family.k_min, row), 2)
    assert sorted(lam) == list(range(family.n_min, 201))


@pytest.mark.parametrize("n_max", [-1, 0])
@pytest.mark.parametrize("residual, family, first", [
    (involution_lambda_recurrence_residual, "involution", 1),
    (derangement_lambda_recurrence_residual, "derangement", 2),
])
def test_lambda_recurrences_refuse_an_n_max_below_the_first_index(residual, family,
                                                                   first, n_max):
    with pytest.raises(FamilyError, match=f"{family}: n={n_max} is below the first index "
                                          f"{first}"):
        residual(n_max)


def test_variance_ratio_eventually_decreasing():
    rows = moment_table("derangement", range(50, 501))
    seq = [abs(12 * r.report.variance / r.report.n - 1) for r in rows]
    assert all(a >= b for a, b in zip(seq, seq[1:]))
    # FROZEN: terminal value at n = 500, first exact run
    assert abs(float(seq[-1]) - 0.0019999359198396792) < 1e-15

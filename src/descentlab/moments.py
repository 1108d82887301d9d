"""Exact moment machinery over triangle rows.

Factorial moments, central moments, the first-order inhomogeneous recurrence
solver, per-family moment tables with asymptotic comparison columns,
fourth-moment scans and the E[X(X-1)] (lambda) recurrence checks.  The
tables, scans and checks read the row power sums kept in each family's
store, so none of them builds a row.  Everything exact; floats appear only
in comparison columns against irrational asymptotic formulas.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import FamilyError
from .families import (
    _STORES,
    ExactPmf,
    Family,
    _central_moment,
    _reaching,
    parse_family,
    two_jump_split,
)

F = Fraction


def factorial_moment(pmf: ExactPmf, r: int) -> Fraction:
    """E[X (X-1) ... (X-r+1)], exactly."""
    if r < 1:
        raise ValueError("factorial moment order must be >= 1")
    total = 0
    for k, term in zip(pmf.support(), pmf.counts):
        for j in range(r):
            term *= k - j
        total += term
    return F(total, pmf.total)


class _MomentFields(NamedTuple):
    n: int
    mean: Fraction
    variance: Fraction
    third_central: Fraction
    fourth_central: Fraction


class MomentReport(_MomentFields):
    """Exact first four moments of one row distribution."""

    __slots__ = ()

    def __new__(cls, n: int, mean: Fraction, variance: Fraction,
                third_central: Fraction, fourth_central: Fraction):
        if variance < 0:
            raise ValueError(f"row {n}: negative variance {variance}")
        if fourth_central < variance**2:
            raise ValueError(
                f"row {n}: fourth central moment below the squared variance "
                "(Jensen)"
            )
        return super().__new__(cls, n, mean, variance, third_central, fourth_central)

    @classmethod
    def _make(cls, iterable) -> MomentReport:  # so ``_replace`` checks too
        return cls(*iterable)

    def floats(self) -> tuple[float, float, float, float]:
        return (
            float(self.mean),
            float(self.variance),
            float(self.third_central),
            float(self.fourth_central),
        )


def _report(n: int, sums) -> MomentReport:
    """The moment report of row n from its power sums S_0..S_4."""
    return MomentReport(n, F(sums[1], sums[0]),
                        *(_central_moment(sums, r) for r in (2, 3, 4)))


def central_moments(pmf: ExactPmf, n: int = 0) -> MomentReport:
    """Exact central moments up to order four."""
    return _report(n, pmf.power_sums(4))


def solve_linear_recurrence(
    a: Sequence[Fraction], b: Sequence[Fraction], a0: Fraction, n: int
) -> Fraction:
    """A_n for A_i = a_i A_{i-1} + b_i with A_0 = a0 (a, b indexed from 1).

    Evaluates the forward recurrence and, when every a_i is nonzero, also the
    product form (prod a) (A_0 + sum b_i / prod_{j<=i} a_j); the two must
    agree exactly.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(a) < n or len(b) < n:
        raise ValueError(f"need coefficients a_1..a_{n} and b_1..b_{n}")
    value = F(a0)
    for i in range(1, n + 1):
        value = F(a[i - 1]) * value + F(b[i - 1])

    if all(F(a[i]) != 0 for i in range(n)):
        prod = F(1)
        acc = F(a0)
        for i in range(1, n + 1):
            prod *= F(a[i - 1])
            acc += F(b[i - 1]) / prod
        if prod * acc != value:
            raise ValueError("product form does not match the forward iteration")
    return value


# asymptotic comparison columns, per family ---------------------------------

_PHI_MEAN_SLOPE = (5 - math.sqrt(5)) / 10
_PHI_MEAN_SHIFT = (1 - math.sqrt(5)) / 10
_PHI_VAR_SLOPE = 1 / (5 * math.sqrt(5))


def _asymptotics(family: Family, rep: MomentReport) -> dict[str, float]:
    n = rep.n
    if family in (Family.INVOLUTION, Family.EULERIAN):
        return {"mean_minus_half_n_minus_1": float(rep.mean - F(n - 1, 2))}
    if family is Family.DERANGEMENT:
        return {
            "mean_vs_asymptotic": float(rep.mean - F(n - 1, 2) - F(1, 2 * n)),
            "variance_vs_n_over_12": float(rep.variance - F(n, 12)),
        }
    if family is Family.FIBONACCI:
        return {
            "mean_vs_asymptotic": float(rep.mean)
            - (_PHI_MEAN_SLOPE * n + _PHI_MEAN_SHIFT),
            "variance_vs_asymptotic": float(rep.variance) - _PHI_VAR_SLOPE * n,
        }
    return {}


class MomentRow(NamedTuple):
    report: MomentReport
    asymptotics: dict[str, float]


def _row_sums(fam: Family, n_range: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """(n, power sums S_0..S_4 of row n) for the distinct n of the range, in
    order, read from the family's store."""
    ns = sorted(set(n_range))
    if not ns:
        return []
    _reaching(fam, ns[0], "row")
    sums = _STORES[fam].sums.through(ns[-1])
    return [(n, sums[n]) for n in ns]


def moment_table(family: str | Family, n_range: Sequence[int]) -> list[MomentRow]:
    """Exact moment reports with family-specific asymptotic deviations.

    Each report comes from the row's power sums in the family's store, so no
    row is built.  Involution means equal (n-1)/2 identically; other families
    report the exact deviation from their asymptotic mean and variance
    formulas.
    """
    fam = parse_family(family)
    out = []
    for n, sums in _row_sums(fam, n_range):
        rep = _report(n, sums)
        out.append(MomentRow(rep, _asymptotics(fam, rep)))
    return out


def fourth_moment_scan(
    family: str | Family, n_range: Sequence[int]
) -> list[tuple[int, Fraction, float]]:
    """(n, exact fourth central moment, ratio to n^2) over the range, from the
    row power sums in the family's store."""
    fam = parse_family(family)
    if fam not in (Family.INVOLUTION, Family.DERANGEMENT):
        raise FamilyError("fourth-moment scan covers involution and derangement")
    out = []
    for n, sums in _row_sums(fam, n_range):
        w4 = _central_moment(sums, 4)
        out.append((n, w4, float(w4 / n**2)))
    return out


# family second-factorial-moment recurrences --------------------------------

def _lambdas(family: Family, n_max: int) -> tuple[list, dict[int, Fraction]]:
    """The family's stored row power sums and lambda_n = E[X(X-1)] =
    (S_2 - S_1) / S_0 of its rows through n_max, so no row is built."""
    sums = _STORES[_reaching(family, n_max, "index")].sums.through(n_max)
    return sums, {n: F(sums[n][2] - sums[n][1], sums[n][0])
                  for n in range(family.n_min, n_max + 1)}


def involution_lambda_recurrence_residual(n_max: int) -> list[tuple[int, Fraction]]:
    """Residuals of the involution E[X(X-1)] recurrence, exactly zero.

    lambda_n = (1-q_n) [ (n-2)/n lambda_{n-1} + (n-2)^2/n ]
             + q_n [ (n-2)(n-3)/(n(n-1)) lambda_{n-2}
                     + (n-2)(2n^2-9n+13)/(n(n-1)) ]
    with q_n = (n-1) i_{n-2} / i_n, derived from the generating-function
    derivative relations and verified against the exact triangle.  An
    n_max below the first index raises ``FamilyError``, as for derangements.
    """
    _, lam = _lambdas(Family.INVOLUTION, n_max)
    out = []
    for n in range(3, n_max + 1):
        q = F(*two_jump_split(Family.INVOLUTION, n))
        rhs = (1 - q) * (F(n - 2, n) * lam[n - 1] + F((n - 2) ** 2, n)) + q * (
            F((n - 2) * (n - 3), n * (n - 1)) * lam[n - 2]
            + F((n - 2) * (2 * n * n - 9 * n + 13), n * (n - 1))
        )
        out.append((n, lam[n] - rhs))
    return out


def derangement_lambda_recurrence_residual(n_max: int) -> list[tuple[int, Fraction]]:
    """Residuals of the derangement E[X(X-1)] recurrence, exactly zero.

    lambda_n = (n-2) d_{n-1}/d_n lambda_{n-1} + (2n-4) d_{n-1} mu_{n-1} / d_n
             + (-1)^n (n-1)(n-2) / d_n,
    with d_n = S_0(n) and d_{n-1} mu_{n-1} = S_1(n-1) read from the store.
    """
    sums, lam = _lambdas(Family.DERANGEMENT, n_max)
    out = []
    for n in range(3, n_max + 1):
        before, d_n = sums[n - 1], sums[n][0]
        rhs = (F((n - 2) * before[0], d_n) * lam[n - 1] + F((2 * n - 4) * before[1], d_n)
               + F((-1) ** n * (n - 1) * (n - 2), d_n))
        out.append((n, lam[n] - rhs))
    return out

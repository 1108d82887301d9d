"""Identity verification, normal-approximation distances, condition scans.

Kolmogorov distances standardize a row pmf by its exact mean and standard
deviation and compare the exact CDF against the standard normal at every
jump, from both sides.  The identity checks and the variance-contraction
check sum over compositions exactly by the fold over ending positions,
``families._position_moments``, in O(n) exact operations.
Condition scans evaluate the normalized conditional moment norms of the
martingale differences over the exact law of their source value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import FamilyError
from .families import (
    ExactPmf,
    Family,
    _position_moments,
    counting_sequence,
    parse_family,
    rolled_rows,
)
from .tags import IDENTITY_CHECKS, ProcessKind

if TYPE_CHECKING:
    from .compositions import BernoulliSpec

F = Fraction


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; absolute error well below 1e-14."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def kolmogorov_distance(pmf: ExactPmf) -> float:
    """sup_x |F(x) - Phi(x)| after standardizing by exact mean and sd.

    The supremum over a lattice CDF is attained at a support point from one
    side or the other, so both F(k) and F(k-) are compared at every point.
    """
    var = pmf.variance()
    if var == 0:
        raise FamilyError("degenerate distribution: zero variance")
    sd = math.sqrt(var)
    t, s1 = pmf.total, pmf.power_sums(1)[1]
    best = 0.0
    cum = 0
    # (k t - s1) / t and cum / t are true divisions of integers, correctly
    # rounded like float(Fraction(...)), so no Fraction is built per point.
    for k, c in zip(pmf.support(), pmf.counts):
        z = ((k * t - s1) / t) / sd
        phi = normal_cdf(z)
        best = max(best, abs(cum / t - phi))       # F(k-) vs Phi
        cum += c
        best = max(best, abs(cum / t - phi))       # F(k) vs Phi
    return best


class _CltFields(NamedTuple):
    n: int
    mean: float
    sd: float
    K: float
    scaled: float  # sqrt(n) K or n^(1/3) K, per family


class CltRecord(_CltFields):
    __slots__ = ()

    def __new__(cls, n: int, mean: float, sd: float, K: float, scaled: float):
        if not 0.0 <= K <= 1.0:
            raise ValueError(f"row {n}: Kolmogorov distance {K} outside [0, 1]")
        return super().__new__(cls, n, mean, sd, K, scaled)

    @classmethod
    def _make(cls, iterable) -> CltRecord:  # so ``_replace`` checks too
        return cls(*iterable)


class CltResult(NamedTuple):
    family: Family
    records: tuple[CltRecord, ...]
    skipped: tuple[int, ...]
    slope: float
    intercept: float
    max_scaled: float


def _rate_exponent(family: Family) -> float:
    if family in (Family.DERANGEMENT, Family.EXCEDANCE):
        return 1.0 / 3.0
    return 0.5


def clt_table(
    family: str | Family,
    n_values: Sequence[int],
    min_n: int = 10,
    fit_min_n: int = 20,
) -> CltResult:
    """Kolmogorov distances over exact row pmfs with a log-log rate fit.

    The rows come from ``rolled_rows``, so a run holds two rows, not the
    triangle.  Rows below ``min_n`` or with zero variance are skipped.  The
    least squares fit of log K against log n uses rows with n >= fit_min_n
    to avoid small-n transients.
    """
    fam = parse_family(family)
    ns = sorted(set(n_values))
    first = max(min_n, fam.n_min)
    exponent = _rate_exponent(fam)
    records, skipped = [], [n for n in ns if n < first]
    for n, row in rolled_rows(fam, ns[len(skipped):]):
        pmf = ExactPmf.from_counts(fam.k_min, row)
        var = pmf.variance()
        if var == 0:
            skipped.append(n)
            continue
        k = kolmogorov_distance(pmf)
        records.append(
            CltRecord(n, float(pmf.mean()), math.sqrt(var), k, n**exponent * k)
        )
    fit_pts = [(math.log(r.n), math.log(r.K)) for r in records if r.n >= fit_min_n]
    slope, intercept = _least_squares(fit_pts)
    max_scaled = max((r.scaled for r in records), default=float("nan"))
    return CltResult(fam, tuple(records), tuple(skipped), slope, intercept, max_scaled)


def _least_squares(points: list[tuple[float, float]]) -> tuple[float, float]:
    if len(points) < 2:
        return float("nan"), float("nan")
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    return slope, (sy - slope * sx) / n


# ---------------------------------------------------------------------------
# exact identities over compositions
# ---------------------------------------------------------------------------

class IdentityReport(NamedTuple):
    which: str
    n: int
    lhs: Fraction
    rhs: Fraction
    holds: bool
    offset_used: int


def identity_check(which: str, n: int) -> IdentityReport:
    """Verify one exact identity at size n, exactly, in O(n) operations.

    stan1: the composition sum weighted by surviving two-jump positions
    equals an involution count; stan2: the squared weighting equals a
    factorial; both are checked against the natural index and its successor,
    recording which offset holds.  derangement_sum: the reciprocal-position
    product sum equals the truncated alternating series.  The three sums are
    folds ``_position_moments`` over compositions.  fibonacci_pmf: the triangle
    row equals the composition census, comb(n-k, k) compositions of n with
    k 2-parts.
    """
    if which not in IDENTITY_CHECKS:
        raise ValueError(f"unknown identity {which!r}; choose from {IDENTITY_CHECKS}")
    if n < 1:
        raise ValueError("n must be >= 1")

    if which in ("stan1", "stan2"):
        power = 1 if which == "stan1" else 2
        lhs = F(_position_moments(n, lambda p: ((1, 1, 0), (2, (p - 1) ** power, 0)), 0)[0])
        rhs = (counting_sequence(Family.INVOLUTION, n + 1)[n:] if power == 1
               else [math.factorial(n), math.factorial(n + 1)])
        for offset in (0, 1):
            if lhs == rhs[offset]:
                return IdentityReport(which, n, lhs, F(rhs[offset]), True, offset)
        return IdentityReport(which, n, lhs, F(rhs[0]), False, 0)

    if which == "derangement_sum":
        lhs = F(_position_moments(n, lambda p: ((1, 1, 0), (2, F(1, p), 0)), 0)[0], n + 2)
        rhs = sum(F((-1) ** k, math.factorial(k)) for k in range(n + 3))
        return IdentityReport(which, n, lhs, rhs, lhs == rhs, 0)

    # fibonacci_pmf: triangle row pmf equals the two-part census over
    # compositions of n
    _, row = next(rolled_rows(Family.FIBONACCI, [n]))
    pmf = ExactPmf.from_counts(Family.FIBONACCI.k_min, row)
    f_n = counting_sequence(Family.FIBONACCI, n)[n]
    for k in range(n // 2 + 1):
        census, weight = F(math.comb(n - k, k), f_n), pmf.weight(k)
        if census != weight:  # report the first disagreeing weight
            return IdentityReport(which, n, census, weight, False, 0)
    return IdentityReport(which, n, F(1), F(1), True, 0)


# ---------------------------------------------------------------------------
# numerical scans of the limit theorem's conditions
# ---------------------------------------------------------------------------

class ConditionRow(NamedTuple):
    i: int
    second_norm: float   # sqrt(i) * || E[Y^2|F] - 1 ||_p
    third_norm: float    # i^(1/(2p')) * || E[Y^3|F] ||_p'
    fourth_sup: float    # || E[Y^4|F] ||_inf


def condition_scan(
    kind: str | ProcessKind,
    i_range: Sequence[int],
    p: Fraction = F(2),
    p_prime: Fraction = F(4, 3),
    order: int = 1,
) -> list[ConditionRow]:
    """Normalized conditional-moment norms of the stage-i differences.

    The law of the source value at stage i - order is exact (row i - order,
    from ``rolled_rows``, so the scan holds two rows) and its conditional
    moments come from the stage law; norms combine them with float
    fractional powers.  All three columns stay bounded over the scanned
    range when the normal limit applies.  A source row below the family's
    first row, or a stage whose difference has zero variance, raises
    ``FamilyError``.
    """
    # loaded here alone, so the other diagnostics load no process layer
    from .processes import _difference_moments, parse_kind

    kind = parse_kind(kind)
    p = F(p)
    pp = F(p_prime)
    if p <= 1 or pp <= 1:
        raise ValueError("norm exponents must exceed 1")
    i_values = sorted(set(i_range))
    if not i_values:
        return []
    if kind not in (ProcessKind.INVOLUTION, ProcessKind.DERANGEMENT):
        raise FamilyError("condition scans cover involution and derangement")
    fam = kind.family
    if i_values[0] - order < fam.n_min:
        raise FamilyError(
            f"stage {i_values[0]} with order {order} reads source row "
            f"{i_values[0] - order}, below the first row {fam.n_min} of family {fam.value}"
        )
    rows = []
    for (_, row), i in zip(rolled_rows(fam, (i - order for i in i_values)), i_values):
        # E[X^r|src] = m_r / den and P(src) = c / t over the source row, each
        # float one int/int true division: correctly rounded, as float(Fraction)
        t = sum(row)
        law = [(_difference_moments(kind, i, order, k), c)
               for k, c in enumerate(row, fam.k_min) if c]
        # sigma^2 as one integer over lcm_den * t, the lcm of the sources' dens
        lcm_den = math.lcm(*(den for (den, *_), _ in law))
        s2 = sum(m2 * c * (lcm_den // den) for (den, m2, _, _), c in law)
        if s2 == 0:
            raise FamilyError(f"stage {i}: degenerate distribution: zero variance")
        s2f = s2 / (lcm_den * t)
        # || E[Y^2|F] - 1 ||_p with Y = X / sigma
        acc2 = sum(abs(m2 / den / s2f - 1.0) ** float(p) * (c / t)
                   for (den, m2, _, _), c in law)
        col2 = math.sqrt(i) * acc2 ** (1.0 / float(p))
        s3 = s2f**1.5
        acc3 = sum(abs(m3 / den / s3) ** float(pp) * (c / t)
                   for (den, _, m3, _), c in law)
        col3 = i ** (1.0 / (2.0 * float(pp))) * acc3 ** (1.0 / float(pp))
        col4 = max(m4 / den / s2f**2 for (den, _, _, m4), _ in law)
        rows.append(ConditionRow(i, col2, col3, col4))
    return rows


# ---------------------------------------------------------------------------
# variance contraction of the discard reduction
# ---------------------------------------------------------------------------

def psi_variance_check(
    specs: Sequence[BernoulliSpec], n: int
) -> tuple[Fraction, Fraction, bool]:
    """(Var T_n, Var psi(T_n), holds), exactly, in O(n) operations.

    ``specs[i-1]`` drives stage i: its success probability is the two-jump
    probability and its values are the two-jump/one-jump contributions.  The
    summands must have exactly zero mean; stage 1 is always a one-jump, so
    spec 1 must put no mass on the two-jump.

    Both are folds ``_position_moments`` with the same branches: stage i
    adds ``specs[i-1].b``, or ``specs[i-1].a`` with probability p.  T_n
    takes the two-jump from position i - 1; psi(T_n), whose law factors over
    the discard reduction's ending positions, from i - 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(specs) < n:
        raise IndexError(f"need {n} specs, got {len(specs)}")
    if specs[0].p != 0:
        raise ValueError("stage 1 is always a one-jump: specs[0].p must be 0")
    for idx, spec in enumerate(specs[:n], start=1):
        if spec.mean() != 0:
            raise ValueError(f"spec {idx} has nonzero mean {spec.mean()}")

    def variance(two_lag: int) -> Fraction:
        _, m1, m2 = _position_moments(n, lambda i: (
            (1, 1 - specs[i - 1].p, specs[i - 1].b),
            (two_lag, specs[i - 1].p, specs[i - 1].a)), 2)
        return m2 - m1 * m1

    var_t, var_psi = variance(1), variance(2)
    return var_t, var_psi, var_psi <= var_t

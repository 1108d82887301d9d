"""Counting sequences and descent-distribution triangles, exactly.

Five statistic families are supported:

* ``eulerian``    -- descents over all permutations (row sums n!),
* ``involution``  -- descents over involutions (row sums i_n with
                     i_n = i_{n-1} + (n-1) i_{n-2}),
* ``derangement`` -- descents over derangements (row sums d_n with
                     d_n = (n-1)(d_{n-1} + d_{n-2})),
* ``excedance``   -- excedances over derangements (row sums d_n),
* ``fibonacci``   -- descents over permutations with |pi(i) - i| <= 1
                     (row sums f_n with f_n = f_{n-1} + f_{n-2}, f_0 = f_1 = 1).

All triangle entries are arbitrary-precision integers computed bottom-up from
the family's row recurrence.  A row pmf is the row itself: integer counts over
the row total, whose moments are exact ``Fraction`` values.  Rows come from
one place, ``rolled_rows``: it steps two rolling rows through the family's
row recurrence and keeps none, so a deep row costs O(n) integers, not the
triangle up to it.  ``descent_triangle`` gathers the rows of one call.

Each family's row recurrence is written once, as a term table (``_TERMS``).
The rows are built from it, the jump laws of ``processes`` (``_lag_law``)
and the power sums S_r(n) = sum_k k**r count(n, k), r <= 4, which follow
from those of rows n-1 and n-2: in the sum every term above degree r
cancels, so a step is O(r**2) integer operations however wide the row.
Row means and moments read the power sums and need no row.

Sums over compositions have one owner too, the fold ``_position_moments``:
the identity sums and the variance-contraction check of ``diagnostics`` read
it, and so, with every step at lag 1, does ``compositions.binary_sum_moments``.

Every per-index cache is a grow-only list of one type, ``_Grown``: each
family's counting sequence, row power sums and row means here, and each
process kind's stage laws and part constants in ``processes``.  A request
beyond the stored index extends a list from its last entries under the
list's own lock; nothing is rebuilt and no entry changes, so the lists are
safe to share across threads.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Iterable, Iterator

from .errors import FamilyError, RuleError
from .tags import Family

ZERO = Fraction(0)


def parse_family(tag: str | Family) -> Family:
    if isinstance(tag, Family):
        return tag
    try:
        return Family(tag)
    except ValueError:
        raise FamilyError(f"unknown family tag {tag!r}") from None


# ---------------------------------------------------------------------------
# recurrences: the next count and the next row from the ones before
# ---------------------------------------------------------------------------

def _next_count(family: Family, seq: list[int]) -> int:
    """Class size at index len(seq), from the entries before it.

    Derangement counts are cross-checked against the closed form
    n! * sum_{i<=n} (-1)^i / i!, accumulated as a_n = n a_{n-1} + (-1)^n;
    since a_{n-1} was checked equal to d_{n-1}, that is n d_{n-1} + (-1)^n.
    """
    n = len(seq)
    if family is Family.EULERIAN:
        return n * seq[-1]
    if family is Family.INVOLUTION:
        return seq[-1] + (n - 1) * seq[-2]
    if family is Family.FIBONACCI:
        return seq[-1] + seq[-2]
    value = (n - 1) * (seq[-1] + seq[-2])
    if value != n * seq[-1] + (-1) ** n:
        raise ArithmeticError(
            f"d_{n}: the derangement closed form disagrees with the recurrence"
        )
    return value


def two_jump_split(family: str | Family, m: int) -> tuple[int, int]:
    """(num, den) of the two-jump probability into stage m >= 2: the part of
    the class size den = c_m built from index m - 2, num = w c_{m-2} with w
    the lag-2 total of ``_LAGS`` over div(m): m - 1 (m in a two-cycle), or 1
    for fibonacci (m swapped with m - 1)."""
    fam = parse_family(family)
    if 2 not in _LAGS[fam]:
        raise RuleError(f"the {fam.value} family has a first-order recurrence; "
                        "no two-jump rule exists")
    if m < 2:
        raise FamilyError(f"no two-jump split below index 2, got {m}")
    counts = _STORES[fam].counts.through(m)
    w, rem = divmod(_at(_LAGS[fam][2][2], m), _at(_TERMS[fam][0], m))
    if rem:
        raise ArithmeticError(f"{fam.value}: div({m}) does not divide the lag-2 weight")
    return w * counts[m - 2], counts[m]


# Each family's row recurrence, written as terms: div(n) row_n[k] is the sum
# over the terms (lag, shift, coef) of coef(n, k) row_(n-lag)[k - shift].  A
# polynomial lists its coefficients from the constant term up; ``coef`` is
# one in k of degree at most 2 whose coefficients are polynomials in n of
# degree at most 2, so ((1,), (1,)) is k + 1 and ((0, 1), (-1,)) is n - k.
# ``_next_row`` builds the rows from it, ``_power_sum_recurrence`` the
# power sums and the processes' jump laws, which need the shifts of one lag
# to run without a gap, one term each.
_TERMS = {
    Family.EULERIAN: ((1,), (
        (1, 0, ((1,), (1,))),                    # (k + 1) A(n-1, k)
        (1, 1, ((0, 1), (-1,))),                 # (n - k) A(n-1, k-1)
    )),
    Family.INVOLUTION: ((0, 1), (                # divided by n
        (1, 0, ((1,), (1,))),                    # (k + 1) I(n-1, k)
        (1, 1, ((0, 1), (-1,))),                 # (n - k) I(n-1, k-1)
        (2, 0, ((-1, 1), (2,), (1,))),           # ((k + 1)^2 + n - 2) I(n-2, k)
        (2, 1, ((3, -1), (-2, 2), (-2,))),       # (2k(n - 1 - k) - n + 3) I(n-2, k-1)
        (2, 2, ((-2, 1, 1), (0, -2), (1,))),     # ((n - k)^2 + n - 2) I(n-2, k-2)
    )),
    Family.DERANGEMENT: ((1,), (
        (1, 0, ((1,), (1,))),                    # (k + 1) D(n-1, k)
        (1, 1, ((-1, 1), (-1,))),                # (n - k - 1) D(n-1, k-1)
        (2, 1, ((0,), (1,))),                    # k D(n-2, k-1)
        (2, 2, ((0, 1), (-1,))),                 # (n - k) D(n-2, k-2)
    )),
    Family.EXCEDANCE: ((1,), (
        (1, 0, ((0,), (1,))),                    # k E(n-1, k)
        (1, 1, ((0, 1), (-1,))),                 # (n - k) E(n-1, k-1)
        (2, 1, ((-1, 1),)),                      # (n - 1) E(n-2, k-1)
    )),
    Family.FIBONACCI: ((1,), (
        (1, 0, ((1,),)),                         # F(n-1, k)
        (2, 1, ((1,),)),                         # F(n-2, k-1)
    )),
}


def _at(poly, x: int) -> int:
    """The polynomial's value at x (coefficients from the constant term up)."""
    value = 0
    for c in reversed(poly):
        value = value * x + c
    return value


def _next_row(family: Family, n: int, before: tuple[int, ...],
              last: tuple[int, ...]) -> tuple[int, ...]:
    """Row n, from rows n-2 (``before``) and n-1 (``last``) by the family's
    term table: div(n) row_n[k] is the sum over the terms (lag, shift, coef)
    of coef(n, k) row_(n-lag)[k - shift]."""
    k_min = family.k_min
    div, terms = _TERMS[family]
    div = _at(div, n)
    lagged = (None, last, before)
    acc = [0] * max(len(lagged[lag]) + shift for lag, shift, _ in terms)
    for lag, shift, coef in terms:
        ck = [_at(c_b, n) for c_b in coef]
        c0, c1, c2 = ck + [0] * (3 - len(ck))
        for j, x in enumerate(lagged[lag], shift):
            k = k_min + j
            acc[j] += (c0 + k * (c1 + k * c2)) * x
    if div == 1:
        return tuple(acc)
    row = []
    for k, total in enumerate(acc, k_min):
        q, rem = divmod(total, div)
        if rem:
            raise ArithmeticError(
                f"{family.value} row {n}: the recurrence total at k={k} "
                f"is not divisible by {div}"
            )
        row.append(q)
    return tuple(row)


# ---------------------------------------------------------------------------
# row power sums: S_0..S_4 of row n from those of rows n-1 and n-2
# ---------------------------------------------------------------------------

_POWERS = 4  # the store keeps S_0..S_4 of every row


def _power_sum_recurrence(family: Family) -> tuple:
    """(div, steps, lags): div(n) S_r(n) = sum of c(n) S_d(n - lag) over the
    (lag, d, c) of ``steps[r]``, each c a polynomial in n.

    A term (lag, shift, sum_b c_b(n) k^b) of ``_TERMS`` adds
    sum_j (j + shift)^(r+b) c_b(n) row_(n-lag)[j], whose j^d part is
    comb(r+b, d) shift^(r+b-d) c_b(n) S_d(n - lag).  Every part above
    degree r must cancel, or the sums would need higher ones.

    At r = 0 the parts are the weight coef(n, j + shift) that an entry j of
    row n - lag sends to k = j + shift.  ``lags[lag]`` is (base, cums, total):
    the least shift, the weight of shifts base..base + i in powers of j, and
    that of all, a polynomial in n alone once the parts above degree 0 cancel.
    """
    div, terms = _TERMS[family]
    steps, lags = [], {}
    for r in range(_POWERS + 1):
        acc: dict[int, list[list[int]]] = {}
        for lag, shift, coef in sorted(terms):
            polys = acc.setdefault(lag, [[0, 0, 0] for _ in range(r + 3)])
            for b, c_b in enumerate(coef):
                for d in range(r + b + 1):
                    w = comb(r + b, d) * shift ** (r + b - d)
                    for a, c in enumerate(c_b):
                        polys[d][a] += w * c
            if r == 0:  # the weight of the lag's shifts up to this one
                lags.setdefault(lag, (shift, []))[1].append(tuple(map(tuple, polys)))
        if any(any(poly) for polys in acc.values() for poly in polys[r + 1:]):
            raise ArithmeticError(
                f"{family.value}: the row recurrence leaves a term above degree {r} "
                f"in the power sum S_{r}"
            )
        steps.append(tuple((lag, d, tuple(poly)) for lag, polys in sorted(acc.items())
                           for d, poly in enumerate(polys) if any(poly)))
    return div, tuple(steps), {lag: (b, c[:-1], c[-1][0]) for lag, (b, c) in lags.items()}


_SUM_RECURRENCES = {fam: _power_sum_recurrence(fam) for fam in Family}
_LAGS = {fam: recurrence[2] for fam, recurrence in _SUM_RECURRENCES.items()}


def _lag_law(family: Family, lag: int, m: int) -> tuple:
    """(base, cums, total) of ``_LAGS`` at index m, each cum a function of the
    source, alike on an int and an int64 array (inline: ``_at`` took twice as long)."""
    base, cums, (t0, t1, t2) = _LAGS[family][lag]
    mm = m * m
    return base, tuple(_in_source(a + b * m + c * mm, d + e * m + f * mm, g + h * m + i * mm)
                       for (a, b, c), (d, e, f), (g, h, i) in cums), t0 + t1 * m + t2 * mm


def _in_source(a: int, b: int, c: int):  # s -> a + b s + c s^2
    return (lambda s: a + s * (b + s * c)) if c else (lambda s: a + b * s)


def _next_sums(family: Family, sums: list[tuple[int, ...]],
               counts: list[int]) -> tuple[int, ...]:
    """(S_0, ..., S_4) of row n = len(sums), from the sums of rows n-1
    and n-2; S_0 is checked against the class size ``counts[n]``."""
    n = len(sums)
    div, steps, _ = _SUM_RECURRENCES[family]
    div = _at(div, n)
    out = []
    for r, step in enumerate(steps):
        total = sum(_at(c, n) * sums[n - lag][d] for lag, d, c in step)
        q, rem = divmod(total, div)
        if rem:
            raise ArithmeticError(
                f"{family.value} row {n}: the power-sum total of S_{r} "
                f"is not divisible by {div}"
            )
        out.append(q)
    if out[0] != counts[n]:
        raise ArithmeticError(
            f"{family.value} row {n}: the power sums give {out[0]} members, "
            f"the counting sequence {counts[n]}"
        )
    return tuple(out)


def _power_sums(offset: int, counts: Iterable[int], r: int) -> tuple[int, ...]:
    """(S_0, ..., S_r) with S_i = sum_j counts[j] * (offset + j)**i."""
    sums = [0] * (r + 1)
    for k, c in enumerate(counts, offset):
        for i in range(r + 1):
            sums[i] += c
            c *= k
    return tuple(sums)


def _central_moment(sums, r: int) -> Fraction:
    """sum_k count(k) (k T - S_1)^r / T^(r+1) from the power sums S_0..S_r,
    T = S_0, expanded binomially so every term stays an integer.

    The terms of S_0 and S_1 add to (1 - r) T (-S_1)^r, so T divides the
    sum, and it is taken over T^r: the numbers to multiply and reduce are
    shorter by T (orders 2..4 of derangement rows 2..1000 took 1.6 s this
    way against 4.2 s over T^(r+1), on 2 vCPUs).
    """
    t, neg_s1 = sums[0], -sums[1]
    num = (1 - r) * neg_s1**r + sum(comb(r, i) * sums[i] * t ** (i - 1) * neg_s1 ** (r - i)
                                    for i in range(2, r + 1))
    return Fraction(num, t**r)


def _position_moments(n: int, branches: Callable[[int], Iterable[tuple]],
                      r_max: int) -> list:
    """[sum of w T^r over the paths to position n, r = 0..r_max], exactly.

    A step ending at position p takes one branch (lag, weight, value) of
    ``branches(p)`` from a path ending at p - lag: it multiplies the path's
    weight w by the weight and adds the value to its total T.  Position 0
    holds one empty path and no earlier position holds any.  Lags 1 and 2
    walk the compositions of n, whose law factors over ending positions
    (Stanley, EC1 4.7); lag 1 alone walks n independent terms.  The sums at
    p follow from those at p - lag binomially, in O(n r_max^2) operations.
    """
    sums = [[1] + [0] * r_max]
    for p in range(1, n + 1):
        steps = [(w, v, sums[p - lag]) for lag, w, v in branches(p) if lag <= p]
        sums.append([sum(w * comb(r, j) * v ** (r - j) * prev[j]
                         for w, v, prev in steps for j in range(r + 1))
                     for r in range(r_max + 1)])
    return sums[n]


# Entries 0..len-1 of each counting sequence before any growth, and the rows
# that seed the power sums and every roll; index 0 of the rows is a
# placeholder below every family's first row (fibonacci's row 0 is real and
# seeds its recurrence).
_SEED_COUNTS = {
    Family.EULERIAN: (1,),
    Family.INVOLUTION: (1, 1),
    Family.DERANGEMENT: (1, 0),
    Family.EXCEDANCE: (1, 0),
    Family.FIBONACCI: (1, 1),
}
_SEED_ROWS = {
    Family.EULERIAN: ((), (1,)),
    Family.INVOLUTION: ((), (1,), (1, 1)),
    Family.DERANGEMENT: ((), (), (1,)),
    Family.EXCEDANCE: ((), (), (1,)),
    Family.FIBONACCI: ((1,), (1,)),
}


class _Grown(list):
    """A grow-only list: ``through(n)`` appends ``step(entries)`` under the
    list's own lock until index n exists, and returns the list.

    A step may grow other lists but never its own, so locks nest in one
    direction only.  Entries never change, so readers take no lock; callers
    read the list but never write it.
    """

    def __init__(self, seed: Iterable, step: Callable[[list], object]):
        super().__init__(seed)
        self._step = step
        self._lock = threading.Lock()

    def through(self, n: int) -> _Grown:
        if len(self) <= n:
            with self._lock:
                while len(self) <= n:
                    self.append(self._step(self))
        return self


class _Store:
    """Grow-only counting sequence, row power sums and row means of one
    family.

    ``counts[n]``, ``sums[n]`` and ``means[n]`` belong to index n.
    ``sums[n]`` is (S_0, ..., S_4) of row n, grown by the power-sum
    recurrence (seeded from the seed rows), so the means and moments it
    gives build no row.
    """

    def __init__(self, family: Family):
        self.family = family
        self.counts = _Grown(_SEED_COUNTS[family], lambda seq: _next_count(family, seq))
        self.sums = _Grown(
            (_power_sums(family.k_min, row, _POWERS) for row in _SEED_ROWS[family]),
            lambda sums: _next_sums(family, sums, self.counts.through(len(sums))),
        )
        self.means = _Grown((), self._next_mean)

    def _next_mean(self, means: list[Fraction]) -> Fraction:
        n = len(means)
        if n < self.family.n_min:
            return ZERO
        s = self.sums.through(n)[n]
        return Fraction(s[1], s[0])


_STORES = {fam: _Store(fam) for fam in Family}


def _reaching(family: str | Family, n: int, what: str) -> Family:
    """The family, if ``n`` reaches its first ``what`` (index, row or stage):
    the one first-row refusal of the library and the CLI."""
    fam = parse_family(family)
    if n < fam.n_min:
        raise FamilyError(f"{fam.value}: n={n} is below the first {what} {fam.n_min}")
    return fam


def counting_sequence(family: str | Family, n_max: int) -> list[int]:
    """Exact class sizes for indices 0..n_max.

    Derangement counts are cross-checked against their closed form as they
    are stored (``_next_count``).
    """
    fam = _reaching(family, n_max, "index")
    return _STORES[fam].counts.through(n_max)[: n_max + 1]


class ExactPmf:
    """Integer-supported pmf: weight(offset + j) = counts[j] / total, exact.

    A triangle row already is an exact law, so a row pmf holds the row's
    integer counts over the one row total, with no ``Fraction`` per entry.
    Moments come from integer power sums and are exact ``Fraction`` values.

    ``ExactPmf(offset, weights)`` takes rational weights and scales them to a
    common denominator; ``ExactPmf.from_counts`` takes counts.  ``weights`` is
    derived, and equality and hashing are by ``(offset, weights)``, whatever
    the scale of the counts.  An ``ExactPmf`` is immutable.
    """

    __slots__ = ("offset", "counts", "total")

    def __init__(self, offset: int, weights: Iterable[Fraction | int]):
        ws = [Fraction(w) for w in weights]
        total = lcm(*(w.denominator for w in ws))
        self._set(offset, tuple(w.numerator * (total // w.denominator) for w in ws),
                  total)

    @classmethod
    def from_counts(cls, offset: int, counts: Iterable[int]) -> ExactPmf:
        """weight(offset + j) = counts[j] / sum(counts)."""
        counts = tuple(counts)
        pmf = cls.__new__(cls)
        pmf._set(offset, counts, sum(counts))
        return pmf

    def _set(self, offset: int, counts: tuple[int, ...], total: int) -> None:
        if any(c < 0 for c in counts):
            raise ValueError("pmf weights must be nonnegative")
        if total <= 0 or sum(counts) != total:
            raise ValueError("pmf weights must sum to exactly 1")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return (f"ExactPmf(offset={self.offset!r}, counts={self.counts!r}, "
                f"total={self.total!r})")

    def __reduce__(self):
        return ExactPmf.from_counts, (self.offset, self.counts)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.total) for c in self.counts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.offset == other.offset
            and len(self.counts) == len(other.counts)
            and all(a * other.total == b * self.total
                    for a, b in zip(self.counts, other.counts))
        )

    def __hash__(self):
        return hash((self.offset, self.weights))

    def support(self) -> range:
        return range(self.offset, self.offset + len(self.counts))

    def items(self) -> list[tuple[int, Fraction]]:
        return list(zip(self.support(), self.weights))

    def weight(self, k: int) -> Fraction:
        j = k - self.offset
        if 0 <= j < len(self.counts):
            return Fraction(self.counts[j], self.total)
        return ZERO

    def power_sums(self, r: int) -> tuple[int, ...]:
        """(S_0, ..., S_r) with S_i = sum_k count(k) * k**i; S_0 is the total."""
        if r < 0:
            raise ValueError("moment order must be >= 0")
        return _power_sums(self.offset, self.counts, r)

    def raw_moment(self, r: int) -> Fraction:
        return Fraction(self.power_sums(r)[r], self.total)

    def mean(self) -> Fraction:
        return self.raw_moment(1)

    def variance(self) -> Fraction:
        return self.central_moment(2)

    def central_moment(self, r: int) -> Fraction:
        """E[(X - mean)^r], exactly, from the power sums (``_central_moment``)."""
        return _central_moment(self.power_sums(r), r)


class CountTriangle:
    """Dense rows of exact integers for one family, n = n_min .. n_max.

    Row n holds entries for k = k_min .. k_max(n); indices outside a row are
    implicitly zero.  Derangement and excedance rows keep explicit trailing
    zeros (k runs to n-1) so rows are directly comparable against references.
    ``rows`` maps n to row n.
    """

    def __init__(self, family: Family, n_max: int, rows):
        self.family = family
        self.n_max = n_max
        self._rows = rows

    @property
    def n_min(self) -> int:
        return self.family.n_min

    @property
    def k_min(self) -> int:
        return self.family.k_min

    def row(self, n: int) -> list[int]:
        if not self.n_min <= n <= self.n_max:
            raise FamilyError(
                f"row {n} outside triangle range {self.n_min}..{self.n_max} "
                f"for family {self.family.value}"
            )
        return list(self._rows[n])

    def row_sum(self, n: int) -> int:
        return sum(self.row(n))

    def rows(self):
        for n in range(self.n_min, self.n_max + 1):
            yield n, self.row(n)


def descent_triangle(family: str | Family, n_max: int) -> CountTriangle:
    """The family's triangle for rows n_min..n_max, rolled on each call
    (``rolled_rows``); no row is cached, so the triangle holds the only copy."""
    fam = _reaching(family, n_max, "row")
    return CountTriangle(fam, n_max, dict(rolled_rows(fam, range(fam.n_min, n_max + 1))))


def rolled_rows(family: str | Family,
                ns: Iterable[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (n, row n) for each requested n, in increasing order.

    Two rolling rows step through the row recurrence (``_next_row``), so
    the rows held are O(n) integers and none is kept.  A request below the
    family's first row raises ``FamilyError``.
    """
    fam = parse_family(family)
    wanted = sorted(set(ns))
    if not wanted:
        return
    _reaching(fam, wanted[0], "row")
    seed = _SEED_ROWS[fam]
    n, before, last = len(seed) - 1, seed[-2], seed[-1]
    for target in wanted:
        while n < target:
            n += 1
            before, last = last, _next_row(fam, n, before, last)
        yield target, seed[target] if target < n else last


def triangle_row_pmf(triangle: CountTriangle, n: int) -> ExactPmf:
    """Row n of the triangle as an exact pmf over k: its counts over its sum."""
    row = triangle.row(n)
    if sum(row) <= 0:
        raise FamilyError(f"degenerate row n={n}: zero row sum")
    return ExactPmf.from_counts(triangle.k_min, row)


def row_means(family: str | Family, n_max: int) -> tuple[Fraction, ...]:
    """Exact row means S_1 / S_0 for indices 0..n_max; 0 below the family's
    first row.

    The means and the power sums they read are kept in the family's store,
    so no row is built and a repeat call is a lookup.
    """
    return tuple(_STORES[parse_family(family)].means.through(n_max)[: n_max + 1])

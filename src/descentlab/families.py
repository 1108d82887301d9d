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
the row total, whose moments are exact ``Fraction`` values.

Every per-index cache is a grow-only list of one type, ``_Grown``: each
family's counting sequence, triangle rows and row means here, and each
process kind's stage laws and part constants in ``processes``.  A request
beyond the stored index extends a list from its last entries under the
list's own lock; nothing is rebuilt and no entry changes, so triangles handed
out earlier stay valid and the lists are safe to share across threads.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Iterable

from .errors import FamilyError, RuleError

ZERO = Fraction(0)


class Family(enum.Enum):
    EULERIAN = "eulerian"
    INVOLUTION = "involution"
    DERANGEMENT = "derangement"
    EXCEDANCE = "excedance"
    FIBONACCI = "fibonacci"

    @property
    def n_min(self) -> int:
        return 2 if self in (Family.DERANGEMENT, Family.EXCEDANCE) else 1

    @property
    def k_min(self) -> int:
        return 1 if self in (Family.DERANGEMENT, Family.EXCEDANCE) else 0


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
    the class size den = c_m built from index m - 2, num = (m-1) c_{m-2}
    (m in a two-cycle), or c_{m-2} for fibonacci (m swapped with m - 1)."""
    fam = parse_family(family)
    if fam is Family.EULERIAN:
        raise RuleError("the eulerian family has a first-order recurrence; "
                        "no two-jump rule exists")
    if m < 2:
        raise FamilyError(f"no two-jump split below index 2, got {m}")
    counts = _STORES[fam].counts.through(m)
    w = 1 if fam is Family.FIBONACCI else m - 1
    return w * counts[m - 2], counts[m]


def _next_row(family: Family, rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Row n = len(rows), from rows n-1 (``r1``) and n-2 (``r2``) before it."""
    n, r1, r2 = len(rows), rows[-1], rows[-2]
    if family is Family.EULERIAN:
        # A_{n,k} = (k+1) A_{n-1,k} + (n-k) A_{n-1,k-1}, k = 0..n-1
        a = (0, *r1, 0)  # A_{n-1,k} = a[k+1]
        return tuple((k + 1) * a[k + 1] + (n - k) * a[k] for k in range(n))
    if family is Family.INVOLUTION:
        # I_{n,k} for k = 0..n-1; the two-row recurrence divides by n exactly.
        a = (0, *r1, 0)        # I_{n-1,k} = a[k+1]
        b = (0, 0, *r2, 0, 0)  # I_{n-2,k} = b[k+2]
        m = n - 2              # recurrence parameter: row n = "n-2 plus two"
        row = []
        for k in range(n):
            total = (
                (k + 1) * a[k + 1]
                + (m - k + 2) * a[k]
                + ((k + 1) ** 2 + m) * b[k + 2]
                + (2 * k * (m - k + 1) - m + 1) * b[k + 1]
                + ((m - k + 2) ** 2 + m) * b[k]
            )
            q, rem = divmod(total, n)
            if rem:
                raise ArithmeticError(
                    f"involution row {n}: the recurrence total at k={k} "
                    f"is not divisible by {n}"
                )
            row.append(q)
        return tuple(row)
    if family is Family.FIBONACCI:
        # binomial(n-k, k) = binomial(n-1-k, k) + binomial(n-2-(k-1), k-1)
        a = (*r1, 0)   # F_{n-1,k} = a[k]
        b = (0, *r2)   # F_{n-2,k-1} = b[k]
        return tuple(a[k] + b[k] for k in range(n // 2 + 1))
    # derangement and excedance: k = 1..n-1, stored with trailing zeros
    a = (0, *r1, 0)     # row n-1 at k = a[k]
    b = (0, 0, *r2, 0)  # row n-2 at k-1 = b[k]
    if family is Family.DERANGEMENT:
        return tuple(
            (k + 1) * a[k] + (n - k - 1) * a[k - 1] + k * b[k] + (n - k) * b[k - 1]
            for k in range(1, n)
        )
    # Exc_{n,k} = k Exc_{n-1,k} + (n-k) Exc_{n-1,k-1} + (n-1) Exc_{n-2,k-1}
    return tuple(k * a[k] + (n - k) * a[k - 1] + (n - 1) * b[k] for k in range(1, n))


# Entries 0..len-1 of each store before any growth; index 0 of the rows is a
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
    """Grow-only counting sequence, triangle rows and row means of one family.

    ``counts[n]``, ``rows[n]`` and ``means[n]`` belong to index n; a row
    mean goes through ``triangle_row_pmf``, a use the benchmark counts.
    """

    def __init__(self, family: Family):
        self.family = family
        self.counts = _Grown(_SEED_COUNTS[family], lambda seq: _next_count(family, seq))
        self.rows = _Grown(_SEED_ROWS[family], lambda rows: _next_row(family, rows))
        self.means = _Grown((), self._next_mean)

    def _next_mean(self, means: list[Fraction]) -> Fraction:
        n, fam = len(means), self.family
        if fam is Family.INVOLUTION:
            return Fraction(n - 1, 2) if n else ZERO
        if n < fam.n_min:
            return ZERO
        return triangle_row_pmf(CountTriangle(fam, n, self.rows.through(n)), n).mean()


_STORES = {fam: _Store(fam) for fam in Family}


def _reaching(family: str | Family, n_max: int, what: str) -> Family:
    """The family, if ``n_max`` reaches its first ``what`` (index or row)."""
    fam = parse_family(family)
    if n_max < fam.n_min:
        raise FamilyError(f"n_max={n_max} is below the minimum {what} {fam.n_min} "
                          f"for family {fam.value}")
    return fam


def counting_sequence(family: str | Family, n_max: int) -> list[int]:
    """Exact class sizes for indices 0..n_max.

    Derangement counts are cross-checked against their closed form as they
    are stored (``_next_count``).
    """
    fam = _reaching(family, n_max, "index")
    return _STORES[fam].counts.through(n_max)[: n_max + 1]


@dataclass(frozen=True, init=False, eq=False)
class ExactPmf:
    """Integer-supported pmf: weight(offset + j) = counts[j] / total, exact.

    A triangle row already is an exact law, so a row pmf holds the row's
    integer counts over the one row total, with no ``Fraction`` per entry.
    Moments come from integer power sums and are exact ``Fraction`` values.

    ``ExactPmf(offset, weights)`` takes rational weights and scales them to a
    common denominator; ``ExactPmf.from_counts`` takes counts.  ``weights`` is
    derived, and equality and hashing are by ``(offset, weights)``, whatever
    the scale of the counts.
    """

    offset: int
    counts: tuple[int, ...]
    total: int

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
        sums = [0] * (r + 1)
        for k, c in zip(self.support(), self.counts):
            for i in range(r + 1):
                sums[i] += c
                c *= k
        return tuple(sums)

    def raw_moment(self, r: int) -> Fraction:
        return Fraction(self.power_sums(r)[r], self.total)

    def mean(self) -> Fraction:
        return self.raw_moment(1)

    def variance(self) -> Fraction:
        return self.central_moment(2)

    def central_moment(self, r: int) -> Fraction:
        """sum_k count(k) (k T - S_1)^r / T^(r+1) with T the total, expanded
        binomially over the power sums so every term stays an integer."""
        s = self.power_sums(r)
        t, neg_s1 = s[0], -s[1]
        num = sum(comb(r, i) * s[i] * t**i * neg_s1 ** (r - i) for i in range(r + 1))
        return Fraction(num, t ** (r + 1))


class CountTriangle:
    """Dense rows of exact integers for one family, n = n_min .. n_max.

    Row n holds entries for k = k_min .. k_max(n); indices outside a row are
    implicitly zero.  Derangement and excedance rows keep explicit trailing
    zeros (k runs to n-1) so rows are directly comparable against references.
    ``rows`` maps n to row n; ``descent_triangle`` passes its family store's
    rows, which later growth leaves unchanged.
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
    """The family's triangle for rows n_min..n_max, from its store."""
    fam = _reaching(family, n_max, "row")
    return CountTriangle(fam, n_max, _STORES[fam].rows.through(n_max))


def triangle_row_pmf(triangle: CountTriangle, n: int) -> ExactPmf:
    """Row n of the triangle as an exact pmf over k: its counts over its sum."""
    row = triangle.row(n)
    if sum(row) <= 0:
        raise FamilyError(f"degenerate row n={n}: zero row sum")
    return ExactPmf.from_counts(triangle.k_min, row)


def row_means(family: str | Family, n_max: int) -> tuple[Fraction, ...]:
    """Exact row means for indices 0..n_max; 0 below the family's first row.

    Involution rows are palindromic, so their means are (n-1)/2 without a
    triangle; the others are triangle row means, read from the rows one
    ``descent_triangle`` call builds.  The means are kept in the family's
    store, so a repeat call is a lookup.
    """
    fam = parse_family(family)
    means = _STORES[fam].means
    if len(means) <= n_max and fam is not Family.INVOLUTION and n_max >= fam.n_min:
        descent_triangle(fam, n_max)
    return tuple(means.through(n_max)[: n_max + 1])

"""Jump processes with exact rational transitions and their decompositions.

Each statistic family evolves by one-jumps (from the previous value) and
two-jumps (from the value two stages back): the type split is the family's
``two_jump_split``, and each increment is an ``rng.Jump``.  That law is
read off the family's term table once per (kind, stage), in integers, with
no per-kind branch (``_stage_law``, from ``families._lag_law``); the exact
``Fraction`` entries, the scalar draw, the batch engine's gates and the
martingale differences' laws and conditional moments all read it, and so
does the exact marginal: the type draw ignores the values and a jump reads
one source value, so the stage-m law is the stage-(m-2) law pushed through
``law.two`` plus the stage-(m-1) law pushed through ``law.one``, a closure
that ``exact_marginal`` runs over two rolling rows of integer counts in
O(n^2) operations.  A recorded run reads its jump word off its steps; the
word's discard reduction yields a composition, and the run decomposes over
its parts into differences, deterministic adjustments and multiplicative
factors that reconstruct the centered, scaled final value exactly.  Each
kind keeps three grow-only lists (``_StageTable``): the stage laws, which
every engine reads, and a recorded part's constants and adjustment texts.

The reconstruction proves the identity with small integers, and one
function owns a part's integer arithmetic (``_telescoped_constants``): the
part's difference is an integer in its source and new values less a mean
shift, and its adjustment an integer plus two mean terms, checked once per
stage as the table grows; the mean terms of adjacent parts cancel through
the factors, so a run's residual needs only the parts' integers and one
exact mean.  A decomposition built by hand is summed term by term instead.
One stage loop (``simulate``, over one block of draws, each type draw against
the stage's stored threshold), one walk over the parts (``_decompose``) and
one integer core (``_telescoped_sum``) serve the library's
``Decomposition`` and ``reconstruct`` and what the CLI prints of a run
(``_run_text``); a recorded run builds its ``PartRecord``s only when read.

Stage bookkeeping: involution and fibonacci runs decompose over compositions
of n (part position == stage).  Derangement and excedance runs start at stage
2 with a deterministic value, so their compositions have total n - 2 and a
part ending at position p describes the jump into stage p + 2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import NamedTuple

from .compositions import Composition, _parts_from_right
from .errors import FamilyError, InfeasibleStateError
from .families import _STORES, ExactPmf, _Grown, _lag_law, _reaching, row_means, two_jump_split
from .rng import TWO64, Jump, Stream
from .tags import ProcessKind

F = Fraction
ZERO = F(0)


def parse_kind(tag: str | ProcessKind) -> ProcessKind:
    if isinstance(tag, ProcessKind):
        return tag
    try:
        return ProcessKind(tag)
    except ValueError:
        raise FamilyError(f"unknown process kind {tag!r}") from None


def _value_range(kind: ProcessKind, j: int) -> tuple[int, int]:
    """Inclusive range of attainable values at stage j."""
    if kind in (ProcessKind.DERANGEMENT, ProcessKind.EXCEDANCE):
        if j < 2:
            return (0, 0)
        return (1, max(1, j - 1))
    if j < 1:
        return (0, 0)
    if kind is ProcessKind.FIBONACCI:
        return (0, j // 2)
    return (0, max(0, j - 1))


def _check_value(kind: ProcessKind, j: int, value) -> None:
    """Raise ``InfeasibleStateError`` unless ``value`` lies in the range of
    attainable values at stage j."""
    lo, hi = _value_range(kind, j)
    if not lo <= value <= hi:
        raise InfeasibleStateError(
            f"{kind.value}: value {value} at stage {j} outside [{lo}, {hi}]"
        )


class _StateFields(NamedTuple):
    kind: ProcessKind
    n: int
    prev: int
    last: int


class ProcessState(_StateFields):
    """Values at two consecutive stages: ``prev`` at stage n, ``last`` at
    stage n+1; the next transition produces the value at stage n+2."""

    __slots__ = ()

    def __new__(cls, kind: ProcessKind, n: int, prev: int, last: int):
        _check_value(kind, n, prev)
        _check_value(kind, n + 1, last)
        return super().__new__(cls, kind, n, prev, last)

    @classmethod
    def _make(cls, iterable) -> ProcessState:  # so ``_replace`` checks too
        return cls(*iterable)


class _JumpFields(NamedTuple):
    entries: tuple[tuple[str, int, Fraction], ...]  # (source, increment, prob)


class JumpDistribution(_JumpFields):
    """Joint law of (jump source, increment) for one transition."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[str, int, Fraction], ...]):
        total = sum(p for _, _, p in entries)
        if total != 1 or any(p < 0 for _, _, p in entries):
            raise InfeasibleStateError("jump probabilities must be a distribution")
        return super().__new__(cls, entries)

    @classmethod
    def _make(cls, iterable) -> JumpDistribution:  # so ``_replace`` checks too
        return cls(*iterable)

    def two_jump_probability(self) -> Fraction:
        return sum(p for src, _, p in self.entries if src == "prev")

    def value_pmf(self, prev: int, last: int) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for src, inc, p in self.entries:
            v = (prev if src == "prev" else last) + inc
            out[v] = out.get(v, ZERO) + p
        return out


class StageLaw(NamedTuple):
    """Transition into stage m: a two-jump (from stage m-2) with probability
    ``two_num / den``, else a one-jump (from stage m-1).  A draw u takes the
    two-jump when ``u * den < two_num * 2**64``, that is when u is below
    ``threshold`` = ceil(two_num * 2**64 / den), the form both engines read."""

    two_num: int
    den: int
    threshold: int
    two: Jump
    one: Jump


# Enum members as globals: a class-attribute lookup of a member costs more
# than the rest of a part's constants in Python 3.11, read once per part.
_INVOLUTION, _DERANGEMENT, _FIBONACCI = (
    ProcessKind.INVOLUTION, ProcessKind.DERANGEMENT, ProcessKind.FIBONACCI)


def _stage_law(kind: ProcessKind, m: int) -> StageLaw:
    """The transition law into stage m, in integers: each jump is its lag's
    terms in the family's term table, the type split ``two_jump_split``."""
    num, den = two_jump_split(kind.family, m)
    return StageLaw(num, den, -(-num * TWO64 // den),
                    Jump(*_lag_law(kind.family, 2, m)), Jump(*_lag_law(kind.family, 1, m)))


def _entries(law: StageLaw, prev: int, last: int) -> list[tuple[str, int, Fraction]]:
    """(source, increment, probability) of every branch, two-jumps first,
    zero-probability branches included."""
    return [(name, inc, p_type * F(c, jump.den))
            for name, jump, src, p_type in (
                ("prev", law.two, prev, F(law.two_num, law.den)),
                ("last", law.one, last, F(law.den - law.two_num, law.den)))
            for inc, c in jump.increments(src)]


def jump_distribution(state: ProcessState) -> JumpDistribution:
    """Exact transition law out of a feasible state, from the first update's
    state (index ``kind.start[0] - 2``) on.

    The probabilities sum to 1 identically because the family's counting
    recurrence splits the stage-(n+2) class over the two source stages.
    """
    kind = state.kind
    m = state.n + 2
    if m < kind.start[0]:
        raise FamilyError(
            f"{kind.value}: no transition into stage {m}; "
            f"the first update is into stage {kind.start[0]}"
        )
    entries = _entries(_TABLES[kind].laws.through(m)[m], state.prev, state.last)
    if any(p < 0 or p > 1 for _, _, p in entries):
        raise InfeasibleStateError(
            f"{kind.value}: state ({state.prev}, {state.last}) at stage {state.n} "
            "gives probabilities outside [0, 1]"
        )
    return JumpDistribution(tuple(entries))


# ---------------------------------------------------------------------------
# exact means and the deterministic adjustment terms
# ---------------------------------------------------------------------------

def exact_means(kind: str | ProcessKind, n_max: int) -> tuple[Fraction, ...]:
    """Exact stage means (index j holds E at stage j; unreachable stages 0).

    The stage-j value has the law of row j of the family's triangle, so these
    are the family's row means, kept in its store: a repeat call is a lookup.
    """
    return row_means(parse_kind(kind).family, n_max)


def alpha_term(kind: str | ProcessKind, i: int, order: int, mu) -> Fraction:
    """Deterministic adjustment for a jump of the given order into stage i.

    ``mu`` maps a stage index to the exact mean at that stage (callable or
    indexable).  Only derangement and excedance decompositions carry
    adjustments.
    """
    kind = parse_kind(kind)
    get = mu if callable(mu) else mu.__getitem__
    if order not in (1, 2):
        raise ValueError(f"jump order must be 1 or 2, got {order}")
    if kind is ProcessKind.DERANGEMENT:
        if order == 1:
            return F(i - 2) - (i - 1) * get(i) + (i - 2) * get(i - 1)
        return F(2 * i - 3) - (i - 1) * get(i) + (i - 2) * get(i - 2)
    if kind is ProcessKind.EXCEDANCE:
        if order == 1:
            return F(i - 1) - (i - 1) * get(i) + (i - 2) * get(i - 1)
        return F(i - 1) - (i - 1) * get(i) + (i - 1) * get(i - 2)
    return ZERO


def _scale(offset: int, i: int) -> int:
    """The factor of the centered stage-i value in the identity that
    ``reconstruct`` checks: i - 1 for runs that start at stage 2 (a nonzero
    ``composition_offset``), i otherwise.  It takes the offset, which the
    per-part loops hold, as an enum property costs more than the rest."""
    return i - 1 if offset else i


def _telescoped_constants(kind: ProcessKind, i: int, order: int) -> tuple[int, int]:
    """(c, k) of a part that ends at stage i with a jump of order s: the one
    owner of a part's integer arithmetic.  From v_{i-s} to v_i the part adds
        x + alpha = scale(i) (v_i - mu_i) - k (v_{i-s} - mu_{i-s}),
    where scale is ``_scale``, x is d = scale(i) v_i - k v_{i-s} - c less the
    stage's ``_mean_shift``, and so alpha less that shift is
    c - scale(i) mu_i + k mu_{i-s}.

    c is an integer; k is the scale of the source stage times the factor
    the part gives the parts before it, so that k mu_{i-s} cancels the
    previous part's mean term.  The excedance two-jump's shift 2 mu_{i-2}
    is folded into its k; a fibonacci part's adjustment is zero and its
    mean terms are its shift; an involution part has neither, and its c is
    i mu_i - (i-s) mu_{i-s}, an integer since mu_i = (i-1)/2.
    """
    if kind is _DERANGEMENT:
        return (i - 2 if order == 1 else 2 * i - 3), i - 2
    if kind is ProcessKind.EXCEDANCE:
        return i - 1, i - 1 - order
    if kind is _INVOLUTION:
        return (i - 1 if order == 1 else 2 * i - 3), i - order
    return 0, i - order  # fibonacci


def gamma_factor(comp: Composition, i: int) -> Fraction:
    """Product of k/(k-1) over 2-part ending positions k later than i.

    ``i`` may be any covered position (1..total); the factor for the part at
    position i itself is excluded.
    """
    if not 1 <= i <= comp.total:
        raise IndexError(f"position {i} outside 1..{comp.total}")
    out = F(1)
    for pos, size in comp.position_pairs():
        if pos > i and size == 2:
            out *= F(pos, pos - 1)
    return out


# ---------------------------------------------------------------------------
# martingale differences and their conditional moments
# ---------------------------------------------------------------------------

class RationalPmf(NamedTuple):
    """Finite pmf over exact rational values."""

    outcomes: tuple[tuple[Fraction, Fraction], ...]  # (value, prob)

    def mean(self) -> Fraction:
        return sum(v * p for v, p in self.outcomes)

    def moment(self, r: int) -> Fraction:
        return sum(v**r * p for v, p in self.outcomes)


def _center(kind: ProcessKind, i: int, order: int) -> Fraction:
    """The center of the conditioning value, written only here: a
    difference's ``w`` is its source value (at stage i - order) minus this."""
    if kind is _INVOLUTION:
        return F(i - order - 1, 2)
    if kind is _DERANGEMENT:
        return F(i - 3, 2)
    if kind is _FIBONACCI:
        return ZERO
    return F(i - 1, 2)  # excedance


def _difference_law(kind: ProcessKind, i: int, order: int, src) -> list[tuple]:
    """(difference, integer weight over the jump's ``den``) of every branch of
    the jump that ends a part of the given order at stage i, from the value
    ``src``, zero weights included.

    A random jump's d (``_telescoped_constants``) has conditional mean zero;
    a deterministic jump (empty ``cums``) realizes a function of its source
    alone, so its centered difference is the point mass 0.
    """
    if order not in (1, 2):
        raise ValueError(f"jump order must be 1 or 2, got {order}")
    offset = kind.composition_offset
    first = offset + order
    if i < first:
        raise InfeasibleStateError(
            f"{kind.value}: stage {i} below the first order-{order} part stage {first}"
        )
    _check_value(kind, i - order, src)
    if i < kind.start[0]:  # the first part of a run from stage 0 stays at 0
        return [(0, 1)]
    law = _TABLES[kind].laws.through(i)[i]
    jump = law.two if order == 2 else law.one
    if not jump.cums:
        return [(0, jump.den)]
    c, k = _telescoped_constants(kind, i, order)
    scale = _scale(offset, i)
    return [(scale * (src + inc) - k * src - c, weight)
            for inc, weight in jump.increments(src)]


def _difference_moments(kind: ProcessKind, i: int, order: int, src) -> tuple:
    """(den, sum d^2 c, sum d^3 c, sum d^4 c) over the branches (d, c) of the
    centered difference given the source value: E[X^r] is the r-th sum over
    ``den``, the jump's total weight."""
    law = _difference_law(kind, i, order, src)
    return (sum(c for _, c in law), *(sum(d**r * c for d, c in law) for r in (2, 3, 4)))


def martingale_difference_distribution(
    kind: str | ProcessKind, i: int, order: int, w: Fraction
) -> RationalPmf:
    """Conditional law of the centered decomposition difference at stage i.

    ``w`` is the centered source value: the value at stage i-order minus
    (i-order-1)/2 for involutions, (i-3)/2 for derangements, (i-1)/2 for
    excedances (both orders) and 0 for fibonacci.  The law, like
    ``conditional_moment``, is derived from the stage's transition law,
    branch by branch, and has mean exactly zero.  Fibonacci jumps and
    excedance two-jumps carry no randomness beyond their source value, so
    their centered law is a point mass at zero; their deterministic drift
    appears in recorded trajectories instead.  Stages start where a part of
    the given order can end.
    """
    kind = parse_kind(kind)
    law = _difference_law(kind, i, order, F(w) + _center(kind, i, order))
    den = sum(c for _, c in law)
    if any(not 0 <= c <= den for _, c in law):
        raise InfeasibleStateError(
            f"{kind.value}: centered value {w} is infeasible for an "
            f"order-{order} jump into stage {i}"
        )
    return RationalPmf(tuple((F(d), F(c, den)) for d, c in law))


def conditional_moment(
    kind: str | ProcessKind, i: int, order: int, w: Fraction, r: int
) -> Fraction:
    """Conditional moment E[X^r | w] of the centered difference, r in 2..4.

    Derived, like ``martingale_difference_distribution``, from the stage's
    transition law, so the two agree exactly for every feasible state.
    """
    if r not in (2, 3, 4):
        raise ValueError(f"moment order must be 2, 3 or 4, got {r}")
    kind = parse_kind(kind)
    moments = _difference_moments(kind, i, order, F(w) + _center(kind, i, order))
    return F(moments[r - 1], moments[0])


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

class PartRecord(NamedTuple):
    """One composition part of a recorded run."""

    position: int
    size: int
    stage: int
    x: Fraction
    alpha: Fraction
    gamma: Fraction


class Decomposition:
    """A recorded run's composition and parts, immutable.  One that
    ``simulate`` made holds the run's walk (``_decompose``) and builds its
    parts from it when they are first read; ``reconstruct`` and
    ``_run_text`` read the walk alone.  Equality and hashing are by
    (composition, parts)."""

    def __init__(self, composition: tuple[int, ...], parts: tuple[PartRecord, ...]):
        self.__dict__.update(composition=composition, parts=parts)

    def __getattr__(self, name):  # reached only for an attribute never set
        if name != "parts" or "_walk" not in self.__dict__:
            raise AttributeError(name)
        parts = self.__dict__["parts"] = _records(*self._walk)
        return parts

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"Decomposition(composition={self.composition!r}, parts={self.parts!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.composition, self.parts) == (other.composition, other.parts)

    def __hash__(self):
        return hash((self.composition, self.parts))


class Trajectory(NamedTuple):
    """One simulated run; ``steps`` holds (stage, jump order, value)."""

    kind: ProcessKind
    n: int
    seed: int
    initial: tuple[tuple[int, int], ...]
    steps: tuple[tuple[int, int, int], ...]
    final: int
    decomposition: Decomposition | None = None

    def values(self) -> dict[int, int]:
        vals = dict(self.initial)
        for stage, _, value in self.steps:
            vals[stage] = value
        return vals


def _mean_shift(kind: ProcessKind, i: int, order: int, means) -> Fraction:
    """The exact-mean part of the difference realized by a jump of the given
    order into stage i; the rest is an integer in the source and new values
    (the d of ``_telescoped_constants``)."""
    if kind is _FIBONACCI:  # i (new - mu_i) - (i - order) (src - mu_{i-order})
        return i * means[i] - (i - order) * means[i - order]
    if kind is ProcessKind.EXCEDANCE and order == 2:  # 2 (src - mu_{i-2})
        return 2 * means[i - 2]
    return ZERO


class _Part(NamedTuple):
    """Constants of a recorded part that ends at one stage with a jump of one
    order: its adjustment, its mean shift in lowest terms (x is d less
    ``shift_num / shift_den``), and d's ``_telescoped_constants`` c and k."""

    alpha: Fraction
    shift_num: int
    shift_den: int
    c: int
    k: int


class _StageTable:
    """Stage constants of one process kind, in three grow-only lists.

    ``laws[m]`` is the law into stage m (``None`` before the first update);
    ``parts[m][order - 1]`` is the ``_Part`` of a recorded part that ends at
    stage m with a jump of that order (``None`` before the first part's
    stage, which takes one-jumps only).  As a part is added, its adjustment
    less its shift is checked against its ``_telescoped_constants`` exactly,
    which is what lets ``reconstruct`` cancel the mean terms; a mismatch
    raises ``ArithmeticError``.  No entry depends on the size of the run
    that asks for it.  ``alphas[m][order - 1]`` is that part's adjustment as
    text, formatted on its first read (``alpha_text``), so output formats
    only what it prints; a cell holds None or its one text.
    """

    def __init__(self, kind: ProcessKind):
        self.kind = kind
        self.laws = _Grown([None] * kind.start[0], lambda laws: _stage_law(kind, len(laws)))
        self.parts = _Grown([None] * (kind.composition_offset + 1), self._next_parts)
        self.alphas = _Grown([], lambda alphas: [None, None])

    def alpha_text(self, m: int, order: int) -> str:
        """The text of ``parts[m][order - 1]``'s adjustment, kept in its cell."""
        text = self.alphas[m][order - 1] = str(self.parts[m][order - 1].alpha)
        return text

    def _next_parts(self, parts: list) -> tuple[_Part, ...]:
        kind, m = self.kind, len(parts)
        means = _STORES[kind.family].means.through(m)
        # a 2-part ends one stage after the first part at the earliest
        orders = (1, 2) if m >= kind.composition_offset + 2 else (1,)
        out = []
        for order in orders:
            alpha = alpha_term(kind, m, order, means)
            shift = _mean_shift(kind, m, order, means)
            c, k = _telescoped_constants(kind, m, order)
            scale = _scale(kind.composition_offset, m)
            if alpha - shift != c - scale * means[m] + k * means[m - order]:
                raise ArithmeticError(
                    f"{kind.value}: the order-{order} part constants at stage {m} "
                    "do not telescope"
                )
            out.append(_Part(alpha, shift.numerator, shift.denominator, c, k))
        return tuple(out)


_TABLES = {kind: _StageTable(kind) for kind in ProcessKind}


def _part_table(kind: ProcessKind, n: int) -> _Grown:
    """The kind's recorded-part constants through stage n."""
    table = _TABLES[kind].parts
    if len(table) <= n:  # grow the means that new parts read in one call
        exact_means(kind, n)
    return table.through(n)


def simulate(kind: str | ProcessKind, n: int, seed: int, record: bool = False,
             stream_index: int = 0) -> Trajectory:
    """Run the process to stage n, deterministically in (seed, stream_index).
    This is the one stage loop, of every scalar run, recorded or not.

    With ``record`` the jump word, its composition, and the per-part
    decomposition data (differences, adjustments, factors) are attached:
    the decomposition keeps the run's walk and builds its ``PartRecord``s
    only when its ``parts`` are read.
    """
    kind = parse_kind(kind)
    _reaching(kind.family, n, "stage")
    first, v0, v1 = kind.start
    # every stage consumes one type draw and one value draw, so all engines
    # stay in lockstep; the run's outputs come as one block
    draws = iter(Stream(seed, stream_index).block(2 * (n + 1 - first)))
    laws = _TABLES[kind].laws.through(n)
    values, orders = [0] * (n + 1), [1] * (n + 1)
    values[first - 2], values[first - 1] = v0, v1
    for m, u, u_value in zip(range(first, n + 1), draws, draws):
        law = laws[m]
        if u < law.threshold:
            orders[m], src, jump = 2, values[m - 2], law.two
        else:
            src, jump = values[m - 1], law.one
        values[m] = src + jump.draw(src, u_value)

    decomposition = None
    if record:
        parts, walk = _decompose(kind, n, values, orders)
        decomposition = object.__new__(Decomposition)  # parts on first read
        decomposition.__dict__.update(composition=parts, _walk=(kind, n, values[n], walk))
    steps = tuple(zip(range(first, n + 1), orders[first:], values[first:]))
    return Trajectory(kind, n, seed, ((first - 2, v0), (first - 1, v1)), steps,
                      values[n], decomposition)


def _decompose(kind: ProcessKind, n: int, values: list[int],
               orders: list[int]) -> tuple[tuple[int, ...], list[tuple]]:
    """The one walk over the parts of a run (its values and jump orders by
    stage; stages before the first update hold order 1, so the jump word is
    ``orders[composition_offset + 1:]``), from the right over the discard
    reduction of that word: returns the composition's parts and, right to
    left, each part's (size, stage entry, d), its integer difference
    d = scale(i) v_i - k v_{i-s} - c with c and k from
    ``_telescoped_constants``.  The part's x is d less the entry's shift.
    The run wrote the word's letters, 1s and 2s, itself, so they are reduced
    (``_parts_from_right``, with its own check) without ``discard_map``'s
    checks of a word from outside."""
    offset = kind.composition_offset
    sizes = _parts_from_right(orders[offset + 1:])
    table = _part_table(kind, n)
    walk, stage = [], n
    for size in sizes:
        c, k = _telescoped_constants(kind, stage, size)
        d = _scale(offset, stage) * values[stage] - k * values[stage - size] - c
        walk.append((size, table[stage][size - 1], d))
        stage -= size
    sizes.reverse()
    return tuple(sizes), walk


def _telescoped_sum(kind: ProcessKind, n: int, final: int, walk) -> tuple:
    """The integer core of ``reconstruct``: for a run's final value and its
    parts right to left, as (size, stage entry, d), the residual
        scale(n) final - sum gamma_i (d_i + c_i) - gamma_1 k_1 mu_s
    as an integer numerator and a positive denominator, not in lowest terms,
    and the factors, right to left, as (count, gnum, den): ``count`` parts
    whose gamma is gnum / den.  c and k are the entries', which ``_decompose``
    did not use, so a zero residual checks them too (no parts: k_1 = scale(n))."""
    offset = kind.composition_offset
    factors = kind is _DERANGEMENT
    pos = n - offset  # where the next part, right to left, ends
    # finished runs of equal gamma sum to num / den, ``run`` sums d + c under
    # gnum / den, and a 2-part ending at ``split`` grows gamma by split/(split-1)
    num, gnum, den, run, split, count, runs = 0, 1, 1, 0, 0, 0, []
    scale = k = _scale(offset, n)
    for size, entry, d in walk:
        if split:
            runs.append((count, gnum, den))
            num = (num + run * gnum) * (split - 1)
            gnum, den, run, count = gnum * split, den * (split - 1), 0, 0
        run += d + entry.c
        k = entry.k
        count += 1
        split = pos if factors and size == 2 else 0
        pos -= size
    runs.append((count, gnum, den))
    mu = _STORES[kind.family].means.through(offset)[offset]
    den *= mu.denominator
    return (scale * final * den - (num + run * gnum) * mu.denominator
            - gnum * k * mu.numerator, den, runs)


def _walked(kind: ProcessKind, n: int, final: int, walk, number) -> tuple[list, list, object]:
    """The one place a walked run's parts' x and gamma, left to right, and
    its residual are formed: each is ``number(num, den)`` in lowest terms,
    den > 0 (a ``Fraction``, or text by ``_ratio_text``).  x = d - p/q, the
    entry's shift, is (d q - p)/q; equal consecutive factors share one gamma."""
    def lowest(a, b):
        g = gcd(a, b)
        return number(a // g, b // g)

    num, den, runs = _telescoped_sum(kind, n, final, walk)
    xs = [number(d * e.shift_den - e.shift_num, e.shift_den) for _, e, d in reversed(walk)]
    gammas = [g for count, gnum, gden in reversed(runs) for g in (lowest(gnum, gden),) * count]
    return xs, gammas, lowest(num, den)


def _records(kind: ProcessKind, n: int, final: int, walk) -> tuple[PartRecord, ...]:
    """The parts of a walked run, left to right."""
    xs, gammas, _ = _walked(kind, n, final, walk, F)
    ends, offset = accumulate(size for size, _, _ in reversed(walk)), kind.composition_offset
    return tuple(PartRecord(p, size, p + offset, x, e.alpha, g)
                 for p, (size, e, _), x, g in zip(ends, reversed(walk), xs, gammas))


def _ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for num/den in lowest terms, den > 0."""
    return str(num) if den == 1 else f"{num}/{den}"


def _run_text(traj: Trajectory) -> tuple[str, tuple[list, ...], str]:
    """What a recorded run of ``simulate`` prints, from one walk: its
    composition's digits, its parts' columns left to right (position, size,
    stage, and x, alpha and gamma as text), and ``str(reconstruct(traj))``.
    The caller lifts CPython's limit on int-to-text digits, as the CLI does."""
    xs, gammas, residual = _walked(*traj.decomposition._walk, _ratio_text)
    sizes, offset = traj.decomposition.composition, traj.kind.composition_offset
    positions, table = list(accumulate(sizes)), _TABLES[traj.kind]
    stages, texts = [p + offset for p in positions], table.alphas.through(traj.n)
    alphas = [texts[m][s - 1] or table.alpha_text(m, s) for m, s in zip(stages, sizes)]
    return "".join(map(str, sizes)), (positions, sizes, stages, xs, alphas, gammas), residual


def reconstruct(traj: Trajectory) -> Fraction:
    """Exact residual of the decomposition identity; zero for every run.

    Involution and fibonacci runs satisfy
        n (value_n - mean_n) = sum_i x_i,
    derangement and excedance runs satisfy
        (n-1) (value_n - mean_n) = sum_i gamma_i (x_i + alpha_i),
    with excedance factors identically 1.

    The sum is not formed term by term.  A part that ends at stage i with a
    jump of order s has x + alpha = scale(i) (v_i - mu_i) - k (v_{i-s} - mu_{i-s})
    = d + c - scale(i) mu_i + k mu_{i-s} (``_telescoped_constants``, checked
    per stage by ``_StageTable``).  Through the factors gamma the mean terms
    of adjacent parts cancel, and the last part's cancel mean_n, so
        residual = scale(n) value_n - sum_i gamma_i (d_i + c_i) - gamma_1 k_1 mu_s
    with s the first part's source stage (mu_s is 1 for derangement and
    excedance runs, 0 for the others); the integer core ``_telescoped_sum``
    forms it, summing the d + c between the 2-parts of a derangement run,
    where gamma changes.

    That shortcut is taken for the walk that ``simulate`` keeps with a run
    of this kind and size.  Any other decomposition, one built or changed by
    hand, is summed term by term, so the residual is exact in every case.  A
    zero residual does not re-check that each d is a branch of its stage's
    jump law; tests do.
    """
    if traj.decomposition is None:
        raise ValueError("trajectory was not recorded with a decomposition")
    kind, n, dec = traj.kind, traj.n, traj.decomposition
    walked = dec.__dict__.get("_walk")
    if walked is not None and walked[:2] == (kind, n):
        num, den, _ = _telescoped_sum(kind, n, traj.final, walked[3])
        return F(num, den)
    scale = _scale(kind.composition_offset, n)
    total = sum((p.gamma * (p.x + p.alpha) for p in dec.parts), ZERO)
    return scale * (traj.final - _STORES[kind.family].means[n]) - total


def exact_marginal(kind: str | ProcessKind, n: int) -> ExactPmf:
    """Marginal law at stage n, by the module docstring's marginal closure."""
    kind = parse_kind(kind)
    _reaching(kind.family, n, "stage")
    (first, v0, v1), laws = kind.start, _TABLES[kind].laws.through(n)
    c = _STORES[kind.family].counts.through(n)
    rows = [(v0, [c[first - 2]]), (v1, [c[first - 1]])]  # (least value, counts)
    for m in range(first, n + 1):
        law, (lo, hi) = laws[m], _value_range(kind, m)
        den, row = law.two.den * law.one.den, [0] * (hi - lo + 1)
        for jump, num, (base, src) in ((law.two, law.two_num, rows[0]),
                                       (law.one, law.den - law.two_num, rows[1])):
            if num:  # 0 into stage 3 of a derangement or excedance run: c_1 = 0
                a = num * (den // jump.den) // sum(src)
                for j, count in enumerate(src, base):
                    for inc, w in jump.increments(j):
                        if w:  # a branch of weight 0 may leave the range
                            row[j + inc - lo] += a * w * count
        row = [t // den for t in row]
        if sum(row) != law.den:  # the floors fall short of c_m iff one was inexact
            raise ArithmeticError(f"{kind.value}: inexact closure into stage {m}")
        rows = [rows[1], (lo, row)]
    return ExactPmf.from_counts(*rows[1])

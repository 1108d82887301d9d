"""Binary jump words, the discard reduction, and random compositions.

A run of a two-step jump process is a word over {1, 2} (1 = one-jump,
2 = two-jump) whose first letter is always 1.  The discard reduction turns
the word into an integer composition in one walk from the right: the letter
c at the current position p is the part that ends at p, it absorbs the
c - 1 letters to its left, and the walk goes on at p - c.  So each part
accounts for exactly as many positions as its value and the parts sum to
the word length.  The probability of a composition then factors over its
parts: the two-jump probability at each position ending a 2-part, one minus
it at each position ending a 1-part; the probabilities of discarded stages
marginalize out exactly.

The order-s generalization samples jump sizes 1..s per stage and reduces by
the same walk.  Stages too early for a jump of some size renormalize the
rule over the feasible sizes (stage 1 is always a one-jump).  A family's
rule is its ``families.two_jump_split``, and the sampler decides each stage
by ``rng.Jump.draw``: the split and the draw of the family's jump process.
A sum of independent specs is the fold over ending positions of
``families._position_moments``, each step of lag 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from numbers import Number
from typing import Callable, NamedTuple, Sequence

from .errors import RuleError
from .families import ExactPmf, Family, _position_moments, parse_family, two_jump_split
from .rng import Jump, Stream

ZERO = Fraction(0)
ONE = Fraction(1)


class JumpWord:
    """Letters over {1..s}, first letter 1."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...]):
        if not letters:
            raise ValueError("empty jump word")
        if letters[0] != 1:
            raise ValueError("jump word must start with a one-jump")
        if min(letters) < 1:
            raise ValueError("jump word letters must be positive")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"JumpWord(letters={self.letters!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash((self.letters,))

    def __reduce__(self):
        return JumpWord, (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)


class _CompositionFields(NamedTuple):
    parts: tuple[int, ...]
    s: int


class Composition(_CompositionFields):
    """Ordered parts in {1..s} with live position bookkeeping."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...], s: int = 2):
        if parts and not 1 <= min(parts) <= max(parts) <= s:
            raise ValueError(f"parts must lie in 1..{s}")
        return super().__new__(cls, parts, s)

    @classmethod
    def _make(cls, iterable) -> Composition:  # so ``_replace`` checks too
        return cls(*iterable)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def positions(self) -> tuple[int, ...]:
        """Prefix sums: the position at which each part ends."""
        out, acc = [], 0
        for p in self.parts:
            acc += p
            out.append(acc)
        return tuple(out)

    def position_pairs(self) -> tuple[tuple[int, int], ...]:
        """(ending position, part size) for each part."""
        return tuple(zip(self.positions(), self.parts))


def _parts_from_right(letters: Sequence[int]) -> list[int]:
    """The parts of a word's discard reduction, right to left.

    The walk starts at the last position p.  The letter c there is the part
    that ends at p and absorbs the c - 1 letters to its left, so the next
    part ends at p - c; a letter c > p reaches below the first position and
    raises ``ValueError``.  The letters are not otherwise checked.
    """
    parts, p = [], len(letters)
    while p:
        c = letters[p - 1]
        if c > p:
            raise ValueError(
                f"malformed word: jump of size {c} at position {p} "
                "reaches below the first position"
            )
        parts.append(c)
        p -= c
    return parts


def discard_map(word: JumpWord | Sequence[int]) -> Composition:
    """Reduce a jump word to its composition, by the walk of
    ``_parts_from_right``; the parts, read left to right, sum to the word
    length."""
    if not isinstance(word, JumpWord):
        word = JumpWord(tuple(word))
    letters = word.letters
    return Composition(tuple(reversed(_parts_from_right(letters))), max(2, max(letters)))


class JumpProbabilityRule(NamedTuple):
    """Per-stage jump-size distribution.

    For the default order 2, ``fn(i)`` returns the two-jump probability at
    stage i as an exact rational.  For order s > 2, ``fn(i)`` returns the full
    vector (q_1(i), .., q_s(i)) summing to exactly 1.
    """

    fn: Callable[[int], Fraction | Sequence[Fraction]]
    order: int = 2
    name: str = "custom"

    def two_jump(self, i: int) -> Fraction:
        if self.order != 2:
            raise RuleError("two_jump is only defined for order-2 rules")
        return self.vector(i)[1]

    def vector(self, i: int) -> tuple[Fraction, ...]:
        """The stage-i size distribution (q_1, .., q_s)."""
        raw = self.fn(i)
        if isinstance(raw, (Fraction, int)):
            if self.order != 2:
                raise RuleError(
                    f"rule {self.name} returned a scalar but has order {self.order}"
                )
            q = Fraction(raw)
            if not ZERO <= q <= ONE:
                raise RuleError(f"rule {self.name} gave q({i}) = {q} outside [0, 1]")
            return (ONE - q, q)
        if isinstance(raw, Number):
            raise RuleError(f"rule {self.name} gave q({i}) = {raw!r}, not an int or a Fraction")
        vec = tuple(raw)
        for j, v in enumerate(vec, 1):
            if not isinstance(v, (Fraction, int)):
                raise RuleError(
                    f"rule {self.name} gave q_{j}({i}) = {v!r}, not an int or a Fraction")
        vec = tuple(map(Fraction, vec))
        if len(vec) != self.order:
            raise RuleError(
                f"rule {self.name} gave {len(vec)} probabilities at stage {i}, "
                f"expected {self.order}"
            )
        if any(v < 0 for v in vec) or sum(vec) != 1:
            raise RuleError(
                f"rule {self.name} stage-{i} probabilities must be nonnegative "
                "and sum to exactly 1"
            )
        return vec

    def feasible_vector(self, i: int) -> tuple[Fraction, ...]:
        """Stage-i distribution conditioned on jump sizes <= i.

        A jump of size j at stage i starts from the value j stages back, so
        sizes above i are impossible; early stages renormalize over the
        feasible sizes.  Stage 1 is therefore always a one-jump.
        """
        vec = self.vector(i)
        if i >= self.order:
            return vec
        head = vec[:i]
        z = sum(head)
        if z == 0:
            raise RuleError(
                f"rule {self.name} puts no mass on feasible jump sizes at stage {i}"
            )
        return tuple(v / z for v in head) + (ZERO,) * (self.order - i)


def constant_rule(q: Fraction | int) -> JumpProbabilityRule:
    qq = Fraction(q)
    return JumpProbabilityRule(lambda i: qq, name=f"constant({qq})")


def family_rule(family: str | Family) -> JumpProbabilityRule:
    """The family's own two-jump probability at each stage i: its
    ``two_jump_split`` from stage 2 on, 0 before; ``RuleError`` for eulerian."""
    fam = parse_family(family)
    two_jump_split(fam, 2)  # the eulerian family raises here

    def q(i: int) -> Fraction:
        return Fraction(*two_jump_split(fam, i)) if i >= 2 else ZERO

    return JumpProbabilityRule(q, name=f"family({fam.value})")


class WordSampler:
    """Per-stage jump laws for repeated word draws: each stage's feasible
    distribution is a ``Jump`` from size 1 with constant cumulative numerators,
    decided by one 64-bit ``Jump.draw``; per-decision bias is below 2**-64."""

    def __init__(self, rule: JumpProbabilityRule, n: int):
        if n < 1:
            raise ValueError("word length must be at least 1")
        self.n = n
        self._stages = []
        for i in range(2, n + 1):
            law = ExactPmf(1, rule.feasible_vector(i))
            # the last cumulative numerator is the total, which a Jump leaves implicit
            *cums, _ = accumulate(law.counts)
            self._stages.append(Jump(1, tuple((lambda _, c=c: c) for c in cums), law.total))

    def _letters(self, stream: Stream) -> list[int]:
        """One word's letters: 1, then one draw in 1..s per later stage."""
        letters = [1]
        for jump, u in zip(self._stages, stream.block(len(self._stages))):
            letters.append(jump.draw(0, u))
        return letters

    def sample(self, stream: Stream) -> JumpWord:
        return JumpWord(tuple(self._letters(stream)))


def sample_jump_word(rule: JumpProbabilityRule, n: int, stream: Stream) -> JumpWord:
    """Draw the stage-by-stage jump word of length n."""
    return WordSampler(rule, n).sample(stream)


def sample_composition(rule: JumpProbabilityRule, n: int, stream: Stream) -> Composition:
    """One random composition of n, parts in 1..``rule.order``: the sampler's
    own letters reduced by ``_parts_from_right``, without the checks that
    ``JumpWord`` and ``discard_map`` make of a word from outside."""
    parts = _parts_from_right(WordSampler(rule, n)._letters(stream))
    return Composition(tuple(reversed(parts)), rule.order)


# Order-s composition sampling is the same draw at every order.
higher_order_sample = sample_composition


def composition_probability(rule: JumpProbabilityRule, comp: Composition) -> Fraction:
    """Exact probability of the composition under the rule.

    Product over parts of the feasible stage distribution evaluated at the
    part's ending position; a part above the rule's order has no mass.  So
    the sum over ``enumerate_compositions(n, s)`` is exactly 1 for any
    s >= the rule's order.
    """
    prob = ONE
    for pos, size in comp.position_pairs():
        if size > rule.order:
            return ZERO
        if pos > 1:  # the first update is always a one-jump
            prob *= rule.feasible_vector(pos)[size - 1]
    return prob


def enumerate_compositions(n: int, s: int = 2) -> list[Composition]:
    """All compositions of n with parts in 1..s, in lexicographic order."""
    if n < 1 or s < 1:
        raise ValueError("need n >= 1 and s >= 1")
    out: list[Composition] = []

    def rec(remaining: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(Composition(prefix, s))
            return
        for p in range(1, min(s, remaining) + 1):
            rec(remaining - p, prefix + (p,))

    rec(n, ())
    return out


class _BernoulliFields(NamedTuple):
    p: Fraction
    a: Fraction
    b: Fraction


class BernoulliSpec(_BernoulliFields):
    """Binary value taking ``a`` with probability ``p`` and ``b`` otherwise."""

    __slots__ = ()

    def __new__(cls, p: Fraction, a: Fraction, b: Fraction = ZERO):
        p, a, b = Fraction(p), Fraction(a), Fraction(b)
        if not ZERO <= p <= ONE:
            raise ValueError(f"probability {p} outside [0, 1]")
        return super().__new__(cls, p, a, b)

    @classmethod
    def _make(cls, iterable) -> BernoulliSpec:  # so ``_replace`` checks too
        return cls(*iterable)

    def mean(self) -> Fraction:
        return self.p * self.a + (1 - self.p) * self.b

    def raw_moment(self, r: int) -> Fraction:
        return self.p * self.a**r + (1 - self.p) * self.b**r


def word_statistic(specs: Sequence[BernoulliSpec], word: JumpWord | Sequence[int]) -> Fraction:
    """Sum of per-part spec values over the discard-mapped composition.

    The part ending at position p contributes specs[p-1].a for a 2-part and
    specs[p-1].b for a 1-part (the spec's success value is tied to the
    two-jump).  Raises IndexError when the spec vector is shorter than the
    word, and ValueError for a part above 2, which a spec does not score.
    """
    comp = discard_map(word)
    if comp.total > len(specs):
        raise IndexError(
            f"need {comp.total} specs for a word of that length, got {len(specs)}"
        )
    total = ZERO
    for pos, size in comp.position_pairs():
        if size > 2:
            raise ValueError(f"a {size}-part ends at position {pos}; "
                             "a BernoulliSpec scores only 1- and 2-parts")
        spec = specs[pos - 1]
        total += spec.a if size == 2 else spec.b
    return total


def binary_sum_moments(specs: Sequence[BernoulliSpec], max_order: int = 4) -> list[Fraction]:
    """Raw moments E[T^r], r = 0..max_order, of T = sum of independent specs,
    by the fold ``_position_moments`` with every step of lag 1."""
    if max_order > 4:
        raise ValueError("moments are supported up to order 4")
    if max_order < 0:
        raise ValueError("moment order must be >= 0")
    return [Fraction(m) for m in _position_moments(len(specs), lambda i: (
        (1, 1 - specs[i - 1].p, specs[i - 1].b), (1, specs[i - 1].p, specs[i - 1].a)), max_order)]

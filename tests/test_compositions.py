"""Discard map, composition probabilities, samplers, and word statistics."""

import re
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descentlab.compositions import (
    BernoulliSpec,
    Composition,
    JumpProbabilityRule,
    JumpWord,
    WordSampler,
    binary_sum_moments,
    composition_probability,
    constant_rule,
    discard_map,
    enumerate_compositions,
    family_rule,
    higher_order_sample,
    sample_composition,
    sample_jump_word,
    word_statistic,
)
from descentlab.errors import RuleError
from descentlab.families import counting_sequence
from descentlab.rng import Stream

from mc import chi_square_pvalue
from oracles import keep_list_discard_map, threshold_sample

F = Fraction

WORKED_WORD = (1, 2, 1, 2, 2, 1, 2, 1, 1, 2, 2, 2)
WORKED_PARTS = (2, 1, 2, 2, 1, 2, 2)


def test_discard_map_worked_example():
    comp = discard_map(WORKED_WORD)
    assert comp.parts == WORKED_PARTS
    assert comp.positions() == (2, 3, 5, 7, 8, 10, 12)


def test_discard_map_trivials():
    assert discard_map((1, 1, 1, 1)).parts == (1, 1, 1, 1)
    assert discard_map((1, 2)).parts == (2,)


def test_discard_map_is_total_and_total_preserving():
    for n in range(1, 15):
        for tail in product((1, 2), repeat=n - 1):
            comp = discard_map((1,) + tail)
            assert comp.total == n


def test_malformed_words_rejected():
    with pytest.raises(ValueError):
        JumpWord(())
    with pytest.raises(ValueError):
        JumpWord((2, 1))
    with pytest.raises(ValueError):
        discard_map((1, 3, 1))  # surviving 3 would reach below position 1


MALFORMED = [
    (lambda: discard_map(()), "empty jump word"),
    (lambda: discard_map([2, 1]), "must start with a one-jump"),
    (lambda: discard_map([1, 0, 1]), "letters must be positive"),
    (lambda: discard_map([1, -2]), "letters must be positive"),
    (lambda: discard_map([1, 3]), "jump of size 3 at position 2 reaches below"),
    (lambda: discard_map(JumpWord((1, 1, 4))), "jump of size 4 at position 3"),
    (lambda: JumpWord(()), "empty jump word"),
    (lambda: JumpWord((2, 1)), "must start with a one-jump"),
    (lambda: JumpWord((1, 0)), "letters must be positive"),
    (lambda: Composition((1, 3)), r"parts must lie in 1\.\.2"),
    (lambda: Composition((0, 1), 3), r"parts must lie in 1\.\.3"),
    (lambda: Composition((1, 2), s=1), r"parts must lie in 1\.\.1"),
    (lambda: Composition((1, 2))._replace(parts=(1, 5)), r"parts must lie in 1\.\.2"),
    (lambda: BernoulliSpec(F(3, 2), 1), r"probability 3/2 outside \[0, 1\]"),
    (lambda: BernoulliSpec(F(1, 2), 1)._replace(p=-1), r"probability -1 outside"),
]


@pytest.mark.parametrize("index", range(len(MALFORMED)))
def test_malformed_public_inputs_raise_their_messages(index):
    build, message = MALFORMED[index]
    with pytest.raises(ValueError, match=message):
        build()


def _reduce(reduction, word):
    """The composition ``reduction`` gives, or the message it raises."""
    try:
        return reduction(word)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(tail=st.lists(st.integers(1, 4), max_size=59))
@example(tail=[3, 1])
@example(tail=[1, 2, 1, 4])
def test_discard_map_walk_equals_the_keep_list_reduction(tail):
    word = (1, *tail)
    assert _reduce(discard_map, word) == _reduce(keep_list_discard_map, word)


def test_composition_probability_examples():
    fib = family_rule("fibonacci")
    assert composition_probability(fib, Composition((2,))) == F(1, 2)

    rule = constant_rule(F(1, 3))
    allones = Composition((1,) * 5)
    assert composition_probability(rule, allones) == F(2, 3) ** 4

    inv = family_rule("involution")
    total = sum(composition_probability(inv, c) for c in enumerate_compositions(4))
    assert total == 1


def test_composition_probability_matches_worked_product():
    # factorization over surviving positions at n = 12
    rule = family_rule("fibonacci")
    q = rule.two_jump
    expect = (
        q(2) * (1 - q(3)) * q(5) * q(7) * (1 - q(8)) * q(10) * q(12)
    )
    assert composition_probability(rule, Composition(WORKED_PARTS)) == expect


@pytest.mark.parametrize("tag", ["involution", "derangement", "fibonacci"])
def test_probabilities_sum_to_one(tag):
    rule = family_rule(tag)
    for n in range(1, 17):
        total = sum(composition_probability(rule, c) for c in enumerate_compositions(n))
        assert total == 1


def test_probabilities_sum_to_one_arbitrary_rule():
    rule = JumpProbabilityRule(lambda i: F(7, 10) if i % 3 else F(2, 11), name="mixed")
    for n in range(1, 15):
        total = sum(composition_probability(rule, c) for c in enumerate_compositions(n))
        assert total == 1


def test_a_part_above_the_rule_order_has_no_mass():
    rule = constant_rule(F(1, 2))
    assert composition_probability(rule, Composition((1, 3), 3)) == 0
    for s in (3, 4):
        for n in range(1, 11):
            total = sum(composition_probability(rule, c) for c in enumerate_compositions(n, s))
            assert total == 1


def test_word_marginalization_identity():
    # summing word probabilities over the fibers of the discard map gives the
    # product formula; exhaustive over all words at n = 10
    rule = JumpProbabilityRule(lambda i: F(1, i), name="harmonic")
    n = 10
    fiber: dict[tuple[int, ...], Fraction] = {}
    for tail in product((1, 2), repeat=n - 1):
        word = (1,) + tail
        p = F(1)
        for i, c in enumerate(word[1:], start=2):
            q = rule.two_jump(i)
            p *= q if c == 2 else 1 - q
        parts = discard_map(word).parts
        fiber[parts] = fiber.get(parts, F(0)) + p
    for comp in enumerate_compositions(n):
        assert fiber.get(comp.parts, F(0)) == composition_probability(rule, comp)


def test_enumerate_compositions():
    assert len(enumerate_compositions(4, 2)) == 5
    assert [c.parts for c in enumerate_compositions(1, 2)] == [(1,)]
    assert [c.parts for c in enumerate_compositions(3, 3)] == [
        (1, 1, 1),
        (1, 2),
        (2, 1),
        (3,),
    ]
    # lexicographic order, count f_n for s=2
    fib = counting_sequence("fibonacci", 14)
    for n in range(1, 15):
        comps = [c.parts for c in enumerate_compositions(n)]
        assert comps == sorted(comps)
        assert len(comps) == fib[n]


def test_sample_composition_degenerate_rules():
    never = constant_rule(0)
    always = constant_rule(1)
    stream = Stream(7)
    for _ in range(50):
        assert sample_composition(never, 9, stream).parts == (1,) * 9
        assert sample_composition(always, 10, stream).parts == (2,) * 5


def test_sample_composition_rejects_invalid_rule():
    bad = JumpProbabilityRule(lambda i: F(3, 2), name="bad")
    with pytest.raises(RuleError):
        sample_composition(bad, 5, Stream(0))


@pytest.mark.parametrize("value", [0.5, Decimal("0.5")], ids=repr)
def test_a_rule_giving_an_inexact_number_is_refused(value):
    rule = JumpProbabilityRule(lambda i: value, name="inexact")
    message = f"rule inexact gave q(3) = {value!r}, not an int or a Fraction"
    with pytest.raises(RuleError, match=re.escape(message)):
        rule.vector(3)
    for use in (lambda: sample_composition(rule, 5, Stream(0)),
                lambda: composition_probability(rule, Composition((1, 2, 2))),
                lambda: WordSampler(rule, 5)):
        with pytest.raises(RuleError, match="not an int or a Fraction"):
            use()


@pytest.mark.parametrize("vector", [(0.5, 0.25, 0.25), (0.1, 0.2, 0.7),
                                    (Decimal("0.5"), F(1, 4), F(1, 4))], ids=repr)
def test_a_rule_giving_an_inexact_vector_entry_is_refused(vector):
    # dyadic floats and decimals were taken as exact, other floats refused
    # as a vector that does not sum to 1
    rule = JumpProbabilityRule(lambda i: vector, order=3, name="inexact")
    message = f"rule inexact gave q_1(3) = {vector[0]!r}, not an int or a Fraction"
    with pytest.raises(RuleError, match=re.escape(message)):
        rule.vector(3)
    assert JumpProbabilityRule(lambda i: (0, F(1, 2), F(1, 2)), order=3).vector(3) == (
        0, F(1, 2), F(1, 2))


def test_sample_composition_chi_square():
    rule = family_rule("fibonacci")
    n, reps = 8, 1_000_000
    sampler = WordSampler(rule, n)
    counts: dict[tuple[int, ...], int] = {}
    stream = Stream(1234)
    for _ in range(reps):
        parts = discard_map(sampler.sample(stream)).parts
        counts[parts] = counts.get(parts, 0) + 1
    expected = {
        c.parts: composition_probability(rule, c) for c in enumerate_compositions(n)
    }
    assert chi_square_pvalue(counts, expected, reps) >= 0.001


@st.composite
def rational_rules(draw, n):
    """A rule of order 2..4 with random rational stage vectors through stage
    n, zero masses included; each stage keeps some mass on the sizes it can
    take."""
    order = draw(st.integers(2, 4))
    weight = st.one_of(st.integers(0, 3), st.integers(0, 2**70))
    vectors = {}
    for i in range(2, n + 1):
        ws = draw(st.lists(weight, min_size=order, max_size=order))
        if not sum(ws[:i]):
            ws[0] = 1
        vectors[i] = tuple(F(w, sum(ws)) for w in ws)
    return JumpProbabilityRule(vectors.__getitem__, order=order, name="random")


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_sampler_draws_the_words_of_the_threshold_loop(n, seed, data):
    rule = data.draw(rational_rules(n), label="rule")
    sampler = WordSampler(rule, n)
    ours, theirs = Stream(seed), Stream(seed)
    for _ in range(3):
        assert sampler.sample(ours).letters == threshold_sample(rule, n, theirs)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_sampled_compositions_carry_the_rule_order(n, seed, data):
    # labelled by the largest letter drawn, an order-3 draw of (1, 1, 2)
    # came back as s = 2 and matched no member of enumerate_compositions(4, 3)
    rule = data.draw(rational_rules(n), label="rule")
    comp = sample_composition(rule, n, Stream(seed))
    assert comp.s == rule.order
    assert comp in enumerate_compositions(n, rule.order)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_sampled_composition_is_the_reduction_of_the_sampled_word(n, seed, data):
    rule = data.draw(rational_rules(n), label="rule")
    assert (sample_composition(rule, n, Stream(seed)).parts
            == discard_map(sample_jump_word(rule, n, Stream(seed))).parts)


def test_higher_order_reduces_to_binary():
    rule2 = family_rule("involution")
    as_vec = JumpProbabilityRule(
        lambda i: (1 - rule2.two_jump(i), rule2.two_jump(i)), order=2,
        name="wrapped",
    )
    scalar = WordSampler(rule2, 12)
    vector = WordSampler(as_vec, 12)
    for seed in range(100_000):
        a = scalar.sample(Stream(seed))
        b = vector.sample(Stream(seed))
        assert a.letters == b.letters
    assert (
        sample_composition(rule2, 12, Stream(4)).parts
        == higher_order_sample(as_vec, 12, Stream(4)).parts
    )


def test_higher_order_sample_is_sample_composition():
    assert higher_order_sample is sample_composition


def test_higher_order_degenerate():
    ones = JumpProbabilityRule(lambda i: (F(1), F(0), F(0)), order=3, name="ones")
    comp = higher_order_sample(ones, 7, Stream(3))
    assert comp.parts == (1,) * 7


def test_higher_order_probabilities_sum_to_one():
    rule = JumpProbabilityRule(
        lambda i: (F(1, 2), F(1, 3), F(1, 6)), order=3, name="u3"
    )
    for n in range(1, 12):
        total = sum(
            composition_probability(rule, c) for c in enumerate_compositions(n, 3)
        )
        assert total == 1


def test_higher_order_uniform_chi_square():
    rule = JumpProbabilityRule(
        lambda i: (F(1, 3), F(1, 3), F(1, 3)), order=3, name="uniform3"
    )
    n, reps = 3, 100_000
    sampler = WordSampler(rule, n)
    counts: dict[tuple[int, ...], int] = {}
    stream = Stream(99)
    for _ in range(reps):
        parts = discard_map(sampler.sample(stream)).parts
        counts[parts] = counts.get(parts, 0) + 1
    expected = {
        c.parts: composition_probability(rule, c)
        for c in enumerate_compositions(n, 3)
    }
    assert sum(expected.values()) == 1
    assert chi_square_pvalue(counts, expected, reps) >= 0.001


def test_word_statistic_examples():
    n = len(WORKED_WORD)
    two_counters = [BernoulliSpec(F(1, 2), 1, 0) for _ in range(n)]
    assert word_statistic(two_counters, WORKED_WORD) == 5

    zeros = [BernoulliSpec(F(1, 2), 0, 0) for _ in range(n)]
    assert word_statistic(zeros, WORKED_WORD) == 0

    c = F(3, 7)
    ones_word = (1,) * 9
    specs = [BernoulliSpec(F(1, 3), 5, c) for _ in range(9)]
    assert word_statistic(specs, ones_word) == 9 * c


def test_word_statistic_index_error():
    with pytest.raises(IndexError):
        word_statistic([BernoulliSpec(F(1, 2), 1, 0)], (1, 1, 1))


def test_word_statistic_refuses_a_part_above_two():
    # a spec scores a 1-part (b) or a 2-part (a); a 3-part is neither
    with pytest.raises(ValueError, match="3-part ends at position 3"):
        word_statistic([BernoulliSpec(F(1, 2), 1, 0)] * 4, (1, 1, 3))


def test_binary_sum_moments_examples():
    m = binary_sum_moments([BernoulliSpec(F(1, 2), 1, -1)])
    assert m[1] == 0 and m[2] == 1

    n = 40
    counter = [BernoulliSpec(F(i - 1, i), 0, 1) for i in range(1, n + 1)]
    m = binary_sum_moments(counter, max_order=1)
    assert m[1] == sum(F(1, i) for i in range(1, n + 1))

    with pytest.raises(ValueError):
        binary_sum_moments(counter, max_order=5)
    for specs in (counter, []):
        with pytest.raises(ValueError, match="order must be >= 0"):
            binary_sum_moments(specs, max_order=-1)


def test_binary_sum_moments_against_enumeration():
    specs = [
        BernoulliSpec(F(1, 3), 2, -1),
        BernoulliSpec(F(1, 2), F(1, 2), F(-1, 2)),
        BernoulliSpec(F(2, 5), 3, 0),
    ]
    moments = binary_sum_moments(specs, max_order=4)
    brute = [F(0)] * 5
    for choices in product((0, 1), repeat=3):
        p = F(1)
        t = F(0)
        for spec, c in zip(specs, choices):
            p *= spec.p if c == 0 else 1 - spec.p
            t += spec.a if c == 0 else spec.b
        for r in range(5):
            brute[r] += p * t**r
    assert moments == brute


def test_scaled_absolute_bernoulli_first_moment_bound():
    # E of sum_i sqrt(n/i) |B(1/i, i/2, -1/2)| stays below 2n for n <= 200
    from math import sqrt

    for n in (10, 50, 120, 200):
        mean = sum(
            sqrt(n / i) * float(1 - F(1, 2 * i)) for i in range(1, n + 1)
        )
        assert mean <= 2 * n

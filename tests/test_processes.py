"""Jump transitions, martingale differences, simulation, reconstruction."""

import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from test_cli import peak_rss_mb
from descentlab import processes
from descentlab.compositions import (
    Composition,
    JumpProbabilityRule,
    composition_probability,
    enumerate_compositions,
    family_rule,
)
from descentlab.errors import FamilyError, InfeasibleStateError
from descentlab.families import descent_triangle, triangle_row_pmf
from descentlab.processes import (
    ProcessKind,
    ProcessState,
    _stage_law,
    _value_range,
    alpha_term,
    conditional_moment,
    exact_marginal,
    exact_means,
    gamma_factor,
    jump_distribution,
    martingale_difference_distribution,
    reconstruct,
    simulate,
)

F = Fraction

ALL_KINDS = list(ProcessKind)


def feasible_sources(kind: ProcessKind, j: int):
    """Positive-probability values at stage j, from the triangle."""
    if j == 0:
        return [0]
    if kind in (ProcessKind.DERANGEMENT, ProcessKind.EXCEDANCE) and j < 2:
        return [0]
    tri = oracles.reference_triangle(kind.family)
    row = tri.row(j)
    return [tri.k_min + idx for idx, c in enumerate(row) if c > 0]


def centered(kind: ProcessKind, i: int, order: int, value: int) -> Fraction:
    j = i - order
    if kind is ProcessKind.INVOLUTION:
        return value - F(j - 1, 2)
    if kind is ProcessKind.DERANGEMENT:
        return value - F(i - 3, 2)
    if kind is ProcessKind.EXCEDANCE:
        return value - F(i - 1, 2)
    return F(value)


def test_jump_distribution_derangement_example():
    state = ProcessState(ProcessKind.DERANGEMENT, 2, prev=1, last=1)
    dist = jump_distribution(state)
    pmf = dist.value_pmf(1, 1)
    assert pmf == {1: F(4, 9), 2: F(4, 9), 3: F(1, 9)}


def test_jump_distribution_involution_example():
    # I_1 = 0, I_2 uniform over {0, 1}: marginal of I_3 is row 3 of the triangle
    marg: dict[int, Fraction] = {}
    for last in (0, 1):
        dist = jump_distribution(ProcessState(ProcessKind.INVOLUTION, 1, 0, last))
        for v, p in dist.value_pmf(0, last).items():
            marg[v] = marg.get(v, F(0)) + p * F(1, 2)
    assert marg == {0: F(1, 4), 1: F(1, 2), 2: F(1, 4)}


def test_jump_distribution_fibonacci_weights():
    state = ProcessState(ProcessKind.FIBONACCI, 7, 2, 3)
    dist = jump_distribution(state)
    assert dist.two_jump_probability() == F(21, 55)  # f_7 / f_9
    assert sum(p for _, _, p in dist.entries) == 1


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_jump_probabilities_sum_to_one_everywhere(kind):
    # all states for small n; boundary and midrange states up to n = 299
    for n in range(kind.n_min, 16):
        for prev in feasible_sources(kind, n):
            for last in feasible_sources(kind, n + 1):
                dist = jump_distribution(ProcessState(kind, n, prev, last))
                assert sum(p for _, _, p in dist.entries) == 1
    for n in (40, 150, 299):
        sources = feasible_sources(kind, n)
        targets = feasible_sources(kind, n + 1)
        picks = lambda vals: {vals[0], vals[len(vals) // 2], vals[-1]}
        for prev in picks(sources):
            for last in picks(targets):
                dist = jump_distribution(ProcessState(kind, n, prev, last))
                assert sum(p for _, _, p in dist.entries) == 1


def test_jump_distribution_guards():
    with pytest.raises(InfeasibleStateError):
        ProcessState(ProcessKind.INVOLUTION, 4, prev=7, last=0)
    with pytest.raises(FamilyError):
        jump_distribution(ProcessState(ProcessKind.DERANGEMENT, 0, 0, 0))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_exact_marginal_matches_triangle(kind):
    tri = descent_triangle(kind.family, 9)
    for n in range(kind.n_min, 10):
        assert exact_marginal(kind, n) == triangle_row_pmf(tri, n)


def _increment_law(kind: ProcessKind, m: int, order: int, src: int):
    """Law of the increment of an order-``order`` jump into stage m from the
    value ``src``: ``jump_distribution`` conditioned on the jump type."""
    # the law depends on the jump's own source only: take 0 at the other one
    state = ProcessState(kind, m - 2, src if order == 2 else 0,
                         src if order == 1 else 0)
    name = "prev" if order == 2 else "last"
    entries = [(inc, p) for s, inc, p in jump_distribution(state).entries if s == name]
    p_type = sum(p for _, p in entries)
    return {inc: p / p_type for inc, p in entries}


def test_exact_marginal_agrees_with_path_enumeration():
    # literal path expansion over all branch choices, involutions at n = 6
    kind = ProcessKind.INVOLUTION
    marg: dict[int, Fraction] = {}

    def walk(m, prev, last, prob):
        if m > 6:
            marg[last] = marg.get(last, F(0)) + prob
            return
        dist = jump_distribution(ProcessState(kind, m - 2, prev, last))
        for src, inc, q in dist.entries:
            if q:
                val = (prev if src == "prev" else last) + inc
                walk(m + 1, last, val, prob * q)

    for last, q in _increment_law(kind, 2, 1, 0).items():  # value at stage 2
        walk(3, 0, last, q)
    pmf = exact_marginal(kind, 6)
    assert marg == {k: w for k, w in pmf.items() if w}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), n=st.integers(1, 14))
def test_exact_marginal_equals_the_pair_expansion(kind, n):
    n = max(n, kind.n_min)
    assert exact_marginal(kind, n) == oracles.pair_marginal(kind, n)


def test_exact_marginal_is_quadratic_not_a_pair_expansion():
    # on 2 vCPUs the pair expansion took about 16 s, the closure 0.006 s
    import time

    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        exact_marginal("involution", 80)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.1


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_wrong_stage_law_makes_the_closure_raise(kind, fresh_tables):
    # one more two-jump numerator at stage 9: the closure's rows no longer
    # divide into the class sizes
    laws = fresh_tables[kind].laws.through(12)
    laws[9] = laws[9]._replace(two_num=laws[9].two_num + 1)
    with pytest.raises(ArithmeticError, match="stage 9"):
        exact_marginal(kind, 12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stage_laws_equal_the_hand_written_laws(kind):
    # the law read off the term table against each kind's law written out
    # by hand, at every stage to 400 and every value a jump's source may take
    for m in range(kind.start[0], 401):
        law, ref = _stage_law(kind, m), oracles.reference_stage_law(kind, m)
        assert (law.two_num, law.den, law.threshold) == (ref.two_num, ref.den, ref.threshold)
        for lag, jump, expected in ((2, law.two, ref.two), (1, law.one, ref.one)):
            assert jump.base == expected.base and len(jump.cums) == len(expected.cums)
            if not jump.cums:  # deterministic: no draw reads its den
                continue
            assert jump.den == expected.den
            lo, hi = _value_range(kind, m - lag)
            sources = range(lo, hi + 1)
            for cum, ref_cum in zip(jump.cums, expected.cums):
                assert [cum(s) for s in sources] == [ref_cum(s) for s in sources]


# ---------------------------------------------------------------------------
# martingale differences
# ---------------------------------------------------------------------------

def test_involution_one_jump_display_example():
    dist = martingale_difference_distribution("involution", 4, 1, F(1, 2))
    assert dist.outcomes == (
        (F(1, 2) - 2, F(1, 2) + F(1, 8)),
        (F(1, 2) + 2, F(1, 2) - F(1, 8)),
    )


def test_derangement_two_jump_second_moment_closed_form():
    for i in range(4, 20):
        for value in feasible_sources(ProcessKind.DERANGEMENT, i - 2):
            w = centered(ProcessKind.DERANGEMENT, i, 2, value)
            assert conditional_moment("derangement", i, 2, w, 2) == F(i - 1, 2) ** 2 - w * w


def test_conditional_moment_trivial_examples():
    assert conditional_moment("involution", 9, 1, 0, 2) == F(81, 4)
    assert conditional_moment("derangement", 9, 1, 0, 4) == F(8, 2) ** 4
    i = 7
    w = F(3, 2)
    assert conditional_moment("involution", i, 2, w, 2) == (
        F(i * (i - 1), 2) + F(2 * i * (i - 2), i - 1) - F(2 * (i - 2), i - 1) * w * w
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("order", [1, 2])
def test_zero_mean_and_closed_form_moments(kind, order):
    lo = 2 if kind.composition_offset == 0 else order + 2
    for i in range(lo, 26):
        for value in feasible_sources(kind, i - order):
            w = centered(kind, i, order, value)
            dist = martingale_difference_distribution(kind, i, order, w)
            assert dist.mean() == 0
            assert sum(p for _, p in dist.outcomes) == 1
            for r in (2, 3, 4):
                closed = oracles.closed_form_moment(kind, i, order, w, r)
                assert dist.moment(r) == closed
                assert conditional_moment(kind, i, order, w, r) == closed


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), order=st.sampled_from([1, 2]),
       data=st.data())
def test_derived_moments_match_the_closed_forms(kind, order, data):
    # a source in the row support, or a rational w strictly between two
    # support values, which no run attains but whose law is still feasible
    lo = 2 if kind.composition_offset == 0 else order + 2
    i = data.draw(st.integers(lo, 300), label="i")
    sources = feasible_sources(kind, i - order)
    value = data.draw(st.sampled_from(sources), label="source")
    w = centered(kind, i, order, value)
    if value < sources[-1] and data.draw(st.booleans(), label="between"):
        den = data.draw(st.integers(2, 64), label="den")
        w += F(data.draw(st.integers(1, den - 1), label="num"), den)
    dist = martingale_difference_distribution(kind, i, order, w)
    assert dist.mean() == 0
    for r in (2, 3, 4):
        closed = oracles.closed_form_moment(kind, i, order, w, r)
        assert conditional_moment(kind, i, order, w, r) == closed
        assert dist.moment(r) == closed


def part_jump(kind, i, order):
    """The jump that ends a part of the given order at stage i, or None for
    the first part of a run from stage 0, which precedes the first update."""
    if i < kind.start[0]:
        return None
    law = _stage_law(kind, i)
    return law.two if order == 2 else law.one


def branch_law(kind, i, order, src, jump):
    """(difference, weight) of every branch of a random jump, by the
    per-kind branch formula."""
    return [(oracles.branch_difference(kind, i, order, src, src + inc), weight)
            for inc, weight in jump.increments(src)]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_difference_laws_equal_the_branch_formula(kind):
    # every stage up to 150 and every value the source stage may take,
    # zero-weight branches included
    for order in (1, 2):
        for i in range(kind.composition_offset + order, 151):
            jump = part_jump(kind, i, order)
            if jump is None or not jump.cums:
                continue
            lo, hi = _value_range(kind, i - order)
            for src in range(lo, hi + 1):
                assert (processes._difference_law(kind, i, order, src)
                        == branch_law(kind, i, order, src, jump))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), order=st.sampled_from([1, 2]),
       data=st.data())
def test_difference_laws_equal_the_branch_formula_between_support_values(
        kind, order, data):
    # a rational source strictly between two support values, which no run
    # attains; a deterministic jump's law is the point mass 0 there too
    lo = 2 if kind.composition_offset == 0 else order + 2
    i = data.draw(st.integers(lo, 300), label="i")
    sources = feasible_sources(kind, i - order)
    assume(len(sources) > 1)
    value = data.draw(st.sampled_from(sources[:-1]), label="source")
    den = data.draw(st.integers(2, 64), label="den")
    src = value + F(data.draw(st.integers(1, den - 1), label="num"), den)
    jump = part_jump(kind, i, order)
    expected = branch_law(kind, i, order, src, jump) if jump.cums else [(0, jump.den)]
    assert processes._difference_law(kind, i, order, src) == expected


def test_infeasible_w_rejected():
    with pytest.raises(InfeasibleStateError):
        martingale_difference_distribution("involution", 6, 1, F(7, 2))
    with pytest.raises(InfeasibleStateError):
        martingale_difference_distribution("derangement", 6, 2, F(99))
    with pytest.raises(InfeasibleStateError):
        conditional_moment("involution", 6, 1, F(7, 2), 2)
    with pytest.raises(InfeasibleStateError):
        martingale_difference_distribution("fibonacci", 5, 1, 99)
    with pytest.raises(InfeasibleStateError):
        martingale_difference_distribution("excedance", 6, 2, -40)
    with pytest.raises(ValueError):
        conditional_moment("involution", 6, 1, 0, 5)


# ---------------------------------------------------------------------------
# adjustment terms and factors
# ---------------------------------------------------------------------------

def test_alpha_term_examples():
    means = exact_means(ProcessKind.DERANGEMENT, 60)
    assert means[4] == F(5, 3) and means[3] == 1
    assert alpha_term("derangement", 4, 1, means) == -1
    # order-1 terms approach -1/2, order-2 terms approach (i-1)/2
    for i in range(8, 61):
        a1 = alpha_term("derangement", i, 1, means)
        assert abs(a1 + F(1, 2)) < F(2, i)
        a2 = alpha_term("derangement", i, 2, means)
        assert abs(a2 - F(i - 1, 2)) < F(2, i)


def test_gamma_factor_examples():
    ones = Composition((1,) * 6)
    for i in range(1, 7):
        assert gamma_factor(ones, i) == 1

    assert gamma_factor(Composition((1, 1, 2)), 1) == F(4, 3)

    n = 12
    all_twos = Composition((2,) * (n // 2))
    expect = F(1)
    for k in range(1, n // 2 + 1):
        expect *= F(2 * k, 2 * k - 1)
    assert gamma_factor(all_twos, 1) == expect

    with pytest.raises(IndexError):
        gamma_factor(ones, 7)


def test_gamma_factor_bounds():
    # gamma(i)^2 <= total/i at every part boundary of every composition of
    # n <= 12 (every counted 2-part then ends at position >= i+2)
    for n in range(2, 13):
        for comp in enumerate_compositions(n):
            for i in comp.positions():
                g = gamma_factor(comp, i)
                assert g * g <= F(n, i)
    # Wallis-style cap on the extreme composition
    from math import pi, sqrt

    for n in range(2, 401, 2):
        g = gamma_factor(Composition((2,) * (n // 2)), 1)
        assert float(g) <= sqrt(pi * n / 2) * (1 + 1 / (2 * n))


# ---------------------------------------------------------------------------
# simulation and reconstruction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_simulate_deterministic_and_replayable(kind):
    t1 = simulate(kind, 30, seed=42, record=True)
    t2 = simulate(kind, 30, seed=42, record=True)
    assert t1 == t2
    assert t1.steps[-1][2] == t1.final
    vals = t1.values()
    assert vals[30] == t1.final
    t3 = simulate(kind, 30, seed=43)
    assert t3.steps != t1.steps


def test_fibonacci_small_values():
    seen = set()
    for seed in range(200):
        seen.add(simulate("fibonacci", 2, seed).final)
    assert seen == {0, 1}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_steps_replay_consistently(kind):
    # every step's value must follow from its recorded source and jump order
    bounds = {
        ProcessKind.INVOLUTION: {1: (0, 1), 2: (0, 2)},
        ProcessKind.DERANGEMENT: {1: (0, 1), 2: (1, 2)},
        ProcessKind.FIBONACCI: {1: (0, 0), 2: (1, 1)},
        ProcessKind.EXCEDANCE: {1: (0, 1), 2: (1, 1)},
    }[kind]
    for seed in range(50):
        traj = simulate(kind, 25, seed=seed)
        vals = dict(traj.initial)
        for stage, order, value in traj.steps:
            lo, hi = bounds[order]
            assert lo <= value - vals[stage - order] <= hi
            vals[stage] = value
        assert vals[traj.n] == traj.final


def test_recorded_composition_law_matches_shifted_product_rule():
    # exhaustive fiber sums of the derangement word process equal the product
    # rule with the stage-shifted two-jump probabilities
    from itertools import product as iproduct

    from descentlab.compositions import (
        Composition,
        JumpProbabilityRule,
        composition_probability,
        discard_map,
        enumerate_compositions,
        family_rule,
    )

    der = family_rule("derangement")
    n = 10  # process size; stage words cover 3..n
    fiber: dict[tuple[int, ...], F] = {}
    for tail in iproduct((1, 2), repeat=n - 3):
        word = (1,) + tail  # stage 3 is a forced one-jump
        prob = F(1)
        for offset, letter in enumerate(word):
            m = offset + 3
            q = der.two_jump(m)
            prob *= q if letter == 2 else 1 - q
        parts = discard_map(word).parts
        fiber[parts] = fiber.get(parts, F(0)) + prob
    shifted = JumpProbabilityRule(lambda p: der.two_jump(p + 2), name="shifted")
    for comp in enumerate_compositions(n - 2):
        assert fiber.get(comp.parts, F(0)) == composition_probability(shifted, comp)
    assert sum(fiber.values()) == 1


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_process_law_factors_over_the_composition_parts(kind):
    # the words the process draws, weighed by its own stage laws, sum over
    # each discard image to the product rule of the stage-shifted split
    offset = kind.composition_offset
    rule = family_rule(kind.family)
    shifted = JumpProbabilityRule(lambda p: rule.two_jump(p + offset), name="shifted")
    for n in range(kind.start[0], 15):
        fibers = oracles.process_word_fibers(kind, n)
        assert sum(fibers.values()) == 1
        for comp in enumerate_compositions(n - offset):
            assert fibers.get(comp.parts, F(0)) == composition_probability(shifted, comp)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_reconstruction_residual_zero(kind):
    for seed in range(200):
        traj = simulate(kind, 40, seed=seed, record=True)
        assert reconstruct(traj) == 0
        assert sum(traj.decomposition.composition) == 40 - kind.composition_offset


def test_a_recorded_run_past_the_digit_limit_reconstructs():
    # derangement alphas pass 4300 digits, CPython's default limit on an
    # int-to-text conversion, from stage 861 on; the library formats none
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        traj = simulate("derangement", 900, 0, record=True)
        assert reconstruct(traj) == 0
        assert max(abs(p.alpha.numerator) for p in traj.decomposition.parts) > 10**4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_recorded_run_at_n_900_builds_no_rows():
    # its exact means come from the store's power sums, not from a triangle
    # (the whole derangement triangle to 900 held about 250 MB)
    code = """
from descentlab import families, processes
def refuse(*args):
    raise SystemExit("a row was built")
families._next_row = refuse
traj = processes.simulate("derangement", 900, 0, record=True)
if processes.reconstruct(traj) != 0:
    raise SystemExit("nonzero residual")
"""
    assert peak_rss_mb(sys.executable, "-c", code) < 60


def test_reconstruct_requires_decomposition():
    traj = simulate("involution", 10, seed=0, record=False)
    with pytest.raises(ValueError):
        reconstruct(traj)


def test_fibonacci_decomposition_shape():
    # a run whose composition matches the reference reduction, found by seed scan
    target = (2, 1, 2, 2, 1, 2, 2)
    for seed in range(2000):
        traj = simulate("fibonacci", 12, seed=seed, record=True)
        if traj.decomposition.composition == target:
            assert len(traj.decomposition.parts) == 7
            assert traj.final == 5  # five 2-parts = five descents
            assert reconstruct(traj) == 0
            break
    else:
        pytest.fail("no seed produced the target composition")


def test_simulate_domain_error():
    with pytest.raises(FamilyError):
        simulate("derangement", 1, seed=0)


# ---------------------------------------------------------------------------
# variance decomposition conditional on a composition (involutions)
# ---------------------------------------------------------------------------

def _conditional_sum_moments(comp):
    """Exact path expansion of the involution run pinned to a composition.

    Returns (E[S], E[S^2], per-part second moments via closed forms), where
    S is the sum of the differences along the composition's parts.
    """
    kind = ProcessKind.INVOLUTION
    # paths: (value at covered prefix end, accumulated sum, probability)
    paths = [(0, F(0), F(1))]
    closed_second = []
    for pos, size in comp.position_pairs():
        m = pos
        nxt = []
        part_m2 = F(0)
        for value, acc, prob in paths:
            w = value - F(m - size - 1, 2)
            part_m2 += prob * conditional_moment(kind, m, size, w, 2)
            if m == 1:  # initial one-jump, difference identically zero
                nxt.append((0, acc, prob))
                continue
            for delta, p in _increment_law(kind, m, size, value).items():
                if p == 0:
                    continue
                new_value = value + delta
                if size == 1:
                    x = w - F(m, 2) if delta == 0 else w + F(m, 2)
                else:
                    x = 2 * w + (delta - 1) * m
                nxt.append((new_value, acc + x, p * prob))
        paths = nxt
        closed_second.append(part_m2)
    mean = sum(p * s for _, s, p in paths)
    second = sum(p * s * s for _, s, p in paths)
    return mean, second, closed_second


def test_variance_decomposition_and_total_variance():
    from descentlab.compositions import (
        composition_probability,
        enumerate_compositions,
        family_rule,
    )
    from descentlab.families import descent_triangle, triangle_row_pmf

    rule = family_rule("involution")
    for n in range(2, 11):
        total = F(0)
        for comp in enumerate_compositions(n):
            mean, second, closed = _conditional_sum_moments(comp)
            assert mean == 0
            # orthogonal differences: Var(S|a) splits over the parts, and the
            # per-part terms match the closed-form conditional moments
            assert second == sum(closed)
            total += second * composition_probability(rule, comp)
        # law of total expectation: E[Z_n^2] over compositions
        var = triangle_row_pmf(descent_triangle("involution", n), n).variance()
        assert total == n * n * var


# ---------------------------------------------------------------------------
# properties over kind, size, seed and stream index
# ---------------------------------------------------------------------------

kinds = st.sampled_from(ALL_KINDS)
seeds = st.integers(0, 2**64 - 1)
indices = st.integers(0, 2**64 - 1)


@settings(max_examples=80, deadline=None)
@given(kind=kinds, n=st.integers(2, 40), seed=seeds, index=indices)
def test_recorded_runs_reconstruct_exactly(kind, n, seed, index):
    traj = simulate(kind, n, seed=seed, record=True, stream_index=index)
    assert reconstruct(traj) == 0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 80), seed=seeds, index=indices)
def test_recorded_gammas_equal_gamma_factor(n, seed, index):
    traj = simulate("derangement", n, seed=seed, record=True, stream_index=index)
    comp = Composition(traj.decomposition.composition)
    for part in traj.decomposition.parts:
        assert part.gamma == gamma_factor(comp, part.position)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 120), seed=seeds, index=indices)
def test_recorded_parts_share_a_gamma_exactly_when_equal(n, seed, index):
    parts = simulate("derangement", n, seed=seed, record=True,
                     stream_index=index).decomposition.parts
    for a, b in zip(parts, parts[1:]):
        assert (a.gamma is b.gamma) == (a.gamma == b.gamma)


@settings(max_examples=150, deadline=None)
@given(kind=kinds, data=st.data())
def test_jump_distribution_splits_types_as_the_law(kind, data):
    n = data.draw(st.integers(kind.start[0] - 2, 40), label="n")
    prev = data.draw(st.integers(*_value_range(kind, n)), label="prev")
    last = data.draw(st.integers(*_value_range(kind, n + 1)), label="last")
    dist = jump_distribution(ProcessState(kind, n, prev, last))
    assert sum(p for _, _, p in dist.entries) == 1
    assert all(p >= 0 for _, _, p in dist.entries)
    law = _stage_law(kind, n + 2)
    assert dist.two_jump_probability() == F(law.two_num, law.den)


# ---------------------------------------------------------------------------
# the per-kind stage table
# ---------------------------------------------------------------------------

def reference_difference(kind, i, order, values, means):
    """The difference of a recorded jump into stage i, written with the
    exact means in every term."""
    src, new = values[i - order], values[i]
    if kind is ProcessKind.INVOLUTION:
        w = src - F(i - order - 1, 2)
        if order == 1:
            return w - F(i, 2) if new == src else w + F(i, 2)
        return 2 * w + (new - src - 1) * i
    if kind is ProcessKind.FIBONACCI:
        return i * (new - means[i]) - (i - order) * (src - means[i - order])
    if kind is ProcessKind.DERANGEMENT:
        low = new == src + (1 if order == 2 else 0)
        return F(src - i + 2) if low else F(src + 1)
    if order == 2:
        return 2 * (src - means[i - 2])
    return F(src - i + 1) if new == src else F(src)


@settings(max_examples=60, deadline=None)
@given(kind=kinds, n=st.integers(2, 120), seed=seeds, index=indices)
def test_recorded_parts_equal_the_reference_definitions(kind, n, seed, index):
    traj = simulate(kind, n, seed=seed, record=True, stream_index=index)
    means = exact_means(kind, n)
    values = traj.values()
    comp = Composition(traj.decomposition.composition)
    derangement = kind is ProcessKind.DERANGEMENT
    for part in traj.decomposition.parts:
        assert part.stage == part.position + kind.composition_offset
        assert part.alpha == alpha_term(kind, part.stage, part.size, means)
        # only derangement runs carry factors; the others' are identically 1
        gamma = gamma_factor(comp, part.position) if derangement else 1
        assert part.gamma == gamma
        assert part.x == reference_difference(kind, part.stage, part.size, values, means)
        assert type(part.x) is Fraction


@settings(max_examples=80, deadline=None)
@given(kind=kinds, n=st.integers(2, 120), seed=seeds, index=indices)
def test_recorded_parts_are_positive_weight_branches_of_their_jumps(kind, n, seed, index):
    # a part's d is read off its stage's constants, so a zero residual does
    # not show that the part is a jump the run took; this pins it
    traj = simulate(kind, n, seed=seed, record=True, stream_index=index)
    values = traj.values()
    orders = {stage: order for stage, order, _ in traj.steps}
    for j, part in enumerate(traj.decomposition.parts):
        i, size = part.stage, part.size
        jump = part_jump(kind, i, size)
        if jump is None:  # the fixed one-jump into stage 1 of a run from stage 0
            assert (j, part.position, i, size) == (0, 1, 1, 1)
            assert values[0] == values[1] == 0
            continue
        assert orders[i] == size
        law = _stage_law(kind, i)
        assert (law.two_num if size == 2 else law.den - law.two_num) > 0
        src, new = values[i - size], values[i]
        assert dict(jump.increments(src)).get(new - src, 0) > 0


@settings(max_examples=120, deadline=None)
@given(kind=kinds, n=st.integers(1, 120), seed=seeds, index=indices)
@example(kind=ProcessKind.INVOLUTION, n=1, seed=0, index=0)  # a run with no update
def test_simulate_draws_the_runs_of_the_per_draw_stage_loop(kind, n, seed, index):
    n = max(n, kind.n_min)
    for record in (False, True):
        traj = simulate(kind, n, seed=seed, record=record, stream_index=index)
        assert (traj.steps, traj.final) == oracles.stage_loop(kind, n, seed, index)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_the_type_threshold_is_where_the_exact_test_flips(kind):
    # u < threshold takes the two-jump exactly when u * den < two_num * 2**64
    for m in range(kind.start[0], 401):
        law = _stage_law(kind, m)
        t = law.threshold
        assert 0 <= t < 2**64
        assert law.two_num * 2**64 <= t * law.den
        if t:  # u = t - 1 takes the two-jump, u = t does not
            assert (t - 1) * law.den < law.two_num * 2**64
        else:  # no draw takes a two-jump
            assert law.two_num == 0


@pytest.fixture
def fresh_tables():
    """Empty stage tables for every kind for the test's duration, swapped
    into the one table dict in place, since the batch engine holds it too."""
    saved = dict(processes._TABLES)
    processes._TABLES.update({kind: processes._StageTable(kind) for kind in ProcessKind})
    yield processes._TABLES
    processes._TABLES.update(saved)


def law_summary(law):
    """A stage law's numbers, with each cumulative numerator evaluated at a
    few sources (the numerators are functions, which compare by identity)."""
    if law is None:
        return None
    return (law.two_num, law.den) + tuple(
        (jump.base, jump.den, tuple(cum(s) for cum in jump.cums for s in range(4)))
        for jump in (law.two, law.one))


def test_one_stage_table_per_kind_whatever_the_sizes_asked(fresh_tables):
    for n in (10, 300, 50):
        for kind in ProcessKind:
            assert reconstruct(simulate(kind, n, seed=n, record=True)) == 0
    from descentlab import batch

    assert batch._TABLES is processes._TABLES and set(fresh_tables) == set(ProcessKind)
    for kind, table in fresh_tables.items():
        assert len(table.laws) == 301 and len(table.parts) == 301
        first = kind.start[0]
        assert table.laws[:first] == [None] * first
        assert [law_summary(table.laws[m]) for m in (first, 77, 300)] == [
            law_summary(_stage_law(kind, m)) for m in (first, 77, 300)]
    assert not any(hasattr(obj, "cache_info") for obj in vars(processes).values())


def test_plain_runs_build_no_part_constants(fresh_tables):
    from descentlab.batch import batch_finals

    kind = ProcessKind.DERANGEMENT
    for run in (lambda: simulate(kind, 40, seed=1),
                lambda: batch_finals(kind, 40, 8, 1)):
        table = fresh_tables[kind] = processes._StageTable(kind)
        run()
        assert len(table.laws) == 41 and len(table.parts) == 3  # the placeholders


def test_concurrent_table_growth_matches_a_fresh_build(fresh_tables):
    expected = {kind: processes._StageTable(kind) for kind in ProcessKind}
    for table in expected.values():
        table.laws.through(90)
        table.parts.through(90)
    errors = []

    def grow(sizes):
        try:
            for m in sizes:
                for kind in ProcessKind:
                    simulate(kind, m, seed=m, record=True)
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
    for kind, table in fresh_tables.items():
        assert table.parts == expected[kind].parts
        assert ([law_summary(law) for law in table.laws]
                == [law_summary(law) for law in expected[kind].laws])


def test_a_recorded_decomposition_builds_its_parts_when_read():
    import pickle

    traj = simulate("derangement", 40, seed=2, record=True)
    copy = pickle.loads(pickle.dumps(traj))
    dec = traj.decomposition
    assert "parts" not in vars(dec) and not hasattr(dec, "missing")
    assert reconstruct(copy) == 0 and "parts" not in vars(copy.decomposition)
    assert copy.decomposition == dec == processes.Decomposition(dec.composition,
                                                                dec.parts)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_reconstruct_reports_a_corrupted_part_exactly(kind):
    traj = simulate(kind, 30, seed=3, record=True)
    dec = traj.decomposition
    parts = list(dec.parts)
    for j, bump in ((0, F(1)), (len(parts) // 2, F(1, 7)), (len(parts) - 1, F(-2))):
        changed = list(parts)
        changed[j] = parts[j]._replace(x=parts[j].x + bump)
        bad = traj._replace(decomposition=processes.Decomposition(dec.composition,
                                                                  tuple(changed)))
        assert reconstruct(bad) == -parts[j].gamma * bump


@st.composite
def corruptions(draw, parts):
    """None, or (part index, what to corrupt, by how much) for one part."""
    if not parts or draw(st.booleans(), label="clean"):
        return None
    j = draw(st.integers(0, len(parts) - 1), label="part")
    what = draw(st.sampled_from(["x", "alpha", "fresh alpha", "gamma", "size", "drop"]),
                label="what")
    if what == "size":
        return j, what, draw(st.integers(0, 3).filter(lambda s: s != parts[j].size))
    return j, what, draw(st.fractions(max_denominator=12).filter(bool), label="bump")


def corrupted(traj, corruption):
    """The run with one part's x, alpha or gamma bumped, its alpha swapped
    for an equal-valued fresh Fraction, its size changed, or the part
    dropped."""
    if corruption is None:
        return traj
    j, what, change = corruption
    parts = list(traj.decomposition.parts)
    p = parts[j]
    if what == "drop":
        del parts[j]
    elif what == "fresh alpha":
        parts[j] = p._replace(alpha=F(p.alpha.numerator, p.alpha.denominator))
    elif what == "size":
        parts[j] = p._replace(size=change)
    else:
        parts[j] = p._replace(**{what: getattr(p, what) + change})
    return traj._replace(decomposition=processes.Decomposition(
        traj.decomposition.composition, tuple(parts)))


@settings(max_examples=200, deadline=None)
@given(kind=kinds, n=st.integers(2, 120), seed=seeds, index=indices, data=st.data())
@example(kind=ProcessKind.DERANGEMENT, n=2, seed=0, index=0, data=None)
@example(kind=ProcessKind.EXCEDANCE, n=2, seed=0, index=0, data=None)
def test_reconstruct_equals_the_full_sum(kind, n, seed, index, data):
    traj = simulate(kind, n, seed=seed, record=True, stream_index=index)
    corruption = data.draw(corruptions(traj.decomposition.parts)) if data else None
    bad = corrupted(traj, corruption)
    assert reconstruct(bad) == oracles.full_sum_residual(bad)
    if corruption is None:
        assert reconstruct(traj) == 0


def test_part_constants_check_raises_on_a_corrupted_mean(monkeypatch):
    from descentlab.families import _STORES, Family, _Store

    # an involution part's c is i mu_i - (i - order) mu_{i-order}, so its
    # constants pin the means; for the other kinds the check is an identity
    # in the means and pins the adjustments and shifts instead (below)
    store = _Store(Family.INVOLUTION)
    store.means.through(9)
    store.means[7] += F(1, 3)
    monkeypatch.setitem(_STORES, Family.INVOLUTION, store)
    table = processes._StageTable(ProcessKind.INVOLUTION)
    table.parts.through(6)
    with pytest.raises(ArithmeticError, match="stage 7 do not telescope"):
        table.parts.through(7)


def test_part_constants_check_raises_on_a_wrong_adjustment(monkeypatch):
    real = processes.alpha_term

    def alpha_off_at_stage_7(kind, i, order, mu):
        return real(kind, i, order, mu) + (i == 7)

    monkeypatch.setattr(processes, "alpha_term", alpha_off_at_stage_7)
    table = processes._StageTable(ProcessKind.DERANGEMENT)
    table.parts.through(6)
    with pytest.raises(ArithmeticError, match="order-1 part constants at stage 7"):
        table.parts.through(7)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_reconstruct_sums_parts_of_the_wrong_size_in_full(kind):
    traj = simulate(kind, 30, seed=3, record=True)
    parts = traj.decomposition.parts
    one = next(j for j, p in enumerate(parts) if p.size == 1)
    last = len(parts) - 1
    # a 1-part grown to 2 makes the parts overrun the run's first stage
    for j, size in ((one, 2), (0, 3), (last, 0), (last, 3 - parts[last].size)):
        bad = corrupted(traj, (j, "size", size))
        assert reconstruct(bad) == oracles.full_sum_residual(bad)

"""The vectorized batch engine must match the scalar simulator draw-for-draw."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descentlab.batch import _gates, _stage_table, batch_finals
from descentlab.processes import (
    Jump,
    ProcessKind,
    StageLaw,
    _stage_law,
    _value_range,
    exact_marginal,
    simulate,
)
from descentlab.rng import MASK64, TWO64

from mc import chi_square_pvalue
from oracles import gate_finals


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_batch_matches_scalar_engine(kind):
    n, reps, seed = 23, 1500, 77
    scalar = Counter(
        simulate(kind, n, seed=seed, stream_index=r).final for r in range(reps)
    )
    assert batch_finals(kind, n, reps, seed) == dict(scalar)


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_batch_chunking_is_invisible(kind):
    n, seed = 12, 5
    whole = batch_finals(kind, n, 4000, seed)
    merged: dict[int, int] = {}
    for start, count in ((0, 1000), (1000, 2500), (3500, 500)):
        for v, c in batch_finals(kind, n, count, seed, start_index=start).items():
            merged[v] = merged.get(v, 0) + c
    assert merged == whole


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_batch_chi_square_against_exact_marginal(kind):
    n, reps = 16, 200_000
    counts = batch_finals(kind, n, reps, master_seed=31337)
    expected = {k: w for k, w in exact_marginal(kind, n).items() if w > 0}
    assert chi_square_pvalue(counts, expected, reps) >= 0.001


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_batch_chi_square_against_exact_marginal_at_n_400(kind):
    n, reps = 400, 100_000
    counts = batch_finals(kind, n, reps, master_seed=4004)
    expected = {k: w for k, w in exact_marginal(kind, n).items() if w > 0}
    assert chi_square_pvalue(counts, expected, reps) >= 0.001


def test_involution_million_replicates_small_n():
    reps = 1_000_000
    counts = batch_finals("involution", 8, reps, master_seed=424242)
    expected = {k: w for k, w in exact_marginal("involution", 8).items() if w > 0}
    assert chi_square_pvalue(counts, expected, reps) >= 0.001


def test_derangement_chi_square_at_n_64():
    from descentlab.families import descent_triangle, triangle_row_pmf

    reps = 300_000
    counts = batch_finals("derangement", 64, reps, master_seed=99)
    pmf = triangle_row_pmf(descent_triangle("derangement", 64), 64)
    expected = {k: w for k, w in pmf.items() if w > 0}
    assert chi_square_pvalue(counts, expected, reps) >= 0.001


def test_batch_small_n_edge():
    assert batch_finals("derangement", 2, 100, 0) == {1: 100}
    assert set(batch_finals("fibonacci", 2, 100, 0)) == {0, 1}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(ProcessKind)),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(-(2**65), 2**65),
    count=st.integers(1, 60),
)
# ``stream_key`` reads a stream index mod 2**64, and so must the batch engine
@example(kind=ProcessKind.INVOLUTION, n=6, seed=1, start=-3, count=10)
@example(kind=ProcessKind.INVOLUTION, n=6, seed=1, start=2**64 + 2, count=10)
def test_batch_equals_scalar_counter(kind, n, seed, start, count):
    scalar = Counter(
        simulate(kind, n, seed=seed, stream_index=r).final
        for r in range(start, start + count)
    )
    assert batch_finals(kind, n, count, seed, start_index=start) == dict(scalar)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(ProcessKind)),
    n=st.integers(1, 600),
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(-(2**65), 2**65),
    count=st.integers(1, 64),
)
@example(kind=ProcessKind.INVOLUTION, n=6, seed=1, start=-3, count=10)
@example(kind=ProcessKind.INVOLUTION, n=6, seed=1, start=2**64 + 2, count=10)
@example(kind=ProcessKind.INVOLUTION, n=600, seed=0, start=2**64 - 30, count=64)
@example(kind=ProcessKind.DERANGEMENT, n=600, seed=7, start=0, count=64)
@example(kind=ProcessKind.FIBONACCI, n=600, seed=2**64 - 1, start=-1, count=64)
@example(kind=ProcessKind.EXCEDANCE, n=600, seed=3, start=2**64, count=64)
def test_batch_equals_gate_loop(kind, n, seed, start, count):
    n = max(n, kind.n_min)
    assert (batch_finals(kind, n, count, seed, start_index=start)
            == gate_finals(kind, n, count, seed, start_index=start))


def _table_increments(law, hi1, hi2):
    """Check ``_stage_table(law, hi1, hi2)`` against ``Jump.draw`` at every
    entry, for the draws 0, t - 1, t and 2**64 - 1 of each gate's t."""
    values, gates = _stage_table(law, hi1, hi2)
    values, gates = values.tolist(), [g.tolist() for g in gates]
    assert len(values) == hi1 + hi2 + 2
    assert all(len(g) == len(values) for g in gates)
    assert len(gates) == max(len(law.one.cums), len(law.two.cums))
    for jump, hi, offset in ((law.one, hi1, 0), (law.two, hi2, hi1 + 1)):
        for src in range(hi + 1):
            edges = {0, MASK64}
            for cum in jump.cums:
                t = -(-int(cum(src)) * TWO64 // jump.den)
                edges.update(min(max(u, 0), MASK64) for u in (t - 1, t))
            i = src + offset
            for u in edges:
                got = values[i] - src + sum(u > g[i] for g in gates)
                assert got == jump.draw(src, u), (jump, src, u)


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_stage_table_equals_the_exact_draw_at_its_edges(kind):
    for m in range(kind.start[0], 151):
        _table_increments(_stage_law(kind, m), _value_range(kind, m - 1)[1],
                          _value_range(kind, m - 2)[1])


def test_stage_table_folds_zero_gates_and_never_passes_full_ones():
    den = 10
    low = np.array([0, 0, 0, 0])          # c = 0: every draw passes
    mid = np.array([0, 1, den - 1, den])
    top = np.array([den, den, den, den])  # c = den: no draw passes
    two = Jump(1, (lambda s: low[s], lambda s: mid[s], lambda s: top[s]), den)
    one = Jump(0, (lambda s: mid[s],), den)
    law = StageLaw(1, 2, 2**63, two, one)
    _table_increments(law, 3, 3)
    values, gates = _stage_table(law, 3, 3)
    # one-jump sources 0..3, then two-jump sources 0..3
    # one-jump sources 0..3, then two-jump sources 0..3; each c = 0 adds one
    assert values.tolist() == [1, 1, 2, 3, 3, 3, 4, 5]
    gates = [g.tolist() for g in gates]
    assert gates[0][:4] == gates[1][4:]  # mid, for either jump
    assert gates[0][0] == gates[0][3] == MASK64  # c = 0 and c = den
    assert MASK64 not in gates[0][1:3]
    assert gates[0][4:] == gates[2][4:] == [MASK64] * 4  # low and top
    assert gates[1][:4] == gates[2][:4] == [MASK64] * 4  # the one-jump's padding


def _exact_gate(c: int, den: int) -> tuple[int, bool]:
    t = -(-c * TWO64 // den)
    return (t - 1) & MASK64, t == 0


@pytest.mark.parametrize("kind", list(ProcessKind))
def test_stage_gates_equal_exact_ceilings(kind):
    n = 150
    for m in range(kind.start[0], n + 1):
        law = _stage_law(kind, m)
        for jump, stage in ((law.two, m - 2), (law.one, m - 1)):
            hi = _value_range(kind, stage)[1]
            gates = _gates(jump, hi)
            assert len(gates) == len(jump.cums)
            for cum, (minus_one, is_zero) in zip(jump.cums, gates):
                got = list(zip(minus_one.tolist(), is_zero.tolist()))
                assert got == [_exact_gate(cum(s), jump.den) for s in range(hi + 1)]


@settings(max_examples=200, deadline=None)
@given(den=st.integers(2, 2**32 - 1), data=st.data())
def test_gates_equal_exact_ceilings_for_any_numerators(den, data):
    nums = data.draw(st.lists(st.integers(0, den), min_size=1, max_size=16))
    table = np.array(nums, dtype=np.int64)
    [(minus_one, is_zero)] = _gates(Jump(0, (lambda s: table[s],), den), len(nums) - 1)
    got = list(zip(minus_one.tolist(), is_zero.tolist()))
    assert got == [_exact_gate(c, den) for c in nums]


def test_gate_arithmetic_preconditions_raise():
    with pytest.raises(ArithmeticError):
        _gates(Jump(0, (lambda s: s,), 2**32), 3)
    with pytest.raises(ArithmeticError):
        _gates(Jump(0, (lambda s: s + 2,), 4), 3)
    assert _gates(Jump(1, (), 1), 3) == []

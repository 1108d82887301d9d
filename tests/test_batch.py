"""The vectorized batch engine must match the scalar simulator draw-for-draw."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab.batch import _gates, batch_finals
from descentlab.processes import (
    Jump,
    ProcessKind,
    _stage_law,
    _value_range,
    exact_marginal,
    simulate,
)
from descentlab.rng import MASK64, TWO64

from mc import chi_square_pvalue


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
    start=st.integers(0, 2**64 - 64),
    count=st.integers(1, 60),
)
def test_batch_equals_scalar_counter(kind, n, seed, start, count):
    scalar = Counter(
        simulate(kind, n, seed=seed, stream_index=r).final
        for r in range(start, start + count)
    )
    assert batch_finals(kind, n, count, seed, start_index=start) == dict(scalar)


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

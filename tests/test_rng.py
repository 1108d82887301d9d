"""Counter-based stream determinism, the 64-bit mixer, its lane-packed
block and the exact draw."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from descentlab.rng import GOLDEN, Jump, Stream, mix64
from oracles import product_draw


def test_streams_reproducible_and_independent():
    a = [Stream(1, 0).next_u64() for _ in range(5)]
    b = [Stream(1, 0).next_u64() for _ in range(5)]
    assert a == b
    c = [Stream(1, 1).next_u64() for _ in range(5)]
    d = [Stream(2, 0).next_u64() for _ in range(5)]
    assert a != c and a != d


def test_stream_is_counter_based():
    s = Stream(99, 4)
    outs = [s.next_u64() for _ in range(10)]
    # skipping ahead reproduces the tail: outputs depend only on the counter
    t = Stream(99, 4)
    for _ in range(7):
        t.next_u64()
    assert t.next_u64() == outs[7]


def test_mix64_is_64_bit():
    for z in (0, 1, 2**63, 2**64 - 1, 123456789):
        assert 0 <= mix64(z) < 2**64


def _stream(key: int, start: int) -> Stream:
    """A stream with the given key whose next output is output ``start``."""
    stream = Stream(0)
    stream._key, stream._counter = key, start
    return stream


keys = st.integers(0, 2**64 - 1)


@settings(max_examples=300, deadline=None)
@given(key=keys, start=st.one_of(st.integers(0, 2**16), st.integers(0, 2**80)),
       count=st.integers(0, 600))
@example(key=0, start=0, count=0)
@example(key=0, start=2**64, count=5)
@example(key=2**64 - 1, start=2**64 - 1, count=600)
@example(key=2**64 - 1, start=3 * 2**64 + 7, count=3)
@example(key=1, start=2**80, count=2)  # unmasked, start * GOLDEN would cross a lane
def test_block_equals_the_finalizer_per_output(key, start, count):
    stream = _stream(key, start)
    assert stream.block(count) == [mix64(key + (start + j) * GOLDEN) for j in range(count)]
    assert stream._counter == start + count


@settings(max_examples=100, deadline=None)
@given(key=keys, calls=st.lists(st.one_of(st.none(), st.integers(0, 40)), max_size=12))
def test_blocks_and_single_outputs_interleave_on_one_stream(key, calls):
    # ``None`` is one ``next_u64``; a number is a block of that many outputs
    stream, drawn = _stream(key, 0), []
    for call in calls:
        drawn += [stream.next_u64()] if call is None else stream.block(call)
    assert drawn == [mix64(key + j * GOLDEN) for j in range(len(drawn))]
    assert stream.next_u64() == mix64(key + len(drawn) * GOLDEN)


def test_a_smaller_block_after_a_larger_one_keeps_its_outputs():
    # the lane constants are kept for the largest block and cut to each count
    big, small = Stream(5, 1), Stream(5, 1)
    assert big.block(500)[:3] == small.block(3)
    assert small.block(1) == [Stream(5, 1).block(4)[3]]


@st.composite
def jumps(draw):
    """A jump with constant cumulative numerators over a denominator that
    may exceed 2**32, as a word sampler's totals do."""
    den = draw(st.one_of(st.integers(1, 50), st.integers(2**32, 2**80)))
    cums = sorted(draw(st.lists(st.integers(0, den), max_size=4)))
    return Jump(draw(st.integers(0, 2)), tuple((lambda _, c=c: c) for c in cums), den)


draws = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


@settings(max_examples=400, deadline=None)
@given(jump=jumps(), u=draws)
def test_the_quotient_draw_equals_the_product_test(jump, u):
    assert jump.draw(0, u) == product_draw(jump, 0, u)


@settings(max_examples=200, deadline=None)
@given(jump=jumps())
def test_the_quotient_draw_flips_where_the_product_test_does(jump):
    # just below and at the smallest u of each outcome past the first
    for cum in jump.cums:
        edge = -(-cum(0) * 2**64 // jump.den)
        for u in (edge - 1, edge):
            if 0 <= u < 2**64:
                assert jump.draw(0, u) == product_draw(jump, 0, u)

"""Counter-based pseudo-random streams for reproducible parallel sampling.

A stream is a pure function of (master_seed, stream_index, counter): output j
is the SplitMix64 finalizer applied to ``key + j * GOLDEN``.  Replicates of a
Monte Carlo run each own an independent stream derived from the master seed
and the replicate index, so chunked or parallel execution draws exactly the
same numbers as a serial run.

A scalar run takes its outputs as one block (``Stream.block``): output j
sits in the low half of the 128-bit lane j of one Python integer, so each
step of the finalizer acts on every lane at once.  A 64-bit multiply of a
lane stays below 2**128 and never carries into the next lane, and a lane
mask after each xor-shift drops the bits that the shift pulled in from the
lane above.  The lane constants are kept once, for the largest block asked
so far, and cut down to each smaller count.

The constants and the key derivation live here once; the batch engine applies
them to uint64 arrays, whose arithmetic wraps without the masks used here.
So does the exact draw of the processes and the word sampler, ``Jump.draw``:
one output u picks an outcome by the test ``u * den < c * 2**64``, read as
``(u * den) >> 64 < c`` for an integer c; a stage's type draw reads it as
``u < t`` with t = ceil(c * 2**64 / den), stored once per stage.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_SHIFTS = (30, 27, 31)
MIX_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

TWO64 = 1 << 64

_S1, _S2, _S3 = MIX_SHIFTS
_M1, _M2 = MIX_MULTIPLIERS

# (lanes, one per lane, j * GOLDEN in lane j, MASK64 in every lane) for the
# largest block asked so far.  Each call reads one consistent tuple, so a
# race between threads at worst builds the constants again.
_LANES = (0, 0, 0, 0)
# In a block's bytes in native order, lane j's low 64-bit word is word 2j
# (little endian) or word 2j counted back from the last (big endian).
_LOW_WORDS = 2 if sys.byteorder == "little" else -2


def _lanes(count: int) -> tuple[int, int, int]:
    """The lane constants of a block of ``count`` outputs."""
    global _LANES
    size, ones, golden, low = _LANES
    if size < count:  # built from bytes, in time linear in the count
        size = count
        ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
        golden = int.from_bytes(b"".join((j * GOLDEN).to_bytes(16, "little")
                                         for j in range(count)), "little")
        low = ones * MASK64
        _LANES = size, ones, golden, low
    if size == count:
        return ones, golden, low
    cut = (1 << 128 * count) - 1
    return ones & cut, golden & cut, low & cut


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective hash."""
    z &= MASK64
    z = ((z ^ (z >> _S1)) * _M1) & MASK64
    z = ((z ^ (z >> _S2)) * _M2) & MASK64
    return z ^ (z >> _S3)


def stream_key(master_seed: int, stream_index=0, mix=mix64):
    """Key of stream ``stream_index`` under ``master_seed``.

    ``mix`` is ``mix64``, or its elementwise twin over a uint64 array of
    stream indices, which gives the keys of many streams at once.
    """
    return mix(mix64(master_seed) ^ mix(stream_index + GOLDEN))


class Stream:
    """One reproducible 64-bit output sequence.

    ``Stream(seed, index)`` and any other stream with a different index are
    independent for practical purposes; equal arguments give equal sequences.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, master_seed: int, stream_index: int = 0):
        self._key = stream_key(master_seed, stream_index)
        self._counter = 0

    def next_u64(self) -> int:
        out = mix64(self._key + self._counter * GOLDEN)
        self._counter += 1
        return out

    def block(self, count: int) -> list[int]:
        """The next ``count`` outputs, equal to ``count`` calls of
        ``next_u64``, mixed in one lane-packed integer evaluation."""
        ones, golden, low = _lanes(count)
        start = (self._key + self._counter * GOLDEN) & MASK64
        self._counter += count
        z = (start * ones + golden) & low
        z = ((z ^ (z >> _S1)) & low) * _M1 & low
        z = ((z ^ (z >> _S2)) & low) * _M2 & low
        z ^= z >> _S3  # what lane j + 1 pushes down lands in lane j's high half
        words = memoryview(z.to_bytes(16 * count, sys.byteorder)).cast("Q")
        return words[::_LOW_WORDS].tolist()


class Jump(NamedTuple):
    """Increment law of one jump into one stage, of a process or a word.

    The increment is ``base`` plus the number of cumulative numerators that
    a uniform draw reaches: increment ``base + j`` has probability
    ``(c_j(src) - c_{j-1}(src)) / den``, with ``c_{-1} = 0`` and a last
    numerator ``den`` left implicit.  Each ``c_j`` is an integer expression
    in the source value that evaluates alike on an int and on an int64
    array; an empty ``cums`` is a deterministic branch.
    """

    base: int
    cums: tuple[Callable, ...]
    den: int

    def draw(self, src: int, u64: int) -> int:
        """Increment for the uniform 64-bit draw ``u64``, by the exact test
        ``u64 * den < c * 2**64``, taken as ``q < c`` with
        q = (u64 * den) >> 64: the two agree for every integer c."""
        inc = self.base
        q = u64 * self.den >> 64
        for cum in self.cums:
            if q < cum(src):
                break
            inc += 1
        return inc

    def increments(self, src) -> list[tuple[int, int]]:
        """(increment, integer weight over ``den``) of every branch, zero
        weights included."""
        out, below, inc = [], 0, self.base
        for cum in self.cums:
            c = cum(src)
            out.append((inc, c - below))
            below, inc = c, inc + 1
        out.append((inc, self.den - below))
        return out

"""Counter-based pseudo-random streams for reproducible parallel sampling.

A stream is a pure function of (master_seed, stream_index, counter): output j
is the SplitMix64 finalizer applied to ``key + j * GOLDEN``.  Replicates of a
Monte Carlo run each own an independent stream derived from the master seed
and the replicate index, so chunked or parallel execution draws exactly the
same numbers as a serial run.

The constants and the key derivation live here once; the batch engine applies
them to uint64 arrays, whose arithmetic wraps without the masks used here.
So does the exact draw of the processes and the word sampler, ``Jump.draw``:
one output u picks an outcome by the test ``u * den < c * 2**64``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_SHIFTS = (30, 27, 31)
MIX_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)

TWO64 = 1 << 64

_S1, _S2, _S3 = MIX_SHIFTS
_M1, _M2 = MIX_MULTIPLIERS


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
        ``u64 * den < c * 2**64``."""
        inc = self.base
        lhs = u64 * self.den
        for cum in self.cums:
            if lhs < cum(src) * TWO64:
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

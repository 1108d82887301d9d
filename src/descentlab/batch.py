"""Vectorized batch simulation of the jump processes.

Runs many replicates in lockstep with numpy uint64 arithmetic, drawing
exactly the same pseudo-random numbers as the scalar simulator: replicate r
uses the counter-based stream derived from (master_seed, r), two draws per
stage.  Both engines read each stage's integer law from one stage table,
so ``batch_finals`` is interchangeable with collecting ``simulate(...).final``
over the same replicate indices, at a small fraction of the cost.

The scalar test ``u * den < c * 2**64`` becomes ``u >= t`` with
t = ceil(c * 2**64 / den).  The type draw compares with the stage law's
``threshold``; an increment's t is gathered by source value and stored as
t-1 with a flag for t = 0, so probability-one and probability-zero branches
stay exact in uint64.
"""

from __future__ import annotations

import numpy as np

from .errors import FamilyError
from .processes import _TABLES, Jump, ProcessKind, _value_range, parse_kind
from .rng import GOLDEN, MASK64, MIX_MULTIPLIERS, MIX_SHIFTS, TWO64, stream_key

_U = np.uint64
_S1, _S2, _S3 = (_U(s) for s in MIX_SHIFTS)
_M1, _M2 = (_U(c) for c in MIX_MULTIPLIERS)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """``rng.mix64`` over a uint64 array."""
    z = (z ^ (z >> _S1)) * _M1
    z = (z ^ (z >> _S2)) * _M2
    return z ^ (z >> _S3)


def _gates(jump: Jump, hi: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(t-1 mod 2**64, t == 0) per cumulative numerator c of ``jump``, over
    source values 0..hi, with t = ceil(c * 2**64 / den).

    With 2**64 = q*den + r, t = c*q + ceil(c*r / den); c*r < den**2 stays
    exact in uint64 when den < 2**32, and the rest may wrap modulo 2**64.
    """
    if not jump.cums:
        return []
    den = jump.den
    if not 2 <= den < 1 << 32:
        raise ArithmeticError(f"increment denominator {den} outside [2, 2**32)")
    src = np.arange(hi + 1, dtype=np.int64)
    q, r = divmod(TWO64, den)
    out = []
    for cum in jump.cums:
        c = cum(src)
        if c.min() < 0 or c.max() > den:
            raise ArithmeticError(f"cumulative numerator outside [0, {den}]")
        c = c.astype(np.uint64)
        cr = c * _U(r)
        minus_one = c * _U(q) + cr // _U(den) + (cr % _U(den) != 0) - _U(1)
        out.append((minus_one, c == 0))
    return out


def _jump_values(jump: Jump, hi: int, u: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Every replicate's value after ``jump`` from ``src``: ``Jump.draw``,
    with each gate gathered by source value."""
    out = src + jump.base
    for minus_one, is_zero in _gates(jump, hi):
        out += is_zero[src] | (u > minus_one[src])
    return out


def batch_finals(kind: str | ProcessKind, n: int, replicates: int,
                 master_seed: int, start_index: int = 0) -> dict[int, int]:
    """Counts of final values over replicate streams start..start+replicates-1.

    Identical to running the scalar simulator per replicate; chunked calls
    over disjoint index ranges merge by adding counts.
    """
    kind = parse_kind(kind)
    if n < kind.n_min:
        raise FamilyError(f"{kind.value}: n={n} below minimum {kind.n_min}")
    if replicates <= 0:
        return {}

    indices = np.arange(start_index, start_index + replicates, dtype=np.uint64)
    keys = stream_key(master_seed, indices, mix=_mix64_vec)
    del indices  # an array of every replicate: free it before the stage loop
    first, v0, v1 = kind.start
    prev = np.full(replicates, v0, dtype=np.int64)
    last = np.full(replicates, v1, dtype=np.int64)
    laws = _TABLES[kind].laws.through(n)
    counter = 0
    for m in range(first, n + 1):
        law = laws[m]
        # threshold < 2**64: no family puts full mass on two-jumps
        two = _mix64_vec(keys + _U(counter * GOLDEN & MASK64)) < _U(law.threshold)
        u2 = _mix64_vec(keys + _U((counter + 1) * GOLDEN & MASK64))
        counter += 2
        from_two = _jump_values(law.two, _value_range(kind, m - 2)[1], u2, prev)
        from_one = _jump_values(law.one, _value_range(kind, m - 1)[1], u2, last)
        prev, last = last, np.where(two, from_two, from_one)

    values, counts = np.unique(last, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}

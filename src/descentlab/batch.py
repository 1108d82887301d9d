"""Vectorized batch simulation of the jump processes.

Runs many replicates in lockstep with numpy uint64 arithmetic, drawing
exactly the same pseudo-random numbers as the scalar simulator: replicate r
uses the counter-based stream derived from (master_seed, r mod 2**64), two
draws per stage.  Both engines read each stage's integer law from one stage
table, so ``batch_finals`` is interchangeable with collecting
``simulate(...).final`` over the same replicate indices, at a small fraction
of the cost.

The scalar test ``u * den < c * 2**64`` becomes ``u >= t``, that is
``u > t - 1``, with t = ceil(c * 2**64 / den).  The type draw compares with
the stage law's ``threshold``.  The increments of both jump types form one
merged table per stage, over the one-jump sources 0..hi1 followed by the
two-jump sources 0..hi2: each entry holds the value reached when no gate is
passed, and each gate one t - 1 per entry.  A gate with t = 0 is passed by
every draw, so it is counted in the entry's value, and its t - 1 wraps to
2**64 - 1, which no draw exceeds; a gate with t = 2**64 (c = den) has the
same t - 1 and is never passed either, as it should be.  The jump type with
fewer gates is padded with such never-passed gates.  Each replicate's entry
is picked by a blend, ``idx = src + two * (hi1 + 1)`` with
``src = last + (prev - last) * two``, so each gate costs one gather, one
compare and one add, and no increment is computed for the jump not taken.
"""

from __future__ import annotations

import numpy as np

from .families import _reaching
from .processes import _TABLES, Jump, ProcessKind, StageLaw, _value_range, parse_kind
from .rng import GOLDEN, MASK64, MIX_MULTIPLIERS, MIX_SHIFTS, TWO64, stream_key

_U = np.uint64
_S1, _S2, _S3 = (_U(s) for s in MIX_SHIFTS)
_M1, _M2 = (_U(c) for c in MIX_MULTIPLIERS)
_NEVER = _U(MASK64)  # a gate's t - 1 that no draw exceeds


def _mix64_vec(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """``rng.mix64`` over a uint64 array, in place: ``z`` is overwritten
    with its mix and returned; ``tmp``, of z's shape, is scratch."""
    if tmp is None:
        tmp = np.empty_like(z)
    np.right_shift(z, _S1, out=tmp)
    z ^= tmp
    z *= _M1
    np.right_shift(z, _S2, out=tmp)
    z ^= tmp
    z *= _M2
    np.right_shift(z, _S3, out=tmp)
    z ^= tmp
    return z


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


def _stage_table(law: StageLaw, hi1: int, hi2: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The merged table of ``law`` over one-jump sources 0..hi1, then
    two-jump sources 0..hi2: (each entry's value when no gate is passed,
    each gate's t - 1 per entry).  A replicate's new value is its entry's
    value plus the number of gates whose t - 1 its draw exceeds."""
    parts = ((law.one, hi1), (law.two, hi2))
    values, columns = [], []
    for jump, hi in parts:
        value = np.arange(jump.base, jump.base + hi + 1, dtype=np.int64)
        gates = []
        for minus_one, is_zero in _gates(jump, hi):
            value += is_zero  # passed by every draw; minus_one is 2**64 - 1
            gates.append(minus_one)
        values.append(value)
        columns.append(gates)
    width = max(len(gates) for gates in columns)
    for gates, (_, hi) in zip(columns, parts):
        gates += [np.full(hi + 1, _NEVER)] * (width - len(gates))
    return np.concatenate(values), [np.concatenate(gate) for gate in zip(*columns)]


def batch_finals(kind: str | ProcessKind, n: int, replicates: int,
                 master_seed: int, start_index: int = 0) -> dict[int, int]:
    """Counts of final values over replicate streams start..start+replicates-1,
    each index taken mod 2**64, as ``stream_key`` takes it.

    Identical to running the scalar simulator per replicate; chunked calls
    over disjoint index ranges merge by adding counts.
    """
    kind = parse_kind(kind)
    _reaching(kind.family, n, "stage")
    if replicates <= 0:
        return {}

    # uint64 addition wraps, so the indices run on past 2**64 - 1 from 0
    indices = np.arange(replicates, dtype=np.uint64) + _U(start_index % TWO64)
    keys = stream_key(master_seed, indices, mix=_mix64_vec)
    del indices  # an array of every replicate: free it before the stage loop
    first, v0, v1 = kind.start
    prev = np.full(replicates, v0, dtype=np.int64)
    last = np.full(replicates, v1, dtype=np.int64)
    u, tmp = np.empty_like(keys), np.empty_like(keys)
    two = np.empty(replicates, dtype=bool)
    idx = np.empty(replicates, dtype=np.int64)
    laws = _TABLES[kind].laws.through(n)
    counter = 0
    for m in range(first, n + 1):
        law = laws[m]
        hi1 = _value_range(kind, m - 1)[1]
        values, gates = _stage_table(law, hi1, _value_range(kind, m - 2)[1])
        # threshold < 2**64: no family puts full mass on two-jumps
        _mix64_vec(np.add(keys, _U(counter * GOLDEN & MASK64), out=u), tmp)
        np.less(u, _U(law.threshold), out=two)
        _mix64_vec(np.add(keys, _U((counter + 1) * GOLDEN & MASK64), out=u), tmp)
        counter += 2
        # idx = last + two * (prev - last + hi1 + 1): the blend, in place
        np.subtract(prev, last, out=idx)
        idx += hi1 + 1
        idx *= two
        idx += last
        prev, last = last, values.take(idx)
        for gate in gates:  # idx fits every gate: ``values.take`` checked it
            np.greater(u, gate.take(idx, out=tmp, mode="wrap"), out=two)
            last += two

    values, counts = np.unique(last, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}

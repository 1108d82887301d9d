"""Independent brute-force oracles used by the test suite.

These enumerate permutation classes, compositions and jump words directly and
count statistics from the definitions; they never touch the recurrences they
check.  Ten keep an implementation the package replaced, as the reference
its successor is compared with: each family's row recurrence written out
term by term, each process kind's stage law and two-jump weight written
out by hand, the keep-list discard reduction, the sampler's threshold
loop, the exact draw's product test, the per-draw stage loop of
``simulate``, the per-kind branch formula of a part's integer difference,
the audit rows of a recorded ``simulate`` chunk built from the
``PartRecord``s of ``simulate(record=True)``, with the residual summed part
by part, the exact marginal expanded over the joint law of the
last two values, and the batch kernel that computed both jumps' values for
every replicate and picked one with ``np.where``.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import permutations, product
from math import lcm

import numpy as np

from descentlab.batch import _gates, _mix64_vec
from descentlab.compositions import (
    Composition,
    JumpWord,
    discard_map,
    enumerate_compositions,
    word_statistic,
)
from descentlab.families import _SEED_ROWS, CountTriangle, ExactPmf, Family, counting_sequence
from descentlab.processes import (
    _TABLES,
    ProcessKind,
    StageLaw,
    _entries,
    _value_range,
    exact_means,
    parse_kind,
    simulate,
)
from descentlab.rng import GOLDEN, MASK64, TWO64, Jump, Stream, stream_key


def descents(perm: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


def excedances(perm: tuple[int, ...]) -> int:
    return sum(1 for i, v in enumerate(perm, start=1) if v > i)


def involutions(n: int):
    """All involutions of {1..n} as one-line tuples, by pairing construction."""

    def build(elems: tuple[int, ...], mapping: dict[int, int]):
        if not elems:
            yield dict(mapping)
            return
        e, rest = elems[0], elems[1:]
        mapping[e] = e
        yield from build(rest, mapping)
        del mapping[e]
        for j, e2 in enumerate(rest):
            mapping[e] = e2
            mapping[e2] = e
            yield from build(rest[:j] + rest[j + 1 :], mapping)
            del mapping[e]
            del mapping[e2]

    for m in build(tuple(range(1, n + 1)), {}):
        yield tuple(m[i] for i in range(1, n + 1))


def fibonacci_permutations(n: int):
    """Permutations with |pi(i) - i| <= 1: fixed points and adjacent swaps."""

    def build(i: int, prefix: tuple[int, ...]):
        if i > n:
            yield prefix
            return
        yield from build(i + 1, prefix + (i,))
        if i + 1 <= n:
            yield from build(i + 2, prefix + (i + 1, i))

    yield from build(1, ())


def derangements(n: int):
    """All permutations of {1..n} without a fixed point, as one-line tuples."""
    for p in permutations(range(1, n + 1)):
        if all(v != i for i, v in enumerate(p, start=1)):
            yield p


def two_cycle_census(family: str, m: int) -> tuple[int, int]:
    """(members in which m lies in a 2-cycle, class size) over the family's
    class of permutations of {1..m}: involutions, derangements (for the
    derangement and excedance families) or fibonacci permutations."""
    members = {
        "involution": involutions,
        "derangement": derangements,
        "excedance": derangements,
        "fibonacci": fibonacci_permutations,
    }[family](m)
    size = in_two_cycle = 0
    for p in members:
        size += 1
        j = p[m - 1]
        in_two_cycle += j != m and p[j - 1] == m
    return in_two_cycle, size


def unrolled_row(family, rows) -> tuple[int, ...]:
    """Row n = len(rows), from rows n-1 (``r1``) and n-2 (``r2``) before it,
    by each family's recurrence written out term by term."""
    n, r1, r2 = len(rows), rows[-1], rows[-2]
    if family is Family.EULERIAN:
        # A_{n,k} = (k+1) A_{n-1,k} + (n-k) A_{n-1,k-1}, k = 0..n-1
        a = (0, *r1, 0)  # A_{n-1,k} = a[k+1]
        return tuple((k + 1) * a[k + 1] + (n - k) * a[k] for k in range(n))
    if family is Family.INVOLUTION:
        # I_{n,k} for k = 0..n-1; the two-row recurrence divides by n exactly.
        a = (0, *r1, 0)        # I_{n-1,k} = a[k+1]
        b = (0, 0, *r2, 0, 0)  # I_{n-2,k} = b[k+2]
        m = n - 2              # recurrence parameter: row n = "n-2 plus two"
        row = []
        for k in range(n):
            total = (
                (k + 1) * a[k + 1]
                + (m - k + 2) * a[k]
                + ((k + 1) ** 2 + m) * b[k + 2]
                + (2 * k * (m - k + 1) - m + 1) * b[k + 1]
                + ((m - k + 2) ** 2 + m) * b[k]
            )
            q, rem = divmod(total, n)
            if rem:
                raise ArithmeticError(
                    f"involution row {n}: the recurrence total at k={k} "
                    f"is not divisible by {n}"
                )
            row.append(q)
        return tuple(row)
    if family is Family.FIBONACCI:
        # binomial(n-k, k) = binomial(n-1-k, k) + binomial(n-2-(k-1), k-1)
        a = (*r1, 0)   # F_{n-1,k} = a[k]
        b = (0, *r2)   # F_{n-2,k-1} = b[k]
        return tuple(a[k] + b[k] for k in range(n // 2 + 1))
    # derangement and excedance: k = 1..n-1, stored with trailing zeros
    a = (0, *r1, 0)     # row n-1 at k = a[k]
    b = (0, 0, *r2, 0)  # row n-2 at k-1 = b[k]
    if family is Family.DERANGEMENT:
        return tuple(
            (k + 1) * a[k] + (n - k - 1) * a[k - 1] + k * b[k] + (n - k) * b[k - 1]
            for k in range(1, n)
        )
    # Exc_{n,k} = k Exc_{n-1,k} + (n-k) Exc_{n-1,k-1} + (n-1) Exc_{n-2,k-1}
    return tuple(k * a[k] + (n - k) * a[k - 1] + (n - 1) * b[k] for k in range(1, n))


# The deepest row the property tests draw.
REFERENCE_N = 300


@functools.cache
def reference_triangle(family: Family) -> CountTriangle:
    """Rows up to ``REFERENCE_N`` of the family's triangle, by ``unrolled_row``
    from the seed rows.  Built once per test process, so tests that compare
    many rows share one build, and none of it comes from ``_next_row``."""
    rows = list(_SEED_ROWS[family])
    while len(rows) <= REFERENCE_N:
        rows.append(unrolled_row(family, rows))
    return CountTriangle(family, REFERENCE_N, rows)


def count_histogram(values, k_min: int, k_max: int) -> list[int]:
    row = [0] * (k_max - k_min + 1)
    for v in values:
        row[v - k_min] += 1
    return row


def eulerian_row(n: int) -> list[int]:
    return count_histogram(
        (descents(p) for p in permutations(range(1, n + 1))), 0, n - 1
    )


def involution_row(n: int) -> list[int]:
    return count_histogram((descents(p) for p in involutions(n)), 0, n - 1)


def derangement_rows(n: int) -> tuple[list[int], list[int]]:
    """(descent row, excedance row) over derangements of S_n, k = 1..n-1."""
    des = [0] * (n - 1)
    exc = [0] * (n - 1)
    for p in permutations(range(1, n + 1)):
        if all(v != i for i, v in enumerate(p, start=1)):
            des[descents(p) - 1] += 1
            exc[excedances(p) - 1] += 1
    return des, exc


def fibonacci_row(n: int) -> list[int]:
    return count_histogram(
        (descents(p) for p in fibonacci_permutations(n)), 0, n // 2
    )


def keep_list_discard_map(word) -> Composition:
    """The discard reduction by marking: right to left, each surviving
    letter j > 1 marks the j - 1 letters to its left as discarded; the
    unmarked letters, read left to right, are the parts."""
    if not isinstance(word, JumpWord):
        word = JumpWord(tuple(word))
    letters = word.letters
    keep = [True] * len(letters)
    p = len(letters) - 1
    while p >= 0:
        c = letters[p]
        if c > 1:
            lo = p - (c - 1)
            if lo < 0:
                raise ValueError(
                    f"malformed word: jump of size {c} at position {p + 1} "
                    "reaches below the first position"
                )
            for j in range(lo, p):
                keep[j] = False
            p = lo - 1
        else:
            p -= 1
    parts = tuple(c for c, k in zip(letters, keep) if k)
    return Composition(parts, max(2, max(letters)))


def threshold_sample(rule, n: int, stream) -> tuple[int, ...]:
    """The letters of one jump word of length n, drawn stage by stage
    against the feasible distribution's cumulative integer thresholds over
    their common denominator: size j + 1 at the first threshold c_j with
    ``u * den < c_j * 2**64``, one uniform 64-bit draw per stage."""
    letters = [1]
    for i in range(2, n + 1):
        vec = rule.feasible_vector(i)
        den = lcm(*(v.denominator for v in vec))
        cums, acc = [], 0
        for v in vec:
            acc += v.numerator * (den // v.denominator)
            cums.append(acc)
        lhs = stream.next_u64() * den
        size = len(cums)
        for j, c in enumerate(cums):
            if lhs < c * TWO64:
                size = j + 1
                break
        letters.append(size)
    return tuple(letters)


def product_draw(jump, src: int, u64: int) -> int:
    """``Jump.draw`` by the product test: the increment is ``base`` plus the
    number of cumulative numerators c with ``u64 * den >= c * 2**64``,
    counted up to the first c that the draw falls below."""
    inc, lhs = jump.base, u64 * jump.den
    for cum in jump.cums:
        if lhs < cum(src) * TWO64:
            break
        inc += 1
    return inc


def reference_two_jump_split(family: Family, m: int) -> tuple[int, int]:
    """(num, den) of the two-jump probability into stage m >= 2, by the
    hand-written weight: num = (m-1) c_{m-2} (m in a two-cycle), or
    c_{m-2} for fibonacci (m swapped with m - 1), and den = c_m."""
    counts = counting_sequence(family, m)
    w = 1 if family is Family.FIBONACCI else m - 1
    return w * counts[m - 2], counts[m]


def reference_stage_law(kind, m: int) -> StageLaw:
    """The transition law into stage m, written out per kind: the
    reference for the law that ``_stage_law`` reads off the term table."""
    kind = parse_kind(kind)
    stay, step = Jump(0, (), 1), Jump(1, (), 1)
    if kind is ProcessKind.FIBONACCI:
        two, one = step, stay
    elif kind is ProcessKind.INVOLUTION:
        def le0(s):  # numerators of P(increment <= 0) and P(increment <= 1)
            return (s + 1) ** 2 + m - 2

        def le1(s):
            return (s + 1) * (2 * m - 3 - s) + 1

        two = Jump(0, (le0, le1), (m - 1) * m)
        one = Jump(0, (lambda s: s + 1,), m)
    elif kind is ProcessKind.DERANGEMENT:
        two = Jump(1, (lambda s: s + 1,), m - 1)
        one = Jump(0, (lambda s: s + 1,), m - 1)
    else:  # excedance
        two = step
        one = Jump(0, (lambda s: s,), m - 1)
    num, den = reference_two_jump_split(kind.family, m)
    return StageLaw(num, den, -(-num * TWO64 // den), two, one)


def stage_loop(kind, n: int, seed: int, stream_index: int = 0):
    """(steps, final) of one run of ``simulate``, drawn one output at a
    time: the type by ``u * den < two_num * 2**64``, the increment by
    ``product_draw``."""
    kind = parse_kind(kind)
    stream = Stream(seed, stream_index)
    first, v0, v1 = kind.start
    laws = _TABLES[kind].laws.through(n)
    values, steps = {first - 2: v0, first - 1: v1}, []
    for m in range(first, n + 1):
        law = laws[m]
        if stream.next_u64() * law.den < law.two_num * TWO64:
            order, jump = 2, law.two
        else:
            order, jump = 1, law.one
        src = values[m - order]
        values[m] = src + product_draw(jump, src, stream.next_u64())
        steps.append((m, order, values[m]))
    return tuple(steps), values[n]


def process_word_fibers(kind, n: int) -> dict[tuple[int, ...], Fraction]:
    """Probability of each composition that the discard reduction reads off
    a run to stage n, summed over every jump word of the run.

    A word's weight is the product over the stages of the stage table's
    ``two_num / den`` for a two-jump and one minus it for a one-jump,
    summed in integer numerators over the product of the dens.  Runs from
    stage 0 start with the one-jump into stage 1; a derangement or
    excedance run's first letter is its jump into stage 3.
    """
    kind = ProcessKind(kind)
    first = kind.start[0]
    laws = _TABLES[kind].laws.through(n)[first : n + 1]
    lead = (1,) if kind.composition_offset == 0 else ()
    den = 1
    for law in laws:
        den *= law.den
    fibers: dict[tuple[int, ...], int] = {}
    for tail in product((1, 2), repeat=len(laws)):
        num = 1
        for law, letter in zip(laws, tail):
            num *= law.two_num if letter == 2 else law.den - law.two_num
        if num:
            parts = discard_map(lead + tail).parts
            fibers[parts] = fibers.get(parts, 0) + num
    return {parts: Fraction(num, den) for parts, num in fibers.items()}


def composition_product_sum(n: int, two) -> Fraction:
    """Sum over all compositions of n of the product of two(p) over the
    positions p that end a 2-part."""
    total = Fraction(0)
    for comp in enumerate_compositions(n):
        term = Fraction(1)
        for pos, size in comp.position_pairs():
            if size == 2:
                term *= two(pos)
        total += term
    return total


def two_part_census(n: int) -> dict[int, int]:
    """Number of compositions of n with k 2-parts, keyed by k."""
    census: dict[int, int] = {}
    for comp in enumerate_compositions(n):
        k = comp.parts.count(2)
        census[k] = census.get(k, 0) + 1
    return census


def word_psi_moments(specs, n: int) -> tuple[Fraction, Fraction]:
    """(E psi, E psi^2) over all 2^(n-1) jump words of length n.

    Letter i is a two-jump with probability specs[i-1].p; psi is the
    word's discard-mapped statistic.
    """
    m1 = m2 = Fraction(0)
    for tail in product((1, 2), repeat=n - 1):
        word = (1,) + tail
        prob = Fraction(1)
        for spec, letter in zip(specs[1:], tail):
            prob *= spec.p if letter == 2 else 1 - spec.p
        value = word_statistic(specs, word)
        m1 += prob * value
        m2 += prob * value * value
    return m1, m2


def closed_form_moment(kind, i: int, order: int, w, r: int) -> Fraction:
    """E[X^r | w] of the centered martingale difference, r in 2..4, by the
    hand-derived polynomials in the centered source value ``w``.

    One-jumps (and derangement two-jumps) are the symmetric two-point law at
    w -/+ h with tilt w/(2h); an involution two-jump is the three-point law
    2w + (j - 1) i, j = 0, 1, 2; the other jumps are deterministic.
    """
    F = Fraction
    kind = ProcessKind(kind)
    w = F(w)
    if kind is ProcessKind.FIBONACCI or (
        kind is ProcessKind.EXCEDANCE and order == 2
    ):
        return F(0)
    if kind is ProcessKind.INVOLUTION and order == 2:
        if r == 2:
            return F(i * (i - 1), 2) + F(2 * i * (i - 2), i - 1) - F(2 * (i - 2), i - 1) * w**2
        if r == 3:
            return F(16 - 4 * i, i - 1) * w**3 + F(i * (i * i + 8 * i - 21), i - 1) * w
        return (
            48 * w**4
            - 2 * i * (i * i - 20 * i + 42) * w**2
            + F(i**3 * (i * i + 2 * i - 7), 2)
        ) / (i - 1)
    h = F(i, 2) if kind is ProcessKind.INVOLUTION else F(i - 1, 2)
    if r == 2:
        return h * h - w * w
    if r == 3:
        return 2 * h * h * w - 2 * w**3
    return h**4 + 2 * h * h * w * w - 3 * w**4


def full_sum_residual(traj) -> Fraction:
    """Residual of the decomposition identity, summed part by part:
    scale (value_n - mean_n) - sum_i gamma_i (x_i + alpha_i), with scale
    n - 1 for derangement and excedance runs and n for the others."""
    kind = ProcessKind(traj.kind)
    total = Fraction(0)
    for p in traj.decomposition.parts:
        total += p.gamma * (p.x + p.alpha)
    scale = traj.n - 1 if kind in (ProcessKind.DERANGEMENT, ProcessKind.EXCEDANCE) else traj.n
    return scale * (traj.final - exact_means(kind, traj.n)[traj.n]) - total


def branch_difference(kind, i: int, order: int, src, new) -> int:
    """The integer part of the decomposition difference realized by a jump of
    the given order into stage i, from the value ``src`` to the value
    ``new``, written per kind and per branch: the difference is this minus
    the stage's mean shift."""
    kind = ProcessKind(kind)
    if kind is ProcessKind.INVOLUTION:
        if order == 1:  # w -/+ i/2
            return src - i + 1 if new == src else src + 1
        return 2 * src - i + 3 + (new - src - 1) * i  # 2w + (new - src - 1) i
    if kind is ProcessKind.FIBONACCI:
        return i * new - (i - order) * src
    if kind is ProcessKind.DERANGEMENT:
        # both jump types land on src+1 or src+2 (two-jump) / src, src+1 (one)
        return src - i + 2 if new == src + order - 1 else src + 1
    if order == 2:  # excedance
        return 2 * src
    return src - i + 1 if new == src else src


def audit_rows(kind_tag, n: int, seed: int, start: int, count: int):
    """(counts of the final values, audit rows) of the recorded runs
    start..start+count-1, from each run's ``Trajectory`` and the
    ``PartRecord``s of its ``Decomposition``: the residual summed part by
    part, each x, alpha and gamma printed by ``str``."""
    counts: dict[int, int] = {}
    audit: list[list[str]] = []
    for r in range(start, start + count):
        traj = simulate(kind_tag, n, seed=seed, record=True, stream_index=r)
        counts[traj.final] = counts.get(traj.final, 0) + 1
        residual = full_sum_residual(traj)
        dec = traj.decomposition
        audit.append(
            [
                str(r),
                str(traj.final),
                "".join(str(p) for p in dec.composition),
                ";".join(str(p.x) for p in dec.parts),
                ";".join(str(p.alpha) for p in dec.parts),
                _gamma_texts(dec.parts),
                str(residual),
            ]
        )
    return counts, audit


def _gamma_texts(parts) -> str:
    """The parts' factors joined by ``;``, each distinct factor object
    formatted once: a recorded run shares one between consecutive equal
    factors."""
    texts, gamma, text = [], None, ""
    for p in parts:
        if p.gamma is not gamma:
            gamma, text = p.gamma, str(p.gamma)
        texts.append(text)
    return ";".join(texts)


def pair_marginal(kind, n: int) -> ExactPmf:
    """Marginal law at stage n by exhaustive expansion of the joint law of
    the last two values, in ``Fraction``s over the stage laws' entries."""
    kind = parse_kind(kind)
    first, v0, v1 = kind.start
    pairs = {(v0, v1): Fraction(1)}
    laws = _TABLES[kind].laws.through(n)
    for m in range(first, n + 1):
        law = laws[m]
        nxt: dict[tuple[int, int], Fraction] = {}
        for (v, u), p in pairs.items():
            for src, inc, q in _entries(law, v, u):
                if q == 0:
                    continue
                val = (v if src == "prev" else u) + inc
                key = (u, val)
                nxt[key] = nxt.get(key, Fraction(0)) + p * q
        pairs = nxt
    marg: dict[int, Fraction] = {}
    for (_, u), p in pairs.items():
        marg[u] = marg.get(u, Fraction(0)) + p
    lo, hi = _value_range(kind, n)
    return ExactPmf(lo, tuple(marg.get(k, Fraction(0)) for k in range(lo, hi + 1)))


def _jump_values(jump, hi: int, u, src):
    """Every replicate's value after ``jump`` from ``src``: ``Jump.draw``,
    with each gate gathered by source value."""
    out = src + jump.base
    for minus_one, is_zero in _gates(jump, hi):
        out += is_zero[src] | (u > minus_one[src])
    return out


def gate_finals(kind, n: int, replicates: int, master_seed: int,
                start_index: int = 0) -> dict[int, int]:
    """``batch_finals`` by the gate loop: each stage computes the values
    after both jumps for every replicate, six gathers at an involution
    stage, and picks one per replicate with ``np.where``.  Stream indices
    are reduced mod 2**64 one by one."""
    kind = parse_kind(kind)
    indices = np.array([(start_index + r) & MASK64 for r in range(replicates)],
                       dtype=np.uint64)
    keys = stream_key(master_seed, indices, mix=_mix64_vec)
    first, v0, v1 = kind.start
    prev = np.full(replicates, v0, dtype=np.int64)
    last = np.full(replicates, v1, dtype=np.int64)
    laws = _TABLES[kind].laws.through(n)
    counter = 0
    for m in range(first, n + 1):
        law = laws[m]
        two = _mix64_vec(keys + np.uint64(counter * GOLDEN & MASK64)) < np.uint64(law.threshold)
        u2 = _mix64_vec(keys + np.uint64((counter + 1) * GOLDEN & MASK64))
        counter += 2
        from_two = _jump_values(law.two, _value_range(kind, m - 2)[1], u2, prev)
        from_one = _jump_values(law.one, _value_range(kind, m - 1)[1], u2, last)
        prev, last = last, np.where(two, from_two, from_one)
    values, counts = np.unique(last, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}

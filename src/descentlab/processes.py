"""Jump processes with exact rational transitions and their decompositions.

Each statistic family evolves by one-jumps (from the previous value) and
two-jumps (from the value two stages back), with transition probabilities
built from the family's counting sequence.  Recording a run keeps the
stage-by-stage jump word; its discard reduction yields a composition, and the
run decomposes over the composition's parts into differences, deterministic
adjustments, and multiplicative factors that reconstruct the centered, scaled
final value exactly.

Stage bookkeeping: involution and fibonacci runs decompose over compositions
of n (part position == stage).  Derangement and excedance runs start at stage
2 with a deterministic value, so their compositions have total n - 2 and a
part ending at position p describes the jump into stage p + 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .compositions import Composition, discard_map
from .errors import FamilyError, InfeasibleStateError
from .families import ExactPmf, Family, counting_sequence, row_means
from .rng import TWO64, Stream

F = Fraction
ZERO = F(0)
HALF = F(1, 2)


class ProcessKind(enum.Enum):
    INVOLUTION = "involution"
    DERANGEMENT = "derangement"
    FIBONACCI = "fibonacci"
    EXCEDANCE = "excedance"

    @property
    def family(self) -> Family:
        return Family(self.value)

    @property
    def n_min(self) -> int:
        return self.family.n_min

    @property
    def composition_offset(self) -> int:
        """Stage of a part = its ending position plus this offset."""
        return 2 if self in (ProcessKind.DERANGEMENT, ProcessKind.EXCEDANCE) else 0


def parse_kind(tag: str | ProcessKind) -> ProcessKind:
    if isinstance(tag, ProcessKind):
        return tag
    try:
        return ProcessKind(tag)
    except ValueError:
        raise FamilyError(f"unknown process kind {tag!r}") from None


def _value_range(kind: ProcessKind, j: int) -> tuple[int, int]:
    """Inclusive range of attainable values at stage j."""
    if kind in (ProcessKind.DERANGEMENT, ProcessKind.EXCEDANCE):
        if j < 2:
            return (0, 0)
        return (1, max(1, j - 1))
    if j < 1:
        return (0, 0)
    if kind is ProcessKind.FIBONACCI:
        return (0, j // 2)
    return (0, max(0, j - 1))


@dataclass(frozen=True)
class ProcessState:
    """Values at two consecutive stages: ``prev`` at stage n, ``last`` at
    stage n+1; the next transition produces the value at stage n+2."""

    kind: ProcessKind
    n: int
    prev: int
    last: int

    def __post_init__(self):
        lo, hi = _value_range(self.kind, self.n)
        if not lo <= self.prev <= hi:
            raise InfeasibleStateError(
                f"{self.kind.value}: value {self.prev} at stage {self.n} "
                f"outside [{lo}, {hi}]"
            )
        lo, hi = _value_range(self.kind, self.n + 1)
        if not lo <= self.last <= hi:
            raise InfeasibleStateError(
                f"{self.kind.value}: value {self.last} at stage {self.n + 1} "
                f"outside [{lo}, {hi}]"
            )


@dataclass(frozen=True)
class JumpDistribution:
    """Joint law of (jump source, increment) for one transition."""

    entries: tuple[tuple[str, int, Fraction], ...]  # (source, increment, prob)

    def __post_init__(self):
        total = sum(p for _, _, p in self.entries)
        if total != 1 or any(p < 0 for _, _, p in self.entries):
            raise InfeasibleStateError("jump probabilities must be a distribution")

    def two_jump_probability(self) -> Fraction:
        return sum(p for src, _, p in self.entries if src == "prev")

    def value_pmf(self, prev: int, last: int) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for src, inc, p in self.entries:
            v = (prev if src == "prev" else last) + inc
            out[v] = out.get(v, ZERO) + p
        return out


def _branches(kind: ProcessKind, m: int, prev: int, last: int,
              counts: list[int]) -> list[tuple[str, int, Fraction]]:
    """Transition entries for the value at stage m from values at m-2, m-1.

    ``counts`` is the family counting sequence through index m.
    """
    v, u = prev, last
    if kind is ProcessKind.INVOLUTION:
        w2 = F((m - 1) * counts[m - 2], counts[m])
        w1 = F(counts[m - 1], counts[m])
        den2 = (m - 1) * m
        return [
            ("prev", 0, w2 * F((v + 1) ** 2 + m - 2, den2)),
            ("prev", 1, w2 * F(2 * (v + 1) * (m - 2 - v) - m + 3, den2)),
            ("prev", 2, w2 * F((m - 2 - v) ** 2 + m - 2, den2)),
            ("last", 0, w1 * F(u + 1, m)),
            ("last", 1, w1 * F(m - 1 - u, m)),
        ]
    if kind is ProcessKind.DERANGEMENT:
        dm = counts[m]
        return [
            ("prev", 1, F(counts[m - 2] * (v + 1), dm)),
            ("prev", 2, F(counts[m - 2] * (m - 2 - v), dm)),
            ("last", 0, F(counts[m - 1] * (u + 1), dm)),
            ("last", 1, F(counts[m - 1] * (m - 2 - u), dm)),
        ]
    if kind is ProcessKind.EXCEDANCE:
        dm = counts[m]
        return [
            ("prev", 1, F((m - 1) * counts[m - 2], dm)),
            ("last", 0, F(counts[m - 1] * u, dm)),
            ("last", 1, F(counts[m - 1] * (m - 1 - u), dm)),
        ]
    # fibonacci
    return [
        ("prev", 1, F(counts[m - 2], counts[m])),
        ("last", 0, F(counts[m - 1], counts[m])),
    ]


def jump_distribution(state: ProcessState) -> JumpDistribution:
    """Exact transition law out of a feasible state.

    The probabilities sum to 1 identically because the family's counting
    recurrence splits the stage-(n+2) class over the two source stages.
    """
    kind = state.kind
    if state.n < kind.n_min:
        raise FamilyError(
            f"{kind.value}: state index {state.n} below minimum {kind.n_min}"
        )
    m = state.n + 2
    counts = counting_sequence(kind.family, m)
    entries = _branches(kind, m, state.prev, state.last, counts)
    if any(p < 0 or p > 1 for _, _, p in entries):
        raise InfeasibleStateError(
            f"{kind.value}: state ({state.prev}, {state.last}) at stage {state.n} "
            "gives probabilities outside [0, 1]"
        )
    return JumpDistribution(tuple(entries))


# ---------------------------------------------------------------------------
# exact means and the deterministic adjustment terms
# ---------------------------------------------------------------------------

def exact_means(kind: str | ProcessKind, n_max: int) -> tuple[Fraction, ...]:
    """Exact stage means (index j holds E at stage j; unreachable stages 0).

    The stage-j value has the law of row j of the family's triangle, so these
    are the family's row means, kept in its store: a repeat call is a lookup.
    """
    return row_means(parse_kind(kind).family, n_max)


def alpha_term(kind: str | ProcessKind, i: int, order: int, mu) -> Fraction:
    """Deterministic adjustment for a jump of the given order into stage i.

    ``mu`` maps a stage index to the exact mean at that stage (callable or
    indexable).  Only derangement and excedance decompositions carry
    adjustments.
    """
    kind = parse_kind(kind)
    get = mu if callable(mu) else mu.__getitem__
    if order not in (1, 2):
        raise ValueError(f"jump order must be 1 or 2, got {order}")
    if kind is ProcessKind.DERANGEMENT:
        if order == 1:
            return F(i - 2) - (i - 1) * get(i) + (i - 2) * get(i - 1)
        return F(2 * i - 3) - (i - 1) * get(i) + (i - 2) * get(i - 2)
    if kind is ProcessKind.EXCEDANCE:
        if order == 1:
            return F(i - 1) - (i - 1) * get(i) + (i - 2) * get(i - 1)
        return F(i - 1) - (i - 1) * get(i) + (i - 1) * get(i - 2)
    return ZERO


def gamma_factor(comp: Composition, i: int) -> Fraction:
    """Product of k/(k-1) over 2-part ending positions k later than i.

    ``i`` may be any covered position (1..total); the factor for the part at
    position i itself is excluded.
    """
    if not 1 <= i <= comp.total:
        raise IndexError(f"position {i} outside 1..{comp.total}")
    out = F(1)
    for pos, size in comp.position_pairs():
        if pos > i and size == 2:
            out *= F(pos, pos - 1)
    return out


# ---------------------------------------------------------------------------
# martingale differences and their conditional moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalPmf:
    """Finite pmf over exact rational values."""

    outcomes: tuple[tuple[Fraction, Fraction], ...]  # (value, prob)

    def mean(self) -> Fraction:
        return sum(v * p for v, p in self.outcomes)

    def moment(self, r: int) -> Fraction:
        return sum(v**r * p for v, p in self.outcomes)


def _two_point(w: Fraction, half_width: Fraction, tilt_den: int) -> RationalPmf:
    p_low = HALF + w / tilt_den
    if not 0 <= p_low <= 1:
        raise InfeasibleStateError(
            f"centered value {w} is infeasible (probability {p_low} outside [0, 1])"
        )
    return RationalPmf(((w - half_width, p_low), (w + half_width, 1 - p_low)))


def martingale_difference_distribution(
    kind: str | ProcessKind, i: int, order: int, w: Fraction
) -> RationalPmf:
    """Conditional law of the centered decomposition difference at stage i.

    ``w`` is the centered source value: for involutions the value at stage
    i-order minus (i-order-1)/2, for derangements the value at stage i-order
    minus (i-3)/2, for excedance one-jumps the value at stage i-1 minus
    (i-1)/2.  The returned pmf has mean exactly zero.  Fibonacci jumps and
    excedance two-jumps carry no randomness beyond their source value, so
    their centered law is a point mass at zero; their deterministic drift
    appears in recorded trajectories instead.
    """
    kind = parse_kind(kind)
    w = F(w)
    if order not in (1, 2):
        raise ValueError(f"jump order must be 1 or 2, got {order}")
    if kind is ProcessKind.FIBONACCI:
        return RationalPmf(((ZERO, F(1)),))
    if kind is ProcessKind.INVOLUTION:
        if i < 2:
            raise InfeasibleStateError(f"stage {i} below first update stage 2")
        if order == 1:
            return _two_point(w, F(i, 2), i)
        c = F(i - 1, 2)
        den = i * (i - 1)
        probs = (
            F((c + w) ** 2 + i - 2) / den,
            (2 * (c + w) * (c - w) - i + 3) / den,
            F((c - w) ** 2 + i - 2) / den,
        )
        if any(p < 0 or p > 1 for p in probs):
            raise InfeasibleStateError(
                f"centered value {w} infeasible for a two-jump into stage {i}"
            )
        shift = F(i, 2)
        values = (2 * (w - shift), 2 * w, 2 * (w + shift))
        return RationalPmf(tuple(zip(values, probs)))
    # derangement or excedance
    if i < order + 2:
        raise InfeasibleStateError(
            f"{kind.value}: stage {i} below the first order-{order} update stage"
        )
    if kind is ProcessKind.EXCEDANCE and order == 2:
        return RationalPmf(((ZERO, F(1)),))
    return _two_point(w, F(i - 1, 2), i - 1)


def conditional_moment(
    kind: str | ProcessKind, i: int, order: int, w: Fraction, r: int
) -> Fraction:
    """Closed-form conditional moment E[X^r | w] of the centered difference.

    Agrees exactly with the direct moment of
    ``martingale_difference_distribution`` for every feasible state.
    """
    kind = parse_kind(kind)
    if r not in (2, 3, 4):
        raise ValueError(f"moment order must be 2, 3 or 4, got {r}")
    if order not in (1, 2):
        raise ValueError(f"jump order must be 1 or 2, got {order}")
    w = F(w)
    if kind is ProcessKind.FIBONACCI or (
        kind is ProcessKind.EXCEDANCE and order == 2
    ):
        return ZERO
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
    # symmetric two-point law at w +/- h with tilt w/(2h)
    h = F(i, 2) if kind is ProcessKind.INVOLUTION else F(i - 1, 2)
    if r == 2:
        return h * h - w * w
    if r == 3:
        return 2 * h * h * w - 2 * w**3
    return h**4 + 2 * h * h * w * w - 3 * w**4


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartRecord:
    """One composition part of a recorded run."""

    position: int
    size: int
    stage: int
    x: Fraction
    alpha: Fraction
    gamma: Fraction


@dataclass(frozen=True)
class Decomposition:
    composition: tuple[int, ...]
    parts: tuple[PartRecord, ...]


@dataclass(frozen=True)
class Trajectory:
    """One simulated run; ``steps`` holds (stage, jump order, value)."""

    kind: ProcessKind
    n: int
    seed: int
    initial: tuple[tuple[int, int], ...]
    steps: tuple[tuple[int, int, int], ...]
    final: int
    decomposition: Decomposition | None = None

    def values(self) -> dict[int, int]:
        vals = dict(self.initial)
        for stage, _, value in self.steps:
            vals[stage] = value
        return vals


def _type_thresholds(kind: ProcessKind, n: int) -> list[int]:
    """ceil(q_m * 2**64) for stages m = first_update..n: ``u < t`` is the
    exact cross-multiplied two-jump test."""
    counts = counting_sequence(kind.family, max(n, kind.n_min + 1))
    first = kind.n_min + 1
    out = []
    for m in range(first, n + 1):
        if kind in (ProcessKind.INVOLUTION, ProcessKind.DERANGEMENT,
                    ProcessKind.EXCEDANCE):
            num, den = (m - 1) * counts[m - 2], counts[m]
        else:
            num, den = counts[m - 2], counts[m]
        out.append(-(-num * TWO64 // den))
    return out


def _increment_numerators(kind: ProcessKind, m: int, two: bool,
                          src: int) -> tuple[tuple[int, ...], int]:
    """Cumulative numerators and denominator of the increment law given the
    jump type and source value; increments start at 0 (two-jumps of the
    derangement process shift by one afterwards)."""
    if kind is ProcessKind.INVOLUTION:
        if two:
            n0 = (src + 1) ** 2 + m - 2
            n1 = 2 * (src + 1) * (m - 2 - src) - m + 3
            den = (m - 1) * m
            return (n0, n0 + n1, den), den
        return (src + 1, m), m
    if kind is ProcessKind.DERANGEMENT:
        return (src + 1, m - 1), m - 1
    if kind is ProcessKind.EXCEDANCE and not two:
        return (src, m - 1), m - 1
    return (), 1  # deterministic branch


def _draw_increment(kind: ProcessKind, m: int, two: bool, v: int, u: int,
                    u64: int) -> int:
    """Increment from the pre-drawn uniform ``u64``; every stage consumes
    exactly one type draw and one value draw, so all engines stay in
    lockstep."""
    if kind is ProcessKind.FIBONACCI:
        return 1 if two else 0
    if kind is ProcessKind.EXCEDANCE and two:
        return 1
    src = v if two else u
    cums, den = _increment_numerators(kind, m, two, src)
    lhs = u64 * den
    inc = len(cums) - 1
    for j, c in enumerate(cums):
        if lhs < c * TWO64:
            inc = j
            break
    if kind is ProcessKind.DERANGEMENT and two:
        inc += 1
    return inc


def simulate(kind: str | ProcessKind, n: int, seed: int, record: bool = False,
             stream_index: int = 0) -> Trajectory:
    """Run the process to stage n, deterministically in (seed, stream_index).

    With ``record`` the jump word, its composition, and the per-part
    decomposition data (differences, adjustments, factors) are attached.
    """
    kind = parse_kind(kind)
    if n < kind.n_min:
        raise FamilyError(f"{kind.value}: n={n} below minimum {kind.n_min}")
    stream = Stream(seed, stream_index)
    thresholds = _type_thresholds(kind, n)

    if kind in (ProcessKind.DERANGEMENT, ProcessKind.EXCEDANCE):
        initial = ((1, 0), (2, 1))
        values = {1: 0, 2: 1}
        first = 3
    else:
        initial = ((0, 0), (1, 0))
        values = {0: 0, 1: 0}
        first = 2

    steps = []
    word = [1] if kind.composition_offset == 0 else []
    for idx, m in enumerate(range(first, n + 1)):
        u_type = stream.next_u64()
        u_value = stream.next_u64()
        two = u_type < thresholds[idx]
        inc = _draw_increment(kind, m, two, values[m - 2], values[m - 1], u_value)
        values[m] = (values[m - 2] if two else values[m - 1]) + inc
        order = 2 if two else 1
        steps.append((m, order, values[m]))
        word.append(order)

    final = values[n]
    decomposition = None
    if record:
        decomposition = _decompose(kind, n, values, word)
    return Trajectory(kind, n, seed, initial, tuple(steps), final, decomposition)


def _decompose(kind: ProcessKind, n: int, values: dict[int, int],
               word: list[int]) -> Decomposition:
    offset = kind.composition_offset
    if not word:
        comp = Composition(())
    else:
        comp = discard_map(word)
    means = exact_means(kind, n)
    parts = []
    for pos, size in comp.position_pairs():
        stage = pos + offset
        x = _difference_value(kind, stage, size, values, means)
        alpha = alpha_term(kind, stage, size, means) if offset else ZERO
        gamma = gamma_factor(comp, pos) if kind is ProcessKind.DERANGEMENT else F(1)
        parts.append(PartRecord(pos, size, stage, x, alpha, gamma))
    return Decomposition(comp.parts, tuple(parts))


def _difference_value(kind: ProcessKind, i: int, order: int,
                      values: dict[int, int], means) -> Fraction:
    """The decomposition difference realized by the recorded jump into stage i."""
    src = values[i - order]
    new = values[i]
    if kind is ProcessKind.INVOLUTION:
        w = src - F(i - order - 1, 2)
        if order == 1:
            return w - F(i, 2) if new == src else w + F(i, 2)
        delta = new - src
        return 2 * w + (delta - 1) * i
    if kind is ProcessKind.FIBONACCI:
        zi = i * (new - means[i])
        zs = (i - order) * (src - means[i - order])
        return zi - zs
    if kind is ProcessKind.DERANGEMENT:
        # both jump types land on src+1 or src+2 (two-jump) / src, src+1 (one)
        low = new == src + (1 if order == 2 else 0)
        return F(src - i + 2) if low else F(src + 1)
    # excedance
    if order == 2:
        return 2 * (src - means[i - 2])
    return F(src - i + 1) if new == src else F(src)


def reconstruct(traj: Trajectory) -> Fraction:
    """Exact residual of the decomposition identity; zero for every run.

    Involution and fibonacci runs satisfy
        n (value_n - mean_n) = sum_i x_i,
    derangement and excedance runs satisfy
        (n-1) (value_n - mean_n) = sum_i gamma_i (x_i + alpha_i),
    with excedance factors identically 1.
    """
    if traj.decomposition is None:
        raise ValueError("trajectory was not recorded with a decomposition")
    kind = traj.kind
    means = exact_means(kind, traj.n)
    total = sum(
        (p.gamma * (p.x + p.alpha) for p in traj.decomposition.parts), ZERO
    )
    if kind in (ProcessKind.DERANGEMENT, ProcessKind.EXCEDANCE):
        z = (traj.n - 1) * (traj.final - means[traj.n])
    else:
        z = traj.n * (traj.final - means[traj.n])
    return z - total


def exact_marginal(kind: str | ProcessKind, n: int) -> ExactPmf:
    """Marginal law at stage n by exhaustive expansion of the jump process."""
    kind = parse_kind(kind)
    if n < kind.n_min:
        raise FamilyError(f"{kind.value}: n={n} below minimum {kind.n_min}")
    if kind in (ProcessKind.DERANGEMENT, ProcessKind.EXCEDANCE):
        pairs = {(0, 1): F(1)}
        first = 3
    else:
        pairs = {(0, 0): F(1)}
        first = 2
    counts = counting_sequence(kind.family, max(n, first))
    for m in range(first, n + 1):
        nxt: dict[tuple[int, int], Fraction] = {}
        for (v, u), p in pairs.items():
            for src, inc, q in _branches(kind, m, v, u, counts):
                if q == 0:
                    continue
                val = (v if src == "prev" else u) + inc
                key = (u, val)
                nxt[key] = nxt.get(key, ZERO) + p * q
        pairs = nxt
    marg: dict[int, Fraction] = {}
    for (_, u), p in pairs.items():
        marg[u] = marg.get(u, ZERO) + p
    lo, hi = _value_range(kind, n)
    return ExactPmf(lo, tuple(marg.get(k, ZERO) for k in range(lo, hi + 1)))

"""The tags a command names: the five families, the four process kinds,
the exact identity checks, and the CLI's ``identities --n-max`` budget.

Each is written here once.  ``families``, ``processes`` and
``diagnostics`` import them from here, and so does the CLI's parser,
which offers them as choices.  This module uses the standard library only,
so building the parser loads no library module.

A member carries its facts as plain attributes, set once as it is made;
its value is its tag.  Both enums hash a member by identity, which agrees
with the identity equality of ``Enum``, so a member keys a dict as fast as
a string does.
"""

from __future__ import annotations

import enum


class Family(enum.Enum):
    """A family's tag, its first row ``n_min`` and that row's least value
    ``k_min``: the first row holds the one entry ``k_min``."""

    EULERIAN = "eulerian", 1, 0
    INVOLUTION = "involution", 1, 0
    DERANGEMENT = "derangement", 2, 1
    EXCEDANCE = "excedance", 2, 1
    FIBONACCI = "fibonacci", 1, 0

    def __new__(cls, tag: str, n_min: int, k_min: int):
        member = object.__new__(cls)
        member._value_, member.n_min, member.k_min = tag, n_min, k_min
        return member

    __hash__ = object.__hash__


class ProcessKind(enum.Enum):
    """A kind's tag and ``composition_offset``: the stage of a part is its
    ending position plus this offset.  Its ``family`` has the kind's tag.
    ``start`` is (first update stage m, value at stage m-2, value at stage
    m-1): a run starts from its family's first row, whose one entry is
    ``k_min``, with 0 at the stage before."""

    INVOLUTION = "involution", 0
    DERANGEMENT = "derangement", 2
    FIBONACCI = "fibonacci", 0
    EXCEDANCE = "excedance", 2

    def __new__(cls, tag: str, composition_offset: int):
        member = object.__new__(cls)
        member._value_, member.composition_offset = tag, composition_offset
        member.family = family = Family(tag)
        member.n_min = family.n_min
        member.start = (family.n_min + 1, 0, family.k_min)
        return member

    __hash__ = object.__hash__


IDENTITY_CHECKS = ("stan1", "stan2", "derangement_sum", "fibonacci_pmf")

# The CLI's ``identities --n-max`` limit; ``identity_check`` takes any n.
IDENTITY_BUDGET = 22

"""The tags a command names: the five families, the four process kinds,
the exact identity checks, and the CLI's ``identities --n-max`` budget.

Each is written here once.  ``families``, ``processes`` and
``diagnostics`` import them from here, and so does the CLI's parser,
which offers them as choices.  This module uses the standard library only,
so building the parser loads no library module.
"""

from __future__ import annotations

import enum


class Family(enum.Enum):
    EULERIAN = "eulerian"
    INVOLUTION = "involution"
    DERANGEMENT = "derangement"
    EXCEDANCE = "excedance"
    FIBONACCI = "fibonacci"

    @property
    def n_min(self) -> int:
        return 2 if self in (Family.DERANGEMENT, Family.EXCEDANCE) else 1

    @property
    def k_min(self) -> int:
        return 1 if self in (Family.DERANGEMENT, Family.EXCEDANCE) else 0


class ProcessKind(enum.Enum):
    INVOLUTION = "involution"
    DERANGEMENT = "derangement"
    FIBONACCI = "fibonacci"
    EXCEDANCE = "excedance"

    @property
    def family(self) -> Family:
        return _FAMILIES[self]

    @property
    def n_min(self) -> int:
        return self.family.n_min

    @property
    def composition_offset(self) -> int:
        """Stage of a part = its ending position plus this offset."""
        return 2 if self in (ProcessKind.DERANGEMENT, ProcessKind.EXCEDANCE) else 0

    @property
    def start(self) -> tuple[int, int, int]:
        """(first update stage m, value at stage m-2, value at stage m-1)."""
        if self in (ProcessKind.DERANGEMENT, ProcessKind.EXCEDANCE):
            return 3, 0, 1
        return 2, 0, 0


# Each kind's family, read on every run: a lookup by value costs five times
# as much as this one.
_FAMILIES = {kind: Family(kind.value) for kind in ProcessKind}

IDENTITY_CHECKS = ("stan1", "stan2", "derangement_sum", "fibonacci_pmf")

# The CLI's ``identities --n-max`` limit; ``identity_check`` takes any n.
IDENTITY_BUDGET = 22

"""Shared exception types."""


class FamilyError(ValueError):
    """Raised when a family/process tag or an index is outside its domain."""


class InfeasibleStateError(ValueError):
    """Raised when a process state or conditioning value is infeasible."""


class RuleError(ValueError):
    """Raised when a jump-probability rule yields values outside [0, 1]
    or a per-stage vector that does not sum to 1."""

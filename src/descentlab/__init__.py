"""Exact descent statistics: triangles, jump processes, decompositions,
and normal-approximation diagnostics."""

from .families import (
    CountTriangle,
    ExactPmf,
    Family,
    counting_sequence,
    descent_triangle,
    triangle_row_pmf,
)
from .compositions import (
    BernoulliSpec,
    Composition,
    JumpProbabilityRule,
    JumpWord,
    binary_sum_moments,
    composition_probability,
    discard_map,
    enumerate_compositions,
    family_rule,
    higher_order_sample,
    sample_composition,
    word_statistic,
)
from .processes import (
    ProcessKind,
    ProcessState,
    Trajectory,
    alpha_term,
    conditional_moment,
    exact_marginal,
    gamma_factor,
    jump_distribution,
    martingale_difference_distribution,
    reconstruct,
    simulate,
)
from .moments import (
    MomentReport,
    central_moments,
    factorial_moment,
    fourth_moment_scan,
    moment_table,
    solve_linear_recurrence,
)
from .diagnostics import (
    CltRecord,
    IdentityReport,
    clt_table,
    condition_scan,
    identity_check,
    kolmogorov_distance,
    psi_variance_check,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliSpec",
    "CltRecord",
    "Composition",
    "CountTriangle",
    "ExactPmf",
    "Family",
    "IdentityReport",
    "JumpProbabilityRule",
    "JumpWord",
    "MomentReport",
    "ProcessKind",
    "ProcessState",
    "Trajectory",
    "alpha_term",
    "batch_finals",
    "binary_sum_moments",
    "central_moments",
    "clt_table",
    "composition_probability",
    "conditional_moment",
    "condition_scan",
    "counting_sequence",
    "descent_triangle",
    "discard_map",
    "enumerate_compositions",
    "exact_marginal",
    "factorial_moment",
    "family_rule",
    "fourth_moment_scan",
    "gamma_factor",
    "higher_order_sample",
    "identity_check",
    "jump_distribution",
    "kolmogorov_distance",
    "martingale_difference_distribution",
    "moment_table",
    "psi_variance_check",
    "reconstruct",
    "sample_composition",
    "simulate",
    "solve_linear_recurrence",
    "triangle_row_pmf",
    "word_statistic",
]


def __getattr__(name):
    # The batch engine loads numpy, which no exact computation needs.
    if name == "batch_finals":
        from .batch import batch_finals

        return batch_finals
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

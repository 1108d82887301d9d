"""Exact descent statistics: triangles, jump processes, decompositions,
and normal-approximation diagnostics.

The public names load on first use (PEP 562): importing the package loads
none of its modules, and ``descentlab.simulate``, say, loads ``processes``
and what it needs.  The batch engine alone loads numpy.
"""

import importlib

__version__ = "0.1.0"

# Each public name's owning module, in one table that also yields __all__.
_OWNERS = {
    "tags": ("Family", "ProcessKind"),
    "families": ("CountTriangle", "ExactPmf", "counting_sequence",
                 "descent_triangle", "triangle_row_pmf"),
    "compositions": ("BernoulliSpec", "Composition", "JumpProbabilityRule",
                     "JumpWord", "binary_sum_moments", "composition_probability",
                     "discard_map", "enumerate_compositions", "family_rule",
                     "higher_order_sample", "sample_composition", "word_statistic"),
    "processes": ("ProcessState", "Trajectory", "alpha_term", "conditional_moment",
                  "exact_marginal", "gamma_factor", "jump_distribution",
                  "martingale_difference_distribution", "reconstruct", "simulate"),
    "moments": ("MomentReport", "central_moments", "factorial_moment",
                "fourth_moment_scan", "moment_table", "solve_linear_recurrence"),
    "diagnostics": ("CltRecord", "IdentityReport", "clt_table", "condition_scan",
                    "identity_check", "kolmogorov_distance", "psi_variance_check"),
    "batch": ("batch_finals",),
}
_MODULE_OF = {name: module for module, names in _OWNERS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

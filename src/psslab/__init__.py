"""Toolkit for critically loaded parallel server systems.

Exact rational LP analysis of the static allocation problem, a
finite-difference solver for the one-dimensional workload equation with
mode switching, Monte Carlo for the reflected-diffusion control problem,
and an event-driven prelimit simulator with pathwise verification of the
workload identity and the lower-bound inequalities.
"""

__version__ = "0.1.0"

from .model import (
    Activity,
    InstanceError,
    PssInstance,
    build_matrices,
    dump_instance,
    load_instance,
)
from .lp import (
    ActivityClass,
    AssumptionError,
    DualSolution,
    LpAnalysis,
    analyze,
    enumerate_modes,
    select_q,
    solve_dual,
    solve_primal,
)
from .hjb import HjbConfig, compute_v0, extract_policy, solve_hjb
from .wcp import estimate_wcp_cost, simulate_wcp
from .qcp import (
    PolicySpec,
    check_trace_inequalities,
    compute_scaled,
    identity_residual_exact,
    run_qcp,
    verify_lower_bound,
)

__all__ = [
    "__version__",
    "Activity",
    "InstanceError",
    "PssInstance",
    "build_matrices",
    "dump_instance",
    "load_instance",
    "ActivityClass",
    "AssumptionError",
    "DualSolution",
    "LpAnalysis",
    "analyze",
    "enumerate_modes",
    "select_q",
    "solve_dual",
    "solve_primal",
    "HjbConfig",
    "compute_v0",
    "extract_policy",
    "solve_hjb",
    "estimate_wcp_cost",
    "simulate_wcp",
    "PolicySpec",
    "check_trace_inequalities",
    "compute_scaled",
    "identity_residual_exact",
    "run_qcp",
    "verify_lower_bound",
]

"""The package-level surface is exactly what the CLI, the tests, the
benchmark and the README use; everything else is reached through its
submodule."""

import psslab

PUBLIC = [
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


def test_all_lists_exactly_the_public_names():
    assert sorted(psslab.__all__) == sorted(PUBLIC)


def test_every_public_name_resolves():
    for name in psslab.__all__:
        assert hasattr(psslab, name), name

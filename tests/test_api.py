import types

import d1q3rv

# Every name d1q3rv exports, so that a change of the public API is a change of this list.
PUBLIC_NAMES = [
    "BatchRun", "GUARD_BAND", "GammaInterval", "Grid1D", "InitialProfile", "ReducedParameters",
    "RegionGrid", "RelaxationFactors", "RunDiagnostics", "RunResult", "ScanSpec",
    "SchemeParameters", "StabilityVerdict", "TAU_MAT", "TAU_STAB", "advance", "alpha_feasible",
    "alpha_interval", "basis_commutator", "build_relaxation_matrix", "chain_bounds",
    "change_basis_relaxation_matrix", "default_grid", "density", "emit_csv", "emit_svg",
    "equilibrium_distributions", "equilibrium_weights", "exact_density",
    "gamma_feasible_interval", "init_state", "matrix_entry_verdict", "necessary_region",
    "nine_inequalities", "parse_csv", "pinned_gamma", "reduced_condition", "reduced_parameters",
    "relaxation_entries_closed_form", "relaxation_factors", "relaxation_matrices", "run",
    "run_batch", "scan", "u_zero_region",
]


def test_the_package_exports_exactly_its_public_names():
    # submodules (d1q3rv.scheme, d1q3rv.cli, ...) are attributes too once imported, not exports
    names = sorted(name for name, value in vars(d1q3rv).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert len(PUBLIC_NAMES) == 45 and names == PUBLIC_NAMES

"""Three-velocity 1D lattice Boltzmann advection scheme with relative velocity."""

from .scheme import (
    SchemeParameters,
    RelaxationFactors,
    TAU_MAT,
    basis_commutator,
    build_relaxation_matrix,
    change_basis_relaxation_matrix,
    equilibrium_distributions,
    equilibrium_weights,
    relaxation_factors,
    relaxation_matrices,
)
from .stability import (
    GUARD_BAND,
    TAU_STAB,
    GammaInterval,
    ReducedParameters,
    StabilityVerdict,
    alpha_feasible,
    alpha_interval,
    chain_bounds,
    gamma_feasible_interval,
    matrix_entry_verdict,
    necessary_region,
    nine_inequalities,
    pinned_gamma,
    reduced_condition,
    reduced_parameters,
    relaxation_entries_closed_form,
    u_zero_region,
)
from .regionscan import RegionGrid, ScanSpec, emit_csv, emit_svg, parse_csv, scan
from .simulator import (
    BatchRun,
    Grid1D,
    InitialProfile,
    RunDiagnostics,
    RunResult,
    advance,
    default_grid,
    density,
    exact_density,
    init_state,
    run,
    run_batch,
)

__version__ = "0.1.0"

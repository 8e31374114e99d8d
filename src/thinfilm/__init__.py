"""Numerical laboratory for a thin liquid film on a cylindrical surface:
closed-form energy-minimizing steady states, a mass-conservative implicit
integrator for the regularized evolution equation, and diagnostics that
check the proven convergence-rate bounds at desk scale."""

from .grid import (
    Field,
    PeriodicGrid,
    constant_field,
    derivative,
    fourier_coeff,
    h1_distance,
    integrate,
    l2_distance,
    linf_distance,
    make_grid,
    read_field_csv,
    spectrum,
    write_field_csv,
)
from .functionals import (
    DiagnosticsSample,
    EntropyResult,
    Params,
    coercivity_bound,
    dissipation,
    energy,
    energy_fourier,
    energy_lower_bound,
    entropy,
    taylor_gap,
)
from .steady import (
    DropletProfile,
    FilmProfile,
    SteadyState,
    catalog,
    el_residual,
    evaluate,
    hanging_drop,
    mass_of_tau,
    minimizer,
    particular_solution,
    sitting_drop,
    smooth_film,
    symmetry_roots_check,
    tau_from_mass,
)
from .evolution import (
    EvolutionState,
    NonConvergence,
    PositivityLoss,
    SchemeConfig,
    TrajectoryRecord,
    run,
    step,
)

__version__ = "0.1.0"

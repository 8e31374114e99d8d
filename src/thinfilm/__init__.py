"""Numerical laboratory for a thin liquid film on a cylindrical surface:
closed-form energy-minimizing steady states, a mass-conservative implicit
integrator for the regularized evolution equation, and diagnostics that
check the proven convergence-rate bounds at desk scale."""

from .grid import (
    Field,
    PeriodicGrid,
    constant_field,
    h1_distance,
    integrate,
    l2_distance,
    linf_distance,
    make_grid,
    read_field_csv,
    write_field_csv,
)
from .functionals import (
    DiagnosticsSample,
    Params,
    dissipation,
    energy,
    entropy,
)
from .steady import (
    DropletProfile,
    FilmProfile,
    SteadyState,
    catalog,
    evaluate,
    hanging_drop,
    mass_of_tau,
    minimizer,
    particular_solution,
    sitting_drop,
    smooth_film,
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

"""hyperadams: numerical laboratory for sharp exponential-class inequalities
and Q-curvature-type PDE on the hyperbolic ball."""

__version__ = "0.1.0"

from .ball import (
    DimensionParams,
    DiskGrid,
    RadialFunction,
    RadialGrid,
    euclidean_to_geodesic,
    geodesic_to_euclidean,
    hyperbolic_translate,
    integrate_radial,
    pushforward_2d,
)
from .extremals import (
    BlowupRecord,
    MoserProfile,
    blowup_experiment,
    build_moser_profile,
    moser_energy,
    sobolev_upper_experiment,
)
from .inequalities import (
    adams_functional,
    beta0,
    check_owen,
    check_poincare_chain,
    linearized_adams_bound,
    liu_constant,
    moser_alpha,
    moser_normalizer,
    owen_constant,
    scalar_inequality_suite,
)
from .operators import (
    EnergyReport,
    GJMSOperator,
    euclidean_gradk_energy,
    euclidean_laplacian_radial,
    gjms_assemble,
    gjms_energy,
    hyperbolic_laplacian_radial,
    sobolev_energy,
)
from .pde import (
    PDEProblem,
    SolveResult,
    solve_convex,
    solve_log_constrained,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Numerics for singular vertex couplings on star graphs.

The package computes, in closed form, the resolvent kernel, spectrum, and
on-shell S-matrix of a generalized delta'-type vertex coupling on a star
graph, builds the approximating family of Schroedinger operators with
singularly scaled rank-one (nonlocal) potentials exactly at finite eps,
and verifies the norm-resolvent and S-matrix convergence rates against an
independent finite-difference oracle.
"""

from .config import load_config
from .epsilon import (
    EpsKernel,
    EpsOperator,
    PoleResult,
    find_pole,
    inner_RV_V,
    pole_asymptotic,
    pole_equation,
    rank_one_factor,
    zeta,
)
from .errors import (
    AtPole,
    ConfigError,
    DegenerateTheta,
    FredholmSingular,
    GridTooCoarse,
    MeanViolation,
    QuadratureNotConverged,
    ResonantWithZeroA,
    RootSearchFailed,
    SingularSystem,
    StarCouplingError,
    SupportViolation,
)
from .experiments import (
    cmd_constants,
    cmd_converge,
    cmd_oracle,
    cmd_spectrum,
    fit_rate,
    hs_distance,
    write_report,
)
from .fdoracle import (
    DiscreteStarGraph,
    oracle_eigenvalue,
    oracle_resolvent_column,
    oracle_smatrix,
)
from .graph import (
    BoundaryPair,
    CouplingConstants,
    EdgeCoordinate,
    ScalingFunction,
    StarPotential,
    boundary_matrices,
    check_selfadjoint,
    constant_A,
    constants_B_Pi,
    coupling_beta,
    coupling_constants,
    moments_theta,
    validate_potential,
)
from .limit import (
    FreeKernel,
    LimitKernel,
    lambda_matrix,
    lambda_matrix_direct,
    limit_point_spectrum,
    limit_pole,
    smatrix_direct,
    smatrix_limit,
)
from .piecewise import PiecewisePolynomial
from .quadrature import QuadratureRule
from .scattering import (
    assemble_F,
    assemble_W,
    fredholm,
    fredholm_D_direct,
    scattering_solution,
    scattering_solution_deriv,
    scattering_solution_eval,
    smatrix_eps,
)

__version__ = "0.1.0"

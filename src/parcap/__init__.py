"""Numerical parabolic potential theory for the heat equation.

Capacities of compact space-time sets through pole-normalized kernels, the
shell-series removability diagnostic with its half-space duality, exact
simulation of the pole-conditioned Brownian process, and heat-ball averaging
identities with verification-grade quadrature.
"""

__version__ = "0.1.0"

from .kernel import (
    DimensionMismatchError,
    DomainError,
    HalfSpace,
    PoleContext,
    SpaceTimePoint,
    h_pole,
    h_star,
    h_tilde,
    h_tilde_star,
    heat_kernel,
    heat_operator_fd,
    kernel_ratio,
    kernel_ratio_matrix,
    lower_context,
    point,
    upper_context,
)
from .measures import DiscreteMeasure
from .appell import (
    AppellDirection,
    BoundaryTag,
    appell_map,
    appell_transform,
    push_measure,
    verify_h_identities,
)
from .regions import (
    AppellImage,
    Complement,
    ConstProfile,
    EmptyRegion,
    FullRegion,
    HalfSpaceCut,
    Intersection,
    PowerProfile,
    Region,
    SpaceBall,
    TableProfile,
    TimeSlab,
    Tube,
    Union,
    region_from_json,
    tube_profile_from_csv,
)
from .geometry import (
    CompactSet,
    DyadicShells,
    HeatBall,
    HeatBallRegion,
    HeatShell,
    NodeCloud,
    Resolution,
    ball_radius,
    discretize,
    dyadic_shell,
    harnack_region,
    LevelShells,
    ShellFamily,
)
from .capacity import (
    CapacityResult,
    Refinement,
    SolverFailure,
    build_collocation,
    capacity,
    capacity_of_region,
    potential,
    potential_batch,
)
from .wiener import (
    ClassifyPolicy,
    SeriesReport,
    Verdict,
    classify,
    series_terms,
)
from .hbrownian import (
    ClusterEstimate,
    ClusterPolicy,
    ClusterVerdict,
    GridPolicy,
    PathEnsemble,
    cluster_probability,
    simulate,
    step_normals,
    transition_parameters,
    transition_sample,
    wilson_interval,
)
from .averaging import (
    GapResult,
    HarnackResult,
    PreconditionError,
    QuadratureError,
    QuadratureSpec,
    QuadResult,
    harnack_check,
    mean_value,
    phi,
    phi_prime,
    subparabolic_gap,
    weighted_heat_residual,
)

"""Sequential passivity verification and synthesis for cascade networks.

The package decomposes a global state-strict passivity certificate for a
chain of coupled linear subsystems into one small feasibility problem per
subsystem, solved in index order with a single forward message per link.

Modules:
    model            subsystem and network containers plus validation
    blockla          block tri-diagonal factorizations and Cholesky tools
    lmi              deterministic affine matrix-feasibility solver
    protocol         the sequential design itself
    oracle           centralized algebraic and simulation checks
    files            canonical JSON persistence
    sample_cascades  worked instances for demos and tests
    cli              command-line front end
"""

from .model import (
    Subsystem,
    CouplingBlock,
    CascadeNetwork,
    GlobalSystem,
    Violation,
    ValidationReport,
    InvalidNetwork,
    validate_network,
    assemble_global,
    extend_network,
)
from .blockla import (
    NotPositiveDefinite,
    AsymmetricMatrix,
    NonFiniteMatrix,
    BlockTriDiagonal,
    TriDiagFactor,
    symmetric_part,
    cholesky_lower,
    tridiag_pd_sequence,
)
from .lmi import (
    AffineFeasibilityProblem,
    FeasiblePoint,
    Infeasible,
    PointCertificate,
    MalformedProblem,
    solve_feasibility,
    certify_point,
)
from .protocol import (
    EPS_MIN,
    ROUTE_VERIFIED,
    ROUTE_SYNTHESIZED,
    DimensionMismatch,
    DesignFailed,
    MissingMargin,
    MessengerPacket,
    DesignRecord,
    NetworkDesignState,
    local_verify,
    local_synthesize,
    build_packet,
    run_cascade_design,
    add_subsystem,
    design_tridiagonal,
)
from .oracle import (
    NonFiniteTrajectory,
    TrajectoryTooLarge,
    ClosedLoopSystem,
    Certificate,
    Trajectory,
    SineDisturbance,
    assemble_closed_loop,
    sp_matrix,
    centralized_sp_check,
    worst_start,
    simulate,
    dissipation_margin,
    export_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Subsystem",
    "CouplingBlock",
    "CascadeNetwork",
    "GlobalSystem",
    "Violation",
    "ValidationReport",
    "InvalidNetwork",
    "validate_network",
    "assemble_global",
    "extend_network",
    "NotPositiveDefinite",
    "AsymmetricMatrix",
    "NonFiniteMatrix",
    "BlockTriDiagonal",
    "TriDiagFactor",
    "symmetric_part",
    "cholesky_lower",
    "tridiag_pd_sequence",
    "AffineFeasibilityProblem",
    "FeasiblePoint",
    "Infeasible",
    "PointCertificate",
    "MalformedProblem",
    "solve_feasibility",
    "certify_point",
    "EPS_MIN",
    "ROUTE_VERIFIED",
    "ROUTE_SYNTHESIZED",
    "DimensionMismatch",
    "DesignFailed",
    "MissingMargin",
    "MessengerPacket",
    "DesignRecord",
    "NetworkDesignState",
    "local_verify",
    "local_synthesize",
    "build_packet",
    "run_cascade_design",
    "add_subsystem",
    "design_tridiagonal",
    "NonFiniteTrajectory",
    "TrajectoryTooLarge",
    "ClosedLoopSystem",
    "Certificate",
    "Trajectory",
    "SineDisturbance",
    "assemble_closed_loop",
    "sp_matrix",
    "centralized_sp_check",
    "worst_start",
    "simulate",
    "dissipation_margin",
    "export_trajectory_csv",
    "__version__",
]

"""Low-rank short-recurrence solvers for multiterm matrix equations.

Solves ``A_1 X B_1 + ... + A_p X B_p = C @ D.T`` with factored low-rank
iterates, rank truncation, randomized residual sketching, and one- or
two-term (ADI) preconditioning.
"""

from .lowrank import (
    DENSIFY_CAP,
    LowRankMatrix,
    ShapeError,
    TruncationConfig,
    factored_sum,
    truncate,
)
from .operator import (
    MultitermEquation,
    apply_L,
    apply_Lstar,
    residual_factored,
)
from .precond import (
    NonePreconditioner,
    OneTermPreconditioner,
    PreconditionerSpec,
    TwoTermAdiPreconditioner,
    build_preconditioner,
    wachspress_shifts,
)
from .problems import (
    ConvDiffSpec,
    build_convdiff,
    load_manifest,
    save_manifest,
)
from .reduced import (
    InnerSolveConfig,
    ReducedSystem,
    alpha_rhs,
    beta_rhs,
    build_reduced,
    solve_reduced,
)
from .sketch import (
    SketchOperator,
    make_sketch,
    sketched_residual_truncate,
    sketches,
)
from .solver import (
    IterationInfo,
    SolveReport,
    SolverConfig,
    solve,
    true_residual,
)

__version__ = "0.1.0"

__all__ = [
    "DENSIFY_CAP",
    "ConvDiffSpec",
    "InnerSolveConfig",
    "IterationInfo",
    "LowRankMatrix",
    "MultitermEquation",
    "NonePreconditioner",
    "OneTermPreconditioner",
    "PreconditionerSpec",
    "ReducedSystem",
    "ShapeError",
    "SketchOperator",
    "SolveReport",
    "SolverConfig",
    "TruncationConfig",
    "TwoTermAdiPreconditioner",
    "alpha_rhs",
    "apply_L",
    "apply_Lstar",
    "beta_rhs",
    "build_convdiff",
    "build_preconditioner",
    "build_reduced",
    "factored_sum",
    "load_manifest",
    "make_sketch",
    "residual_factored",
    "save_manifest",
    "sketched_residual_truncate",
    "sketches",
    "solve",
    "solve_reduced",
    "truncate",
    "true_residual",
    "wachspress_shifts",
]

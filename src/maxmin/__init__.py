"""maxmin: ball-oracle accelerated minimization of the maximum of convex
functions over a Euclidean ball or truncated simplex."""

from .accelerator import SolverReport, accelerate, stopping_threshold
from .apps import solve_matrix_game, solve_meb, solve_smooth_max, subgradient_baseline
from .ball_oracle import OracleResult, li_md, restricted_oracle
from .estimator import SoftmaxGradientEstimator
from .geometry import (
    GeometrySetup,
    Kind,
    ball_setup,
    bregman,
    domain_radius_bound,
    prox_step,
    simplex_setup,
    tau,
)
from .maintenance import MatVecMaintainer
from .problems import (
    LinearMaxProblem,
    MatrixGameInstance,
    MaxProblem,
    MebInstance,
    QuadraticMaxProblem,
)
from .sketches import CountSketchMve, ExactMve, SampleMve, mve_init

__version__ = "0.1.0"

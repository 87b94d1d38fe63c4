"""Oracle families {f_i} and the concrete instance types built on them;
each instance type answers ``problem()``, its family, and ``domain()``,
the untruncated domain it is minimized over."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite, NormBoundViolated
from .geometry import GeometrySetup, ball_setup, simplex_setup

_NORM_TOL = 1e-9


def _check_finite(name: str, a: np.ndarray) -> None:
    # a NaN passes every norm-bound comparison, so it is caught here
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} has non-finite entries")


def check_norm(a: np.ndarray, p: int) -> None:
    """Raise NormBoundViolated unless every row of ``a`` has l2 norm
    (p = 2) or largest entry magnitude (p = 1) at most 1: the unit bound
    ||A||_{p->inf} <= 1 on the map x -> A x."""
    if a.size == 0:
        return
    # a row norm that overflows is inf, which fails the bound below
    with np.errstate(over="ignore"):
        nrm = float(np.max(np.linalg.norm(a, axis=1))) if p == 2 else float(np.max(np.abs(a)))
    if nrm > 1.0 + _NORM_TOL:
        raise NormBoundViolated(f"||A||_{{{p}->inf}} = {nrm:.6g} exceeds 1")


class MaxProblem:
    """Family f_1..f_n of convex functions with Lipschitz/smoothness bounds.

    Subclasses provide ``value(i, x)``, ``values_all(x)`` (all n values),
    ``grad(i, x)`` and ``grad_matrix(x)`` (all gradients as an (n, d)
    matrix); everything the solver needs (softmax values, anchor
    gradients) goes through these.
    """

    n: int
    d: int
    lip: float  # bound on ||grad f_i||_{p*}
    smooth: float  # bound on the gradient's Lipschitz constant
    # strong-convexity modulus: f_i(x) >= f_i(y) + <grad f_i(y), x - y> + mu/2 ||x - y||^2
    mu: float

    def f_max(self, x: np.ndarray) -> float:
        return float(self.values_all(x).max())

    def max_subgradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient of a maximizing component (subgradient of f_max)."""
        return self.grad(int(np.argmax(self.values_all(x))), x)


class LinearMaxProblem(MaxProblem):
    """f_i(x) = <a_i, x> for the rows of an (n, d) matrix, whose rows are
    taken to meet the unit bound in the domain's dual norm (games check
    it), so L_f = 1."""

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise DimensionMismatch("rows must be an (n, d) matrix")
        self.rows = rows
        self.n, self.d = rows.shape
        self.lip = 1.0
        self.smooth = 0.0
        self.mu = 0.0

    def value(self, i, x):
        return float(self.rows[i].dot(x))

    def values_all(self, x):
        return self.rows @ x

    def grad(self, i, x):
        return self.rows[i].copy()

    def grad_matrix(self, x):
        return self.rows


class QuadraticMaxProblem(MaxProblem):
    """f_i(x) = 1/2 ||x - p_i||^2 + c_i on the unit ball."""

    def __init__(self, centers: np.ndarray, offsets: np.ndarray | None = None):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise DimensionMismatch("centers must be an (n, d) matrix with n >= 1")
        self.centers = centers
        self.n, self.d = centers.shape
        self.offsets = (
            np.zeros(self.n) if offsets is None else np.asarray(offsets, dtype=float).copy()
        )
        _check_finite("centers", centers)
        _check_finite("offsets", self.offsets)
        self.smooth = 1.0
        self.mu = 1.0
        # gradient bound over the unit ball: max ||x - p_i||
        with np.errstate(over="ignore"):
            self.lip = float(1.0 + np.max(np.linalg.norm(centers, axis=1)))
        if not math.isfinite(self.lip):
            raise NonFinite("centers overflow float64 in the gradient bound")

    def value(self, i, x):
        diff = x - self.centers[i]
        return 0.5 * float(diff.dot(diff)) + self.offsets.item(i)

    def values_all(self, x):
        diff = x[None, :] - self.centers
        return 0.5 * (diff * diff).sum(axis=1) + self.offsets

    def grad(self, i, x):
        return x - self.centers[i]

    def grad_matrix(self, x):
        return x[None, :] - self.centers

    # the quadratics instance is its own family
    def problem(self) -> QuadraticMaxProblem:
        return self

    def domain(self) -> GeometrySetup:
        return ball_setup(self.d)


# ---------------------------------------------------------------------------
# Instances


@dataclass
class MatrixGameInstance:
    """Bilinear game min_{x} max_{y in simplex} x^T A y with d x n payoff A.

    ``kind`` selects the primal domain: "l2l1" for the unit ball, "l1l1"
    for the simplex.  Columns must satisfy the unit operator-norm bound.
    """

    matrix: np.ndarray
    kind: str  # "l2l1" | "l1l1"

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[1] < 1:
            raise DimensionMismatch("payoff matrix must be 2-D with at least one column")
        if self.kind not in ("l2l1", "l1l1"):
            raise NormBoundViolated(f"unknown game kind {self.kind!r}")
        _check_finite("payoff matrix", self.matrix)
        # each column's dual norm: l2 for the ball, linf for the simplex
        check_norm(self.matrix.T, 2 if self.is_ball else 1)

    @property
    def is_ball(self) -> bool:
        return self.kind == "l2l1"

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def problem(self) -> LinearMaxProblem:
        return LinearMaxProblem(self.matrix.T)

    def domain(self) -> GeometrySetup:
        """The unit ball, or the untruncated simplex (nu = 0)."""
        return ball_setup(self.d) if self.is_ball else simplex_setup(self.d, 0.0)


@dataclass
class MebInstance:
    """Point set for minimum enclosing ball, normalized so a_1 = 0 and
    max ||a_i|| = 1; ``shift``/``scale`` map back to input coordinates."""

    points: np.ndarray
    shift: np.ndarray = field(init=False)
    scale: float = field(init=False)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).copy()
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise DimensionMismatch("need an (n, d) array with n >= 1")
        _check_finite("points", pts)
        self.shift = pts[0].copy()
        with np.errstate(over="ignore"):
            pts = pts - self.shift
            nrm = float(np.max(np.linalg.norm(pts, axis=1)))
        # a finite largest norm keeps every normalized point finite
        if not math.isfinite(nrm):
            raise NonFinite("points overflow float64 when shifted and scaled")
        self.scale = nrm if nrm > 0.0 else 1.0
        self.points = pts / self.scale

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def problem(self) -> QuadraticMaxProblem:
        return QuadraticMaxProblem(self.points)

    def domain(self) -> GeometrySetup:
        return ball_setup(self.d)

    def to_input_coords(self, center: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
        return center * self.scale + self.shift, radius * self.scale

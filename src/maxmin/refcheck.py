"""Brute-force reference oracles and the selftests' statistical bounds.

Everything here is deliberately independent of the solver code paths it
validates: exact mat-vecs use compensated summation, prox subproblems are
solved by projected gradient descent with Euclidean projections, and the
minimum enclosing ball oracle is the classical randomized incremental
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParams
from .geometry import GeometrySetup, Kind


@dataclass(frozen=True)
class ReferenceBudget:
    max_iters: int = 20000
    tolerance: float = 1e-10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.tolerance < 1e-12:
            raise InvalidParams("tolerance below 1e-12 is not supported")


def exact_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x with per-row compensated (fsum) accumulation."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.array([math.fsum(row * x) for row in a])


def softmax_from_values(values: np.ndarray, eps_prime: float) -> np.ndarray:
    z = np.asarray(values, dtype=float) / eps_prime
    z = z - z.max()
    w = np.exp(z)
    return w / math.fsum(w)


def exact_softmax_dist(problem, x: np.ndarray, eps_prime: float) -> np.ndarray:
    """Distribution proportional to exp(f_i(x) / eps_prime), in log space."""
    return softmax_from_values(problem.values_all(x), eps_prime)


# ---------------------------------------------------------------------------
# Euclidean projections (independent of geometry.py's mirror machinery)


def project_ball(x: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(x))
    return x / nrm if nrm > 1.0 else x


def project_truncated_simplex(p: np.ndarray, nu: float) -> np.ndarray:
    """Euclidean projection onto {x : x >= nu, sum x = 1} by sorting."""
    d = p.size
    if nu * d > 1.0 + 1e-12:
        raise InvalidParams("truncated simplex is empty")
    q = np.sort(p)[::-1]
    csum = np.cumsum(q)
    # theta for support size m: entries above theta + nu stay free
    for m in range(d, 0, -1):
        theta = (csum[m - 1] - (1.0 - (d - m) * nu)) / m
        if q[m - 1] - theta >= nu - 1e-15:
            return np.maximum(p - theta, nu)
    return np.full(d, 1.0 / d)


def _project(setup: GeometrySetup, x: np.ndarray) -> np.ndarray:
    if setup.kind is Kind.BALL:
        return project_ball(x)
    return project_truncated_simplex(x, setup.nu)


def brute_minimize(
    setup: GeometrySetup,
    value: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x_init: np.ndarray,
    budget: ReferenceBudget = ReferenceBudget(),
) -> np.ndarray:
    """Projected gradient descent with backtracking, run to stationarity.

    Stationarity is measured by the norm of the projected gradient step;
    the projection is Euclidean in both setups, so this never shares code
    with the mirror-descent path it is used to validate.
    """
    x = _project(setup, np.asarray(x_init, dtype=float).copy())
    step = 1.0
    fx = value(x)
    for _ in range(budget.max_iters):
        g = grad(x)
        for _ in range(60):
            cand = _project(setup, x - step * g)
            fc = value(cand)
            if fc <= fx - 0.5 / step * float(np.sum((cand - x) ** 2)) + 1e-18:
                break
            step *= 0.5
        move = float(np.linalg.norm(cand - x))
        x, fx = cand, fc
        step = min(step * 2.0, 1e6)
        if move / max(step, 1e-18) < budget.tolerance:
            break
    return x


def exact_prox(
    setup: GeometrySetup,
    h_value: Callable[[np.ndarray], float],
    h_grad: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    lam: float,
    budget: ReferenceBudget = ReferenceBudget(),
) -> np.ndarray:
    """argmin_x h(x) + lam * V_y(x), by projected gradient descent."""
    if setup.kind is Kind.BALL:

        def value(x: np.ndarray) -> float:
            return h_value(x) + lam * 0.5 * float(np.sum((x - y) ** 2))

        def grad(x: np.ndarray) -> np.ndarray:
            return h_grad(x) + lam * (x - y)

    else:
        ly = np.log(y)

        def value(x: np.ndarray) -> float:
            xs = np.maximum(x, 1e-300)
            return h_value(x) + lam * float(np.sum(xs * (np.log(xs) - ly)))

        def grad(x: np.ndarray) -> np.ndarray:
            xs = np.maximum(x, 1e-300)
            return h_grad(x) + lam * (np.log(xs) - ly + 1.0)

    return brute_minimize(setup, value, grad, y, budget)


# ---------------------------------------------------------------------------
# Matrix games


def best_response_value(ay: np.ndarray, ball_domain: bool) -> float:
    """min_x x^T ay over the primal domain, given the product ay = A y."""
    if ball_domain:
        return -float(np.linalg.norm(ay))
    return float(ay.min())


def duality_gap(inst, x: np.ndarray, y: np.ndarray) -> float:
    """f_max(x) minus the best-response lower bound of the dual vector y.

    Always nonnegative up to roundoff; zero only at a saddle point.
    """
    fmax = float(np.max(inst.matrix.T @ x))
    lower = best_response_value(inst.matrix @ y, inst.is_ball)
    return fmax - lower


# ---------------------------------------------------------------------------
# Minimum enclosing ball (exact, d <= 3)


def _circumball(boundary: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
    """Smallest ball with all boundary points on its surface (affine solve)."""
    pts = np.asarray(boundary, dtype=float)
    if len(pts) == 0:
        return np.zeros(1), -1.0
    base = pts[0]
    if len(pts) == 1:
        return base.copy(), 0.0
    rel = pts[1:] - base
    rhs = 0.5 * np.sum(rel * rel, axis=1)
    sol, *_ = np.linalg.lstsq(rel, rhs, rcond=None)
    center = base + sol
    radius = float(np.max(np.linalg.norm(pts - center, axis=1)))
    return center, radius


def _in_ball(p: np.ndarray, center: np.ndarray, radius: float) -> bool:
    return float(np.linalg.norm(p - center)) <= radius + 1e-10 * max(1.0, radius)


def welzl_meb(points: np.ndarray, rng_seed: int = 0) -> tuple[np.ndarray, float]:
    """Exact minimum enclosing ball by Welzl's randomized recursion (d <= 3)."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if d > 3:
        raise InvalidParams("exact MEB oracle only supports d <= 3")
    order = np.random.Generator(np.random.Philox(rng_seed)).permutation(n)
    pts = pts[order]

    def solve(limit: int, boundary: list[np.ndarray]) -> tuple[np.ndarray, float]:
        if limit == 0 or len(boundary) == d + 1:
            if not boundary:
                return pts[0].copy(), 0.0 if limit == 0 and n > 0 else -1.0
            return _circumball(boundary)
        center, radius = solve(limit - 1, boundary)
        p = pts[limit - 1]
        if radius >= 0.0 and _in_ball(p, center, radius):
            return center, radius
        return solve(limit - 1, boundary + [p])

    if n == 0:
        raise InvalidParams("need at least one point")
    if n == 1:
        return pts[0].copy(), 0.0
    center, radius = solve(n, [])
    return center, radius


# ---------------------------------------------------------------------------
# Statistical bounds (shared by the selftests and the test suites)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def binomial_slack_bound(delta: float, trials: int, widen: float = 3.0) -> float:
    """delta + widen * sqrt(delta (1 - delta) / trials): allowed failure rate."""
    return delta + widen * math.sqrt(delta * (1.0 - delta) / trials)

"""Brute-force reference oracles that only the test suites use.

Each is deliberately independent of the solver code path it validates:
prox subproblems are solved by projected gradient descent with
Euclidean projections, and a game's dual bound is its best-response
value computed directly from A y.  The worst-case oracle bounds, the
exact smoothed max and the domain membership test are formulas the tests
check the solver against.  They live beside the tests rather than in the
library, with ``stat_checks``; ``maxmin.refcheck`` keeps the references
the selftests and the benchmark use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize, nnls

from maxmin.ball_oracle import STEP_CONSTANT, bisection_round_limit
from maxmin.errors import InvalidParams
from maxmin.geometry import GeometrySetup, Kind
from maxmin.problems import MatrixGameInstance, MaxProblem

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class ReferenceBudget:
    max_iters: int = 20000
    tolerance: float = 1e-10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.tolerance < 1e-12:
            raise InvalidParams("tolerance below 1e-12 is not supported")


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


def shifted_game(d: int, n: int) -> MatrixGameInstance:
    """An l2l1 game with unit columns a_i = normalize(g_i / sqrt(d) + 0.5 u)
    for Gaussian g_i and one unit drift u, drawn from
    ``default_rng([0, d, n])``.  The drift keeps the origin out of the
    columns' hull, so the start x0 = 0, where f_max = 0, misses v* < 0."""
    rng = np.random.default_rng([0, d, n])
    g = rng.standard_normal((d, n))
    u = rng.standard_normal(d)
    a = g / math.sqrt(d) + 0.5 * (u / np.linalg.norm(u))[:, None]
    return MatrixGameInstance(a / np.linalg.norm(a, axis=0), "l2l1")


def ball_game_value(inst: MatrixGameInstance, weight: float = 1e3) -> float:
    """v* = -||p|| of an l2l1 game, for p the min-norm point of its
    columns' hull: nonnegative least squares on [A; w 1^T] lam ~ [0; w]
    puts the sum-to-one row in with weight w, and lam is normalized.  The
    KKT condition of p, min_i <a_i, p> = ||p||^2, is asserted to 1e-12."""
    a = inst.matrix
    d, n = a.shape
    lam, _ = nnls(np.vstack([a, np.full((1, n), weight)]), np.append(np.zeros(d), weight))
    p = a @ (lam / lam.sum())
    pp = float(p @ p)
    assert abs(float((a.T @ p).min()) - pp) <= 1e-12
    return -math.sqrt(pp)


def ball_min_upper(problem: MaxProblem) -> float:
    """f_max at a point of the unit ball near its minimizer, so at least
    min_ball f_max and, for a convex family, tight to SLSQP's accuracy:
    min t subject to t >= f_i(x) and ||x||^2 <= 1, with the solution
    projected onto the ball to keep it feasible whatever SLSQP returns."""
    d = problem.d
    x0 = np.zeros(d)
    res = minimize(
        lambda z: z[-1], np.append(x0, problem.f_max(x0)),
        jac=lambda z: np.append(np.zeros(d), 1.0), method="SLSQP",
        constraints=[
            {"type": "ineq", "fun": lambda z: z[-1] - problem.values_all(z[:-1]),
             "jac": lambda z: np.hstack([-problem.grad_matrix(z[:-1]),
                                         np.ones((problem.n, 1))])},
            {"type": "ineq", "fun": lambda z: 1.0 - z[:-1] @ z[:-1],
             "jac": lambda z: np.append(-2.0 * z[:-1], 0.0)},
        ],
        options={"ftol": 1e-14, "maxiter": 500},
    )
    return problem.f_max(project_ball(res.x[:-1]))


# Formulas the solver is checked against


def contains(setup: GeometrySetup, x: np.ndarray, tol: float = _FEAS_TOL) -> bool:
    """Whether x lies in the setup's domain, up to tol."""
    if x.shape != (setup.dim,):
        return False
    if setup.kind is Kind.BALL:
        return bool(np.dot(x, x) <= (1.0 + tol) ** 2)
    return bool(
        np.all(x >= setup.nu - tol) and abs(float(np.sum(x)) - 1.0) <= tol * max(1.0, setup.dim)
    )


def f_smax(problem: MaxProblem, x: np.ndarray, eps_prime: float) -> float:
    """The smoothed max eps' log sum_i exp(f_i(x) / eps')."""
    z = problem.values_all(x) / eps_prime
    m = float(z.max())
    return eps_prime * (m + math.log(float(np.sum(np.exp(z - m)))))


def movement_bound(rho: float, tau_val: float, gamma_bound: float) -> float:
    """Worst-case total query movement of one oracle call (the inner
    logarithm is twice the largest per-call iteration budget)."""
    k_max = bisection_round_limit(tau_val, gamma_bound, rho)
    inner = 8.0 * STEP_CONSTANT * tau_val * gamma_bound**2 / rho**2
    return rho * 2.0 * k_max * math.log(max(inner, math.e))


def query_budget_bound(rho: float, tau_val: float, gamma_bound: float) -> float:
    """Upper bound on the total gradient calls of one oracle call: the
    per-run budget at lam = 1 summed over the initial probe and every
    possible bisection round (the accepted probe is the output)."""
    k_max = bisection_round_limit(tau_val, gamma_bound, rho)
    t_max = 4.0 * STEP_CONSTANT * tau_val * (gamma_bound / rho) ** 2
    return (k_max + 1.0) * (t_max + 1.0)

"""Benchmark workloads: instance generators, exact references, the solve
call each workload makes, and the correctness gate.

Every instance comes from the workload seed and its index in the run's
pool.  The solver sees only the generated instance and a solve seed.
Exact references come from code outside the solver: an LP for the game
values and Welzl's algorithm for the enclosing ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linprog

from maxmin import apps, refcheck
from maxmin.errors import MaxminError
from maxmin.geometry import ball_setup, simplex_setup
from maxmin.problems import MebInstance, QuadraticMaxProblem

# a certificate may not report a gap below the true error by more than this
CERTIFICATE_SLACK = 1e-9
_FEASIBILITY_TOL = 1e-9

# planted strengths alternate through the pool; 0.3 misses eps today
PLANTED_MU = (0.5, 0.3)
# accuracy of the untimed warm-up solve: the same code paths as the
# workload's solves, in fewer rounds
WARMUP_EPS = 0.9


def _wide_rows(rng: np.random.Generator, index: int) -> tuple[str, np.ndarray]:
    a = rng.standard_normal((20, 10_000))
    a /= np.linalg.norm(a, axis=0, keepdims=True)
    return "game_l2l1", a.T  # instance files store the columns a_i as rows


def _planted_rows(rng: np.random.Generator, index: int) -> tuple[str, np.ndarray]:
    mu = PLANTED_MU[index % len(PLANTED_MU)]
    a = (1.0 - mu) * rng.uniform(-1.0, 1.0, size=(50, 100))
    a[0] = -mu  # x = e_1 pays -mu against every column
    return "game_l1l1", a.T


def _meb_rows(rng: np.random.Generator, index: int) -> tuple[str, np.ndarray]:
    return "meb", rng.standard_normal((200, 3))


@dataclass(frozen=True)
class Workload:
    name: str
    eps: float
    pool: int  # instances solved once per run
    make_rows: Callable[[np.random.Generator, int], tuple[str, np.ndarray]]

    def rows(self, seed: int, index: int) -> tuple[str, np.ndarray]:
        return self.make_rows(np.random.default_rng([seed, index]), index)

    def solve_seed(self, seed: int, index: int) -> int:
        return seed * 1000 + index


WORKLOADS = {
    w.name: w
    for w in (
        Workload("game-wide", 0.5, 3, _wide_rows),
        Workload("game-simplex-planted", 0.2, 2, _planted_rows),
        Workload("meb", 0.01, 8, _meb_rows),
    )
}


def reference(inst) -> float:
    """Exact optimum: the game value v*, or Welzl's radius for MEB."""
    if isinstance(inst, MebInstance):
        points = inst.points * inst.scale + inst.shift
        return refcheck.welzl_meb(points)[1]
    a = inst.matrix
    d, n = a.shape
    if inst.is_ball:
        # v* = -dist(0, hull of the columns); 0 exactly when the origin is
        # a convex combination of them
        res = linprog(
            np.zeros(n), A_eq=np.vstack([a, np.ones((1, n))]),
            b_eq=np.append(np.zeros(d), 1.0), bounds=(0.0, None), method="highs",
        )
        if res.status != 0:
            raise RuntimeError("origin is outside the columns' hull; v* is not 0")
        return 0.0
    # min t  s.t.  A^T x <= t,  x in the simplex
    res = linprog(
        np.append(np.zeros(d), 1.0),
        A_ub=np.hstack([a.T, -np.ones((n, 1))]), b_ub=np.zeros(n),
        A_eq=np.append(np.ones(d), 0.0)[None, :], b_eq=[1.0],
        bounds=[(0.0, None)] * d + [(None, None)], method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


@dataclass
class Outcome:
    """One solve, checked against its exact reference."""

    report: object | None  # SolverReport; None when the solve raised
    err: float
    passed: bool
    silent_error: str  # non-empty when the output is wrong and the program did not say so
    note: str

    @property
    def evals(self) -> int:
        return self.report.func_evals + self.report.grad_evals if self.report else 0

    @property
    def rounds(self) -> int:
        return self.report.outer_iterations if self.report else 0


def solve(inst, eps: float, seed: int):
    """The front-end call ``maxmin solve`` makes for this instance kind."""
    if isinstance(inst, MebInstance):
        return apps.solve_meb(inst, eps, seed=seed)
    return apps.solve_matrix_game(inst, eps, seed=seed)


def check(inst, eps: float, ref: float, result) -> Outcome:
    """Gate one solve's result (or the MaxminError it raised)."""
    if isinstance(result, MaxminError):
        return Outcome(None, math.inf, False, "", f"raised {type(result).__name__}: {result}")
    if isinstance(inst, MebInstance):
        center, radius, report = result
        points = inst.points * inst.scale + inst.shift
        if not (np.all(np.isfinite(center)) and math.isfinite(radius)):
            return Outcome(report, math.inf, False, "non-finite ball", "")
        reach = float(np.max(np.linalg.norm(points - center, axis=1)))
        if reach > radius * (1.0 + _FEASIBILITY_TOL):
            return Outcome(report, math.inf, False, "ball misses a point", "")
        err = radius / ref - 1.0
        return Outcome(report, err, err <= eps, "", "")
    x, report = result
    if not np.all(np.isfinite(x)):
        return Outcome(report, math.inf, False, "non-finite x", "")
    if inst.is_ball:
        feasible = float(np.linalg.norm(x)) <= 1.0 + _FEASIBILITY_TOL
    else:
        feasible = bool(np.all(x >= -_FEASIBILITY_TOL)) and abs(x.sum() - 1.0) <= _FEASIBILITY_TOL
    if not feasible:
        return Outcome(report, math.inf, False, "infeasible x", "")
    err = float(np.max(inst.matrix.T @ x)) - ref
    gap = report.extras["gap"]
    if gap < err - CERTIFICATE_SLACK:
        return Outcome(report, err, False, f"certified gap {gap:.6g} < true error {err:.6g}", "")
    return Outcome(report, err, err <= eps, "", "")


@dataclass
class Baseline:
    wall_s: float
    evals: int
    err: float


def subgradient(inst, eps: float, ref: float) -> Baseline:
    """The subgradient control ``maxmin bench`` runs beside the solver."""
    steps = max(1000, int(4.0 / eps**2))
    if isinstance(inst, MebInstance):
        problem, setup = QuadraticMaxProblem(inst.points), ball_setup(inst.d)
    else:
        problem = inst.problem()
        setup = ball_setup(inst.d) if inst.is_ball else simplex_setup(inst.d, 0.0)
    rep = apps.subgradient_baseline(problem, setup, steps)
    if isinstance(inst, MebInstance):
        err = math.sqrt(2.0 * rep.f_max_value) * inst.scale / ref - 1.0
    else:
        err = rep.f_max_value - ref
    return Baseline(rep.wall_time, rep.func_evals + rep.grad_evals, err)

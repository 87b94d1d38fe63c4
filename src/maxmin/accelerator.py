"""Outer acceleration loop with momentum damping.

Each round maps the trust region through the interpolation
Phi(z) = (A x_t + a z) / (A + a), asks the restricted proximal oracle for
(z, w, c) around the mirror point v_t, and damps the update by the
returned multiplier: x <- Phi(z)/c + (1 - 1/c) x, A <- A + a/c.  The run
stops once the weight A passes 40 R^2 log(80 E0 / eps) / eps.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .ball_oracle import restricted_oracle
from .errors import InvalidParams, IterationCapExceeded
from .estimator import COUNTER_FIELDS, EstimatorCounters
from .geometry import GeometrySetup
from .io import TIMING_KEYS


def stopping_threshold(r_bound: float, e0: float, eps: float) -> float:
    """Target weight 40 R^2 log(80 E0 / eps) / eps for the outer loop."""
    if r_bound <= 0.0 or e0 <= 0.0 or eps <= 0.0:
        raise InvalidParams("R, E0 and eps must be positive")
    if eps >= 80.0 * e0:
        raise InvalidParams(f"eps = {eps:g} must be below 80 E0 = {80.0 * e0:g}")
    return 40.0 * r_bound**2 * math.log(80.0 * e0 / eps) / eps


@dataclass
class AccelParams:
    r: float
    r_bound: float  # R with V_{v0}(x*) <= R^2
    e0: float  # initial suboptimality bound
    eps: float
    gamma: float
    lip: float  # L_f of the underlying family
    seed: int = 0
    iteration_cap_factor: float = 10.0
    record_trace: bool = False
    # stop at this fraction of the worst-case weight threshold (1.0 is
    # the published stopping rule; the MEB recursion stops earlier)
    stopping_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < 0.5):
            raise InvalidParams("gamma must lie in (0, 1/2)")
        if not (0.0 < self.r <= self.r_bound):
            raise InvalidParams("need 0 < r <= R")
        if not (0.0 < self.stopping_scale <= 1.0):
            raise InvalidParams("stopping_scale must lie in (0, 1]")


@dataclass
class IterationRecord:
    c: float
    a_weight: float
    oracle_queries: int
    oracle_movement: float
    rounds: int


@dataclass(kw_only=True)
class SolverReport(EstimatorCounters):
    """A solve's result; its counter fields (``func_evals``, ``draws``,
    ``t_eval``, ...) are those of ``EstimatorCounters``, summed over rounds."""

    x: np.ndarray
    f_max_value: float
    outer_iterations: int
    iterations: list[IterationRecord]
    wall_time: float
    seed: int
    t_md: float = 0.0  # oracle wall time less the evaluations inside it
    trace: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @classmethod
    def total(cls, parts: list["SolverReport"], **fields) -> "SolverReport":
        """One report whose counters, timers and round records are the sums
        over ``parts``; ``fields`` sets x, f_max_value, seed and wall_time."""
        report = cls(
            outer_iterations=sum(p.outer_iterations for p in parts),
            iterations=[rec for p in parts for rec in p.iterations],
            t_md=sum(p.t_md for p in parts),
            **fields,
        )
        for part in parts:
            report.add(part)
        return report

    def counters_dict(self) -> dict:
        """The report's ``counters`` block; timers stay top-level keys."""
        counts = {name: getattr(self, name) for name in COUNTER_FIELDS
                  if name not in TIMING_KEYS}
        return {
            "outer_iterations": self.outer_iterations,
            **counts,
            "oracle_queries": [rec.oracle_queries for rec in self.iterations],
            "oracle_movement": [rec.oracle_movement for rec in self.iterations],
            "c_history": [rec.c for rec in self.iterations],
            "a_history": [rec.a_weight for rec in self.iterations],
        }


EstimatorFactory = Callable[[np.ndarray, float, object], object]


def expected_iteration_bound(params: AccelParams) -> float:
    ratio = params.r_bound / (math.sqrt(params.gamma) * params.r)
    return 18.0 * ratio ** (2.0 / 3.0) * math.log(80.0 * params.e0 / params.eps)


def accelerate(
    problem,
    setup: GeometrySetup,
    x0: np.ndarray,
    params: AccelParams,
    estimator_factory: EstimatorFactory,
    oracle=restricted_oracle,
) -> SolverReport:
    """Minimize the problem's smoothed max via restricted oracle calls
    from x0, which also starts the mirror point.

    ``estimator_factory(anchor, r_prime, seed)`` builds the per-round
    gradient estimator, where ``seed`` is round t's (entropy, spawn_key)
    pair: ``params.seed``'s spawn key extended by (t,).  ``oracle`` is
    called as
    ``oracle(grad_est, setup, y, rho, gamma_bound)``.  A fresh estimator is
    anchored at Phi_t(v_t) each round, and its gradient is scaled by the
    round weight a_{t+1}.
    """
    start = time.perf_counter()
    threshold = params.stopping_scale * stopping_threshold(params.r_bound, params.e0, params.eps)
    beta = (math.sqrt(params.gamma) * params.r / params.r_bound) ** (2.0 / 3.0)
    rho = (1.0 + 1.0 / beta) * params.r
    expected = expected_iteration_bound(params)
    cap = math.ceil(params.iteration_cap_factor * expected)

    a_weight = params.r_bound**2 / params.e0
    x = np.asarray(x0, dtype=float).copy()
    v = x.copy()
    if isinstance(params.seed, np.random.SeedSequence):
        seed_entropy, seed_key = params.seed.entropy, params.seed.spawn_key
    else:
        seed_entropy, seed_key = params.seed, ()

    records: list[IterationRecord] = []
    trace: list[dict] = []
    counters = EstimatorCounters()
    t_md = 0.0
    t = 0

    while a_weight < threshold:
        t += 1
        if t > cap:
            raise IterationCapExceeded(
                f"outer loop passed {cap} iterations (expected about {expected:.1f})"
            )
        a_inc = beta * a_weight
        a_next = a_weight + a_inc
        anchor = (a_weight * x + a_inc * v) / a_next
        gamma_bound = a_inc * params.lip
        r_prime = 8.0 * params.r
        # the round's (entropy, spawn key); the estimator derives its
        # streams from it, so no SeedSequence is built here
        est = estimator_factory(anchor, r_prime, (seed_entropy, seed_key + (t,)))
        # the anchor evaluation runs here, outside the oracle's timer
        anchor_eval = est.counters.t_eval

        scale = a_inc / a_next

        def grad_h(z: np.ndarray) -> np.ndarray:
            point = anchor + scale * (z - v)
            _, grad, _ = est.estimate(point)
            return a_inc * grad

        t_oracle = time.perf_counter()
        result, stats = oracle(grad_h, setup, v, rho, gamma_bound)
        oracle_wall = time.perf_counter() - t_oracle

        c = result.c
        phi_z = anchor + scale * (result.z - v)
        x = phi_z / c + (1.0 - 1.0 / c) * x
        a_weight = a_weight + a_inc / c
        v = result.w

        records.append(
            IterationRecord(c, a_weight, stats.total_queries, stats.total_movement,
                            stats.bisection_rounds)
        )
        if params.record_trace:
            trace.append({"x": x.copy(), "v": v.copy(), "A": a_weight, "c": c,
                          "rho": rho, "a_inc": a_inc})
        counters.add(est.counters)
        t_md += oracle_wall - (est.counters.t_eval - anchor_eval)

    wall = time.perf_counter() - start
    return SolverReport(
        x=x,
        f_max_value=problem.f_max(x),
        outer_iterations=t,
        iterations=records,
        t_md=t_md,
        wall_time=wall,
        seed=params.seed,
        trace=trace,
        **asdict(counters),
    )


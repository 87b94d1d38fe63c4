"""Outer acceleration loop with momentum damping.

Each round maps the trust region through the interpolation
Phi(z) = (A x_t + a z) / (A + a), asks the restricted proximal oracle for
(z, w, c) around the mirror point v_t, and damps the update by the
returned multiplier: x <- Phi(z)/c + (1 - 1/c) x, A <- A + a/c.  The run
stops once the weight A passes 40 R^2 log(80 E0 / eps) / eps (times the
caller's stopping scale), or, when a certificate level is given, at the
first anchor from round 2 on whose weak-duality gap
(``SoftmaxGradientEstimator.anchor_gap``) is at most that level.  The gap
reuses the round's anchor evaluation (n values, n gradients and the
sampler's softmax weights) and adds one n x d product and O(n) work per
round, plus one more product for a strongly convex family, whose dual
weights the loop carries from check to check and moves by one
Frank-Wolfe step each; it evaluates no f or gradient.  It uses the
family's strong-convexity modulus, so it is exact for linear families
(games) and for the quadratic family (MEB levels); its minimization runs
over the ball or the full simplex, not the truncated one the loop walks
on.  ``auto_gamma`` sizes the oracle quality for the weight the run is
planned to reach: the threshold, or, with a positive certificate level
c, the smaller weight ``CERTIFICATE_PLAN_FACTOR`` R^2 / c by which the
certificate can fire.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .ball_oracle import STEP_CONSTANT, restricted_oracle
from .errors import InvalidParams, IterationCapExceeded
from .estimator import COUNTER_FIELDS, EstimatorCounters
from .geometry import GeometrySetup, domain_radius_bound, project, tau


def stopping_threshold(r_bound: float, e0: float, eps: float) -> float:
    """Target weight 40 R^2 log(80 E0 / eps) / eps for the outer loop."""
    # written so that a NaN fails each test
    if not (r_bound > 0.0 and e0 > 0.0 and eps > 0.0):
        raise InvalidParams(f"R, E0 and eps must be positive, got eps = {eps:g}")
    if not eps < 80.0 * e0:
        raise InvalidParams(f"eps = {eps:g} must be below 80 E0 = {80.0 * e0:g}")
    return 40.0 * r_bound**2 * math.log(80.0 * e0 / eps) / eps


@dataclass(slots=True)
class IterationRecord:
    c: float
    a_weight: float
    oracle_queries: int
    oracle_movement: float
    rounds: int
    planned_steps: int  # T of the oracle's output run


@dataclass(kw_only=True)
class SolverReport(EstimatorCounters):
    """A solve's result; its counter fields (``func_evals``, ``draws``,
    ``t_eval``, ...) are those of ``EstimatorCounters``, summed over rounds."""

    x: np.ndarray
    f_max_value: float
    outer_iterations: int
    iterations: list[IterationRecord]
    wall_time: float
    t_md: float = 0.0  # oracle wall time less the evaluations inside it
    stop_reason: str = "threshold"  # or "certificate"; the iteration cap raises
    extras: dict = field(default_factory=dict)

    @classmethod
    def total(cls, parts: list["SolverReport"], **fields) -> "SolverReport":
        """One report whose counters, timers and round records are the sums
        over ``parts``; ``fields`` sets x, f_max_value, wall_time and stop_reason."""
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
                  if name != "t_eval"}
        return {
            "outer_iterations": self.outer_iterations,
            **counts,
            "oracle_queries": [rec.oracle_queries for rec in self.iterations],
            "oracle_planned_steps": [rec.planned_steps for rec in self.iterations],
            "oracle_bisection_rounds": [rec.rounds for rec in self.iterations],
            "oracle_movement": [rec.oracle_movement for rec in self.iterations],
            "c_history": [rec.c for rec in self.iterations],
            "a_history": [rec.a_weight for rec in self.iterations],
        }


EstimatorFactory = Callable[[np.ndarray, np.random.Generator], object]

# the outer loop raises IterationCapExceeded past this multiple of
# expected_iteration_bound
ITERATION_CAP_FACTOR = 10.0
# outer-round overhead in LI-MD step equivalents, for auto_gamma's cost model
AUTO_GAMMA_OVERHEAD_STEPS = 12.0
# With a certificate level c, auto_gamma plans for the weight
# min(threshold, CERTIFICATE_PLAN_FACTOR R^2 / c) instead of the threshold.
# From A_0 = R^2 / E0 the loop's potential gives
# f(x) - f* <= (A_0 E0 + V(x*, x0)) / A <= 2 R^2 / A, so the primal error
# reaches c by A = 2 R^2 / c; a factor 4 leaves the anchor's softmax dual
# as much weight again to close its side of the gap.
CERTIFICATE_PLAN_FACTOR = 4.0


def expected_iteration_bound(r_bound: float, e0: float, eps: float, r: float,
                             gamma: float) -> float:
    """Round count 18 (R / (sqrt(gamma) r))^{2/3} log(80 E0 / eps)."""
    ratio = r_bound / (math.sqrt(gamma) * r)
    return 18.0 * ratio ** (2.0 / 3.0) * math.log(80.0 * e0 / eps)


def auto_gamma(
    tau_val: float,
    a_max: float,
    a_start: float,
    lip: float,
    r_bound: float,
    radius: float,
) -> float:
    """Oracle-quality parameter balancing inner-loop work against rounds.

    The lam = 1 probe costs ~4 tau C (Gamma/rho)^2 steps, and summed over
    a geometric weight schedule the probe total scales linearly in gamma,
    while the round count scales as gamma^{-1/3}; the minimizer of
    K1 gamma + K2 gamma^{-1/3} is (K2 / 3 K1)^{3/4}.  Both terms are
    sized for the schedule from ``a_start`` to ``a_max``, the weight the
    run is planned to reach.  Small gamma is always admissible (the
    oracle contract only weakens), it just trades more outer rounds for
    cheaper inner loops.
    """
    k1 = 2.0 * tau_val * STEP_CONSTANT * (a_max * lip / r_bound) ** 2
    k2 = (
        math.log(max(a_max / a_start, 2.0))
        * (r_bound / radius) ** (2.0 / 3.0)
        * AUTO_GAMMA_OVERHEAD_STEPS
    )
    gamma = (k2 / (3.0 * k1)) ** 0.75
    return min(max(gamma, 1e-10), 0.4)


def accelerate(
    problem,
    setup: GeometrySetup,
    estimator_factory: EstimatorFactory,
    *,
    r: float,
    e0: float,
    eps: float,
    gamma: float | None = None,
    seed: int | np.random.SeedSequence = 0,
    stopping_scale: float = 1.0,
    certificate_eps: float | None = None,
    oracle=restricted_oracle,
) -> SolverReport:
    """Minimize the problem's smoothed max to accuracy eps via restricted
    oracle calls of radius r, from ``setup.center()``, which also starts
    the mirror point.

    ``e0`` bounds the start's suboptimality; the run stops once the weight
    passes ``stopping_scale`` times the worst-case threshold (1.0 is the
    published stopping rule; the MEB recursion caps its levels lower, a
    fallback for the rare level the carried-dual certificate does not end).
    With ``certificate_eps`` set, the run also stops, with
    ``stop_reason`` "certificate", at the first anchor from round 2 on
    whose ``anchor_gap`` is at most it, and returns that anchor with the
    gap as ``extras["gap"]``; its n values and n gradients are counted,
    and ``outer_iterations`` counts the oracle rounds before it.  Each
    check after the first passes ``anchor_gap`` the dual weights the one
    before returned: a strongly convex family's Frank-Wolfe dual, carried
    through the run, or None for games.  On a one-point domain (R = 0,
    the simplex at d = 1) it returns the center after no round, with
    ``stop_reason`` "certificate" and gap 0.
    ``gamma`` defaults to ``auto_gamma`` of this run's schedule from
    A_0 = R^2 / E0 to the plan weight: the threshold, or min(threshold,
    ``CERTIFICATE_PLAN_FACTOR`` R^2 / ``certificate_eps``) when the
    level is positive.  A level of 0 checks every anchor but keeps the
    threshold's gamma.  ``estimator_factory(anchor, rng)`` builds the
    per-round gradient estimator, where ``rng`` is round t's sampler
    stream, keyed here and nowhere else: a Philox generator over
    ``seed``'s entropy with its spawn key extended by (t, 202).
    ``oracle`` is called as ``oracle(grad_est, setup, y, rho,
    gamma_bound)`` and returns an ``OracleResult``.  A fresh estimator is
    anchored at Phi_t(v_t) each round, and its gradient is scaled by the
    round weight a_{t+1}.  The report's x is projected onto the domain,
    and this is the one place x's n values are evaluated: the report
    carries them as ``extras["values"]``, for the front ends to reuse and
    pop, with ``f_max_value`` their max.  A certificate stop's anchor that
    the projection leaves unchanged (the ball case) reuses the round
    estimator's values at it.
    """
    start = time.perf_counter()
    x = setup.center()
    r_bound = domain_radius_bound(setup)
    if gamma is not None and not (0.0 < gamma < 0.5):
        raise InvalidParams("gamma must lie in (0, 1/2)")
    if r_bound == 0.0:
        # the one-point simplex (d = 1): the center is optimal, with gap 0
        values = problem.values_all(x)
        return SolverReport(x=x, f_max_value=float(values.max()), outer_iterations=0,
                            iterations=[], stop_reason="certificate",
                            wall_time=time.perf_counter() - start,
                            extras={"gap": 0.0, "values": values})
    if not (0.0 < r <= r_bound):
        raise InvalidParams("need 0 < r <= R")
    if not (0.0 < stopping_scale <= 1.0):
        raise InvalidParams("stopping_scale must lie in (0, 1]")

    threshold = stopping_scale * stopping_threshold(r_bound, e0, eps)
    a_weight = r_bound**2 / e0
    if gamma is None:
        a_plan = threshold
        if certificate_eps is not None and certificate_eps > 0.0:
            a_plan = min(threshold, CERTIFICATE_PLAN_FACTOR * r_bound**2 / certificate_eps)
        try:
            gamma = auto_gamma(tau(setup), a_plan, a_weight, problem.lip, r_bound, r)
        except OverflowError:
            raise InvalidParams(f"eps = {eps:g} is too small for the outer loop: "
                                "its weight schedule overflows") from None
    beta = (math.sqrt(gamma) * r / r_bound) ** (2.0 / 3.0)
    rho = (1.0 + 1.0 / beta) * r
    expected = expected_iteration_bound(r_bound, e0, eps, r, gamma)
    cap = math.ceil(ITERATION_CAP_FACTOR * expected)

    v = x.copy()
    dual = None  # the certificate's dual weights, carried from check to check
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)

    records: list[IterationRecord] = []
    counters = EstimatorCounters()
    t_md = 0.0
    stop_reason = "threshold"
    extras = {"gamma": gamma}
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
        gamma_bound = a_inc * problem.lip
        round_seed = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (t, 202))
        est = estimator_factory(anchor, np.random.Generator(np.random.Philox(round_seed)))
        if certificate_eps is not None and t > 1:
            gap, dual = est.anchor_gap(setup, dual)
            if gap <= certificate_eps:
                counters.add(est.counters)
                x = anchor
                stop_reason = "certificate"
                extras["gap"] = gap
                break
        # the anchor evaluation runs here, outside the oracle's timer
        anchor_eval = est.counters.t_eval

        scale = a_inc / a_next

        def grad_h(z: np.ndarray) -> np.ndarray:
            point = anchor + scale * (z - v)
            _, grad, _ = est.estimate(point)
            return a_inc * grad

        t_oracle = time.perf_counter()
        result = oracle(grad_h, setup, v, rho, gamma_bound)
        oracle_wall = time.perf_counter() - t_oracle

        c = result.c
        phi_z = anchor + scale * (result.z - v)
        x = phi_z / c + (1.0 - 1.0 / c) * x
        a_weight = a_weight + a_inc / c
        v = result.w

        records.append(IterationRecord(c, a_weight, result.queries, result.movement,
                                       result.rounds, result.planned_steps))
        counters.add(est.counters)
        t_md += oracle_wall - (est.counters.t_eval - anchor_eval)

    projected = project(setup, x)
    if stop_reason == "certificate" and projected is x:
        # the certifying anchor, unmoved by the cleanup: the last round's
        # estimator holds its values
        values = est.f0
    else:
        values = problem.values_all(projected)
    extras["values"] = values
    wall = time.perf_counter() - start
    return SolverReport(
        x=projected,
        f_max_value=float(values.max()),
        outer_iterations=len(records),
        iterations=records,
        t_md=t_md,
        stop_reason=stop_reason,
        wall_time=wall,
        extras=extras,
        **asdict(counters),
    )

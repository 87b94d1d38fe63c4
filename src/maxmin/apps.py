"""Problem front ends: smooth max, matrix games, minimum enclosing ball,
and a plain subgradient baseline used as the long-run reference."""

from __future__ import annotations

import math
import time

import numpy as np

from .accelerator import SolverReport, accelerate
from .errors import InvalidParams
from .estimator import SoftmaxGradientEstimator
from .geometry import (
    GeometrySetup,
    Kind,
    ball_setup,
    domain_radius_bound,
    model_min,
    project,
    prox_step,
    simplex_setup,
)
from .problems import (
    MatrixGameInstance,
    MaxProblem,
    MebInstance,
    QuadraticMaxProblem,
)
from .sumtree import SumTree


def _log_n(n: int) -> float:
    return math.log(max(n, 2))


def smoothing_level(eps: float, n: int) -> float:
    """Softmax temperature eps' = eps / (2 log n)."""
    return eps / (2.0 * _log_n(n))


# Flop-equivalent cost of one f_i / grad f_i evaluation.  Interpreter
# dispatch makes even a d=3 evaluation cost a few hundred flop-equivalents,
# so the proxy is floored well above d.
EVAL_COST_PROXY = 512.0


def default_radius(problem: MaxProblem, eps: float, r_bound: float) -> float:
    """r = min( sqrt(eps / (L_g log n)), eps sqrt(T_eval + d) / L_f ), capped
    by the divergence radius."""
    terms = [r_bound]
    if problem.smooth > 0.0:
        terms.append(math.sqrt(eps / (problem.smooth * _log_n(problem.n))))
    terms.append(eps * math.sqrt(EVAL_COST_PROXY + problem.d) / problem.lip)
    return min(terms)


# failure probability handed to each round's gradient estimator
ESTIMATOR_DELTA = 1e-3


def solve_smooth_max(
    problem: MaxProblem,
    eps: float,
    seed: int = 0,
    kind: Kind = Kind.BALL,
    r: float | None = None,
    gamma: float | None = None,
    e0: float | None = None,
    stopping_scale: float = 1.0,
    certificate_eps: float | None = None,
) -> SolverReport:
    """Minimize max_i f_i over the chosen domain to expected accuracy eps.

    Applies the softmax smoothing at temperature eps/(2 log n), truncates
    the simplex at nu = eps/(4 d L_f), and runs the accelerated outer
    loop at accuracy eps/8 with the rejection-sampling gradient
    estimator rebuilt at each round's anchor.  ``certificate_eps`` is
    handed to ``accelerate``: the loop stops at the first anchor whose
    duality gap is certified below it.
    """
    if not eps > 0.0:  # NaN fails too
        raise InvalidParams(f"eps must be positive, got {eps:g}")
    d, n = problem.d, problem.n

    if kind is Kind.BALL:
        setup = ball_setup(d)
    else:
        setup = simplex_setup(d, min(eps / (4.0 * d * problem.lip), 0.5 / d))

    r_bound = domain_radius_bound(setup)
    eps_prime = smoothing_level(eps, n)
    radius = default_radius(problem, eps, r_bound) if r is None else min(r, r_bound)
    if e0 is None:
        e0 = problem.lip * r_bound

    def factory(anchor, rng):
        return SoftmaxGradientEstimator(
            problem, anchor, eps_prime, radius, ESTIMATOR_DELTA, rng, p=setup.p
        )

    report = accelerate(
        problem, setup, factory, r=radius, e0=e0, eps=eps / 8.0, gamma=gamma, seed=seed,
        stopping_scale=stopping_scale, certificate_eps=certificate_eps,
    )
    report.extras["nu"] = setup.nu
    return report


CERTIFICATE_POLISH_STEPS = 200
# first exponentiated-gradient step size of polish_dual
POLISH_STEP = 0.5
# polish_dual halves its step at each try that does not raise its bound
# and stops at this many such tries
POLISH_HALVINGS = 2


def polish_dual(inst: MatrixGameInstance, logits: np.ndarray,
                steps: int) -> tuple[np.ndarray, float]:
    """Backtracking exponentiated-gradient ascent on the best-response
    lower bound min_x <x, A y> over ``inst.domain()``, taken by
    ``model_min``.

    Starts from y = softmax(``logits``) (``solve_matrix_game`` passes
    (f(x) - f_max) / eps' at its final point, so the start's bound is the
    raw softmax dual's) and returns the best feasible dual seen and its
    bound; every iterate is a valid certificate, so this only tightens
    the start's gap.  Each try steps from the best dual so far and costs
    one product A y.  A try that does not raise the bound halves the
    step, and the polish stops at ``POLISH_HALVINGS`` such tries or after
    ``steps`` tries in all.  The supergradient is formed once per
    accepted dual: on the ball it is A^T (A y) / -||A y||, where -||A y||
    is that dual's bound; on the simplex, the row of A at argmin A y.
    """
    a = inst.matrix
    setup = inst.domain()
    log_y = logits - logits.max()
    y = np.exp(log_y)
    y /= y.sum()
    ay = a @ y
    best_val = model_min(setup, ay)
    step = POLISH_STEP
    rejected = 0
    accepted = True
    for _ in range(steps):
        if accepted:
            if inst.is_ball:
                grad = (a.T @ ay) / min(best_val, -1e-15)
            else:
                grad = a[int(ay.argmin())]
        trial = log_y + step * grad
        trial -= trial.max()
        y_try = np.exp(trial)
        y_try /= y_try.sum()
        ay_try = a @ y_try
        val = model_min(setup, ay_try)
        accepted = val > best_val
        if accepted:
            log_y, y, ay, best_val = trial, y_try, ay_try, val
        else:
            rejected += 1
            if rejected == POLISH_HALVINGS:
                break
            step *= 0.5
    return y, best_val


def dual_from_samples(
    problem: MaxProblem,
    x: np.ndarray,
    eps_prime: float,
    draws: int,
    seed,
) -> np.ndarray:
    """Empirical frequencies of ``draws`` indices drawn i.i.d. from
    softmax(f(x) / eps'), in one batch.

    This is the law of the gradient estimator's accepted index at x: with
    x as its own anchor the maintained product is 0, so every proposal
    is accepted with the same probability and the accepted law is the
    proposal law.  No solve calls it: the game certificate polishes the
    exact softmax instead.  It stays because the benchmark's tracer
    patches it by name and its tests cover the batch sampler; it goes
    with the next change to the benchmark.
    """
    logits = problem.values_all(x) / eps_prime
    tree = SumTree(np.exp(logits - logits.max()))
    idx = tree.sample_batch(np.random.Generator(np.random.Philox(seed)), draws)
    return np.bincount(idx, minlength=problem.n) / draws


def solve_matrix_game(
    inst: MatrixGameInstance,
    eps: float,
    seed: int = 0,
    r: float | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Primal solver for min_x max_y x^T A y with a post-hoc gap certificate.

    The query radius is ``r`` when given, else min(1, sqrt(d) eps).  The
    outer loop stops early at the first anchor whose weak-duality gap is
    at most eps.  At the final point x, with f(x) the values the loop
    evaluated there (popped, so the report no longer holds them),
    ``polish_dual`` starts from softmax(f(x)/eps'), the dual of the
    loop's stop certificate, and raises its best-response lower bound.
    The reported gap is f_max(x) minus the polished bound, which is never
    below the softmax dual's, so a solve stopped on a certificate reports
    a gap of at most eps.  ``extras["t_certificate"]`` is the wall time
    of this certificate: the softmax and the polish (f(x) is in the
    loop's wall time).
    """
    if not (0.0 < eps < 1.0):
        raise InvalidParams("eps must lie in (0, 1)")
    problem = inst.problem()
    kind = inst.domain().kind
    radius = min(1.0, math.sqrt(inst.d) * eps) if r is None else r
    report = solve_smooth_max(
        problem, eps, seed=seed, kind=kind, r=radius, certificate_eps=eps
    )
    start = time.perf_counter()
    # popped, so no returned report holds the n values
    values = report.extras.pop("values")
    f_max = report.f_max_value
    logits = (values - f_max) / smoothing_level(eps, inst.n)
    _, lower = polish_dual(inst, logits, CERTIFICATE_POLISH_STEPS)
    report.extras["gap"] = f_max - lower
    report.extras["t_certificate"] = time.perf_counter() - start
    return report.x, report


def meb_level_count(eps: float) -> int:
    return max(1, math.ceil(math.log2(4.0 / eps)))


# Level k rescales the points by 1 / r_k with r_k^2 = 2^{-(k-1)}, which
# falls below float64's relative resolution 2^{-52} after this many levels.
MEB_MAX_LEVELS = 53


# Cap for uncertified levels: a sub-solve the certificate does not stop
# runs to this fraction of the worst-case weight threshold, which
# overdelivers accuracy by several orders of magnitude at these scales.
MEB_STOPPING_SCALE = 1.0 / 1024.0
# most sub-solves per level; a certified sub-solve ends its level, and
# the level keeps the best of those run under the exact objective
MEB_REPEATS = 2


def solve_meb(
    inst: MebInstance,
    eps: float,
    seed: int = 0,
) -> tuple[np.ndarray, float, SolverReport]:
    """Minimum enclosing ball via the halving recursion.

    Level k solves the smooth-max problem restricted to the ball of
    radius 2^{-(k-1)/2} around the previous center, rescaled to the unit
    ball, at accuracy 2^{-(k+1)}.  Each sub-solve stops at the first
    anchor whose strong-convexity duality gap (``anchor_gap``, whose
    weighted-centroid dual starts at the first check's softmax weights
    and is carried through the sub-solve, one Frank-Wolfe step per check)
    certifies the level's accuracy, or else at ``MEB_STOPPING_SCALE`` of
    the weight threshold.  A certified sub-solve ends its level; an
    uncertified one, now the rare fallback, is repeated, up to
    ``MEB_REPEATS`` sub-solves, and the level keeps the best under the
    exact objective, which is evaluated once per sub-solve; the last
    level's kept value gives the radius.  The previous level's accuracy
    guarantee seeds the next level's suboptimality bound: a level error
    of at most 2^{-(k+1)} puts the center within 2^{-k/2} of the optimum
    by strong convexity, so when every level is certified the radius is
    within a factor 1 + eps/2 of the optimum.  The report's
    ``stop_reason`` is "certificate" only then, and its ``extras`` count
    the certified levels and the sub-solves run.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidParams("eps must lie in (0, 1)")
    pts = inst.points
    base = inst.problem()
    levels = meb_level_count(eps)
    if levels > MEB_MAX_LEVELS:
        raise InvalidParams(
            f"eps = {eps:g} needs {levels} halving levels; past {MEB_MAX_LEVELS} "
            "the level radii fall below float64 resolution")
    root = np.random.SeedSequence(seed)

    x = np.zeros(inst.d)
    start = time.perf_counter()
    parts: list[SolverReport] = []
    certified_levels = 0
    prev_err = 0.5  # f(x0) - f* <= f_max(0) <= 1/2 for normalized inputs
    for k in range(1, levels + 1):
        r_k = 2.0 ** (-(k - 1) / 2.0)
        eps_k = 2.0 ** (-(k + 1))
        scale_k = r_k * r_k
        scaled = QuadraticMaxProblem((pts - x) / r_k)
        eps_hat = eps_k / scale_k
        e0_hat = min(scaled.lip, 2.0 * prev_err / scale_k)
        best_val = math.inf
        best_x = x
        # spawned in full, so later levels draw the same seeds however
        # many repeats this level runs
        for rep_seed in root.spawn(MEB_REPEATS):
            rep = solve_smooth_max(
                scaled, eps_hat, seed=rep_seed, kind=Kind.BALL, e0=e0_hat,
                stopping_scale=MEB_STOPPING_SCALE, certificate_eps=eps_hat,
            )
            cand = x + r_k * rep.x
            val = base.f_max(cand)
            parts.append(rep)
            if val < best_val:
                best_val = val
                best_x = cand
            if rep.stop_reason == "certificate":
                # the kept candidate is no worse than this certified one
                certified_levels += 1
                break
        x, f_max_value = best_x, best_val
        prev_err = eps_k
    center_in, radius_in = inst.to_input_coords(x, math.sqrt(2.0 * f_max_value))

    report = SolverReport.total(
        parts, x=x, f_max_value=f_max_value,
        wall_time=time.perf_counter() - start,
        stop_reason="certificate" if certified_levels == levels else "threshold",
    )
    report.extras.update({"levels": levels, "certified_levels": certified_levels,
                          "sub_solves": len(parts)})
    return center_in, radius_in, report


def subgradient_baseline(
    problem: MaxProblem,
    setup: GeometrySetup,
    steps: int,
) -> SolverReport:
    """Plain mirror descent on f_max with a max-achieving subgradient.

    Step size R / (L_f sqrt(t)) at step t; averaged-iterate output.  On
    a one-point domain (R = 0) it returns the center after no step.
    Serves as the long-run reference oracle and the comparison row in
    benchmarks.  It draws no random numbers, so it takes no seed.
    """
    if steps < 1:
        raise InvalidParams("steps must be >= 1")
    start = time.perf_counter()
    x = setup.center()
    avg = np.zeros_like(x)
    r_bound = domain_radius_bound(setup)
    if r_bound == 0.0:
        # the one-point simplex (d = 1): the center is optimal, so no step
        steps, avg = 0, x
    scale = r_bound / max(problem.lip, 1e-12)
    for t in range(1, steps + 1):
        eta = scale / math.sqrt(t)
        g = problem.max_subgradient(x)
        x = prox_step(setup, g, eta, 0.0, x, x)
        avg += (x - avg) / t
    avg = project(setup, avg)
    return SolverReport(
        x=avg,
        f_max_value=problem.f_max(avg),
        outer_iterations=steps,
        iterations=[],
        func_evals=steps * problem.n,
        grad_evals=steps,
        wall_time=time.perf_counter() - start,
    )


def subgradient_control(inst, eps: float) -> SolverReport:
    """The subgradient run ``maxmin bench`` sets beside each solve:
    max(1000, 4 / eps^2) steps on the instance's own family and domain.
    Deterministic: every seed's row of a bench sweep is the same run."""
    if not eps > 0.0:  # NaN fails too
        raise InvalidParams(f"eps must be positive, got {eps:g}")
    try:
        steps = max(1000, int(4.0 / eps**2))
    except (ZeroDivisionError, OverflowError):
        raise InvalidParams(f"eps = {eps:g} is too small: 4 / eps^2 steps overflow") from None
    return subgradient_baseline(inst.problem(), inst.domain(), steps)


def solve_instance(
    inst, eps: float, seed: int = 0, r: float | None = None
) -> tuple[SolverReport, dict]:
    """Solve a typed instance (as built by ``io.instance_from_payload``)
    with its front end.

    Returns the solver report and the ``result`` block of the ``maxmin
    solve`` report.  Games and quadratics stop at the first anchor whose
    weak-duality gap is at most eps; their ``result`` block carries that
    gap (a game's polished post-hoc one), and a quadratics run that
    reached its weight threshold instead writes none.  ``r`` fixes the
    query radius of games and quadratics; the MEB recursion sets its own
    radius per level and rejects one.
    """
    if isinstance(inst, MatrixGameInstance):
        x, report = solve_matrix_game(inst, eps, seed=seed, r=r)
        return report, {"value": report.f_max_value, "gap": report.extras["gap"],
                        "point": x.tolist()}
    if isinstance(inst, MebInstance):
        if r is not None:
            raise InvalidParams("MEB sets its radius per halving level; r does not apply")
        center, radius, report = solve_meb(inst, eps, seed=seed)
        return report, {"center": center.tolist(), "radius": radius}
    if isinstance(inst, QuadraticMaxProblem):
        report = solve_smooth_max(inst, eps, seed=seed, kind=Kind.BALL, r=r,
                                  certificate_eps=eps)
        # popped, so no returned report holds the n values
        report.extras.pop("values")
        result = {"value": report.f_max_value, "point": report.x.tolist()}
        if "gap" in report.extras:  # a certificate stop's anchor gap
            result["gap"] = report.extras["gap"]
        return report, result
    raise InvalidParams(f"no front end for {type(inst).__name__}")

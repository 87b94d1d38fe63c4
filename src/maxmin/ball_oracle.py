"""Restricted proximal ball oracle.

``li_md`` runs last-iterate proximal mirror descent: gradients are
queried at the running average of the iterates, which keeps every query
within the working radius and bounds the total query movement by
O(rho log T).  ``restricted_oracle`` probes LI-MD runs in search of a
regularization weight whose prox point sits at divergence Theta(rho^2)
from the center, and returns the run it accepts as the (z, w, c) output
whose in-expectation inequality the accelerator consumes.

LI-MD runs with step size eta = rho^2 lam / (C Gamma^2), C = 64, and
T = 4 tau / (eta lam) steps.  The published analysis takes
C = 66 * 2^12 and deflates the step further by tau^5 log(16/delta); for
one lam = 1 probe on the ball at rho = 0.3, Gamma = 1 those constants plan
about 1.1e12 steps where C = 64 plans 11,378, so only the structural
formulas (T, the bisection band, K_max) are kept from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BudgetExceeded,
    GradientCallbackFailed,
    InvalidParams,
    PreconditionViolated,
    RejectionStall,
)
from .geometry import (
    GeometrySetup,
    Kind,
    _prox_ball,
    _prox_simplex,
    _waterfill,
    bregman,
    pnorm,
    tau,
)

GradEst = Callable[[np.ndarray], np.ndarray]

# C in the step size eta = rho^2 lam / (C Gamma^2)
STEP_CONSTANT = 64.0
# bisection band: raise lambda_min when V_y(z) > rho^2 / (UPPER_DIV tau),
# lower lambda_max when V_y(z) < rho^2 / (LOWER_DIV tau^3)
UPPER_DIV = 64.0
LOWER_DIV = 256.0


@dataclass
class LimdResult:
    z: np.ndarray
    w: np.ndarray
    out_of_bound: bool
    movement: float
    queries: int


@dataclass
class OracleResult:
    """One oracle call: the output run's points z, w, its multiplier c and
    lam, the bisection rounds run, the queries and movement summed over
    every probe, and the output run's T."""

    z: np.ndarray
    w: np.ndarray
    c: float
    lam: float
    rounds: int
    queries: int
    movement: float
    planned_steps: int


def step_plan(rho: float, lam: float, tau_val: float, gamma_bound: float) -> tuple[float, int]:
    """Step size and iteration count with eta * T = 4 tau / lam held exact.

    T is rounded up to an integer and eta rescaled down accordingly, so
    the returned multiplier c = lam + 1/(eta T) equals lam (1 + 1/(4 tau))
    identically.
    """
    eta = (rho**2 * lam) / (STEP_CONSTANT * gamma_bound**2)
    steps = max(1, math.ceil(4.0 * tau_val / (eta * lam)))
    eta = 4.0 * tau_val / (lam * steps)
    return eta, steps


def li_md(
    grad_est: GradEst,
    setup: GeometrySetup,
    y: np.ndarray,
    rho: float,
    lam: float,
    eta: float,
    steps: int,
) -> LimdResult:
    """Last-iterate proximal mirror descent around center y: ``steps``
    steps of size eta on h + lam V_y.

    Aborts with the out-of-bound flag as soon as the running average
    leaves the rho-ball; on a clean run returns the average iterate and
    the mirror-averaged point.
    """
    el = eta * lam
    w = y.copy()
    x = y.copy()
    movement = 0.0
    queries = 0
    out_of_bound = False
    is_ball = setup.kind is Kind.BALL
    p = setup.p
    log_y = None if is_ball else np.log(y)
    log_w = log_y

    mirror_sum = np.zeros_like(y)
    steps_done = 0
    x_prev_in = y.copy()

    for t in range(1, steps + 1):
        if t > 1:
            step_vec = (w - x) / t
            movement += pnorm(step_vec, p)
            x_prev_in = x
            x = x + step_vec
        if pnorm(x - y, p) >= rho:
            out_of_bound = True
            break
        try:
            g = grad_est(x)
        except (RejectionStall, BudgetExceeded, PreconditionViolated) as exc:
            raise GradientCallbackFailed(str(exc)) from exc
        queries += 1
        if is_ball:
            w = _prox_ball(g, eta, el, y, w)
            mirror_sum += w
        else:
            w = _prox_simplex(g, eta, el, log_y, log_w, setup.nu)
            log_w = np.log(w)
            mirror_sum += log_w
        steps_done = t

    if out_of_bound:
        if is_ball:
            direction = x - y
            z = y + rho * direction / pnorm(direction, p)
        else:
            # the l1 ray point may leave the truncated simplex; the last
            # in-domain average (distance < rho from y) serves instead
            z = x_prev_in
        return LimdResult(z, z.copy(), True, movement, queries)

    last_weight = math.inf if lam == 0.0 or eta == 0.0 else 1.0 / (lam * eta)
    if math.isinf(last_weight):
        w_tilde = w.copy()
    elif is_ball:
        w_tilde = (mirror_sum + last_weight * w) / (steps_done + last_weight)
    else:
        log_xi = (mirror_sum + last_weight * log_w) / (steps_done + last_weight)
        w_tilde = _waterfill(log_xi, setup.nu)
    return LimdResult(x, w_tilde, False, movement, queries)


def bisection_round_limit(tau_val: float, gamma_bound: float, rho: float) -> int:
    arg = 9600.0 * tau_val**3 * gamma_bound**3 / rho**3
    return max(1, math.ceil(math.log2(max(arg, 2.0))))


def restricted_oracle(
    grad_est: GradEst,
    setup: GeometrySetup,
    y: np.ndarray,
    rho: float,
    gamma_bound: float,
) -> OracleResult:
    """(rho, gamma, c_max) restricted proximal oracle around y.

    Bisects for lam with the prox point at divergence ~rho^2 scale from
    y.  Runs the mirror-descent probe at lam = 1 first and accepts it if
    it already stays close.  Otherwise halves the bracket
    [1, 16 tau Gamma / rho], raising the floor when the probe escapes and
    lowering the ceiling when it collapses onto the center.  The accepted
    probe (the last one when the rounds run out) is the output: its points
    z, w and its multiplier c = lam (1 + 1/(4 tau)), which lies in
    [1, 32 tau Gamma / rho].
    """
    if rho <= 0.0:
        raise InvalidParams("rho must be positive")
    tau_val = tau(setup)
    if not tau_val >= 4.0:
        raise PreconditionViolated("setup must satisfy a finite tau >= 4 triangle inequality")
    if gamma_bound <= 0.0:
        raise InvalidParams("gradient bound must be positive")
    # the bracket floor is 1; tiny gradient bounds would otherwise invert it
    lam_max = max(16.0 * tau_val * gamma_bound / rho, 1.0)
    lam_min = 1.0
    upper = rho**2 / (UPPER_DIV * tau_val)
    lower = rho**2 / (LOWER_DIV * tau_val**3)
    queries = 0
    movement = 0.0

    def probe(lam: float) -> tuple[LimdResult, float, int, float]:
        """The LI-MD run at lam under ``step_plan``, its eta and T, and
        V_y(z), inf when the run left the ball."""
        nonlocal queries, movement
        eta, steps = step_plan(rho, lam, tau_val, gamma_bound)
        res = li_md(grad_est, setup, y, rho, lam, eta, steps)
        queries += res.queries
        movement += res.movement
        div = math.inf if res.out_of_bound else bregman(setup, y, res.z)
        return res, eta, steps, div

    lam = lam_min
    rounds = 0
    res, eta, steps, div = probe(lam)
    if div >= upper:
        for rounds in range(1, bisection_round_limit(tau_val, gamma_bound, rho) + 1):
            lam = 0.5 * (lam_max + lam_min)
            res, eta, steps, div = probe(lam)
            if div > upper:
                lam_min = lam
            elif div < lower:
                lam_max = lam
            else:
                break
        # running out of rounds is the low-probability bad event; the last
        # probe stands
    return OracleResult(res.z, res.w, lam + 1.0 / (eta * steps), lam, rounds, queries,
                        movement, steps)


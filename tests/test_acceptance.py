"""Acceptance gate: one test per criterion, printing a pass/fail line.

Statistical criteria pin their seeds, scales, and tolerances here;
reference values come from the independent oracles (exact enclosing
ball, exact softmax, brute-force prox solves, long-run subgradient
baselines), never from the code paths under test.
"""

import math
import time

import numpy as np
import pytest
from stat_checks import one_sided_upper_confidence

from maxmin import refcheck
from maxmin.apps import smoothing_level, solve_matrix_game, solve_meb
from maxmin.ball_oracle import (
    bisection_round_limit,
    movement_bound,
    query_budget_bound,
    restricted_oracle,
)
from maxmin.estimator import SoftmaxGradientEstimator
from maxmin.geometry import (
    Kind,
    ball_setup,
    bregman,
    prox_step,
    simplex_setup,
    tau,
)
from maxmin.problems import (
    LinearMaxProblem,
    MatrixGameInstance,
    MebInstance,
    QuadraticMaxProblem,
)
from maxmin.selftests import (
    _sample_ball,
    _sample_simplex,
    geometry_fuzz_check,
    mvm_walk_check,
    sampler_fidelity_check,
)


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def test_criterion_01_matrix_game_gap():
    eps = 0.05
    seeds = 10
    rng = np.random.default_rng(20240501)
    passes = 0
    beats_start = 0
    worst_wall = 0.0
    gaps = []
    for seed in range(seeds):
        a = rng.standard_normal((80, 100))
        a /= np.linalg.norm(a, axis=0, keepdims=True)
        inst = MatrixGameInstance(a, "l2l1")
        t0 = time.perf_counter()
        _, rep = solve_matrix_game(inst, eps, seed=seed)
        wall = time.perf_counter() - t0
        worst_wall = max(worst_wall, wall)
        gaps.append(rep.extras["gap"])
        passes += rep.extras["gap"] <= eps
        # start-point control: x0 = 0 is already certified near 0.034, so
        # the gap alone would pass a solver that never moves
        beats_start += rep.f_max_value < inst.problem().f_max(ball_setup(80).center())
    ok = passes >= 8 and beats_start >= 8 and worst_wall <= 60.0
    report(
        1,
        "matrix-game certified gap",
        ok,
        f"{passes}/10 gaps <= {eps}, gaps={np.round(gaps, 4).tolist()}, "
        f"{beats_start}/10 below f_max(x0) (need 8), max wall {worst_wall:.1f}s <= 60s",
    )


def test_criterion_02_symmetric_game_exactness():
    """The identity game starts at its own solution, the simplex centre, so
    the diag(1, 1/2) game is the start-point control: its solution is
    x* = (1/3, 2/3) with value 1/3, and f_max at the centre is 1/2."""
    eps = 0.05
    centre = np.full(2, 0.5)
    details = []
    ok = True
    for diag, x_star, value in (((1.0, 1.0), (0.5, 0.5), 0.5),
                                ((1.0, 0.5), (1 / 3, 2 / 3), 1 / 3)):
        inst = MatrixGameInstance(np.diag(diag), "l1l1")
        x, rep = solve_matrix_game(inst, eps, seed=0)
        value_err = abs(rep.f_max_value - value)
        l1_dist = float(np.sum(np.abs(x - np.array(x_star))))
        ok = ok and value_err <= eps and l1_dist <= 4.0 * eps
        detail = (f"diag{diag}: value {rep.f_max_value:.4f} (|err| {value_err:.4f} <= {eps}), "
                  f"l1 distance {l1_dist:.4f} <= {4 * eps}")
        start = inst.problem().f_max(centre)
        if start > value:  # the identity game starts at its own solution
            ok = ok and rep.f_max_value < start
            detail += f", f_max(x) < f_max(centre) = {start:.4f}"
        details.append(detail)
    report(2, "identity and diag(1, 1/2) games on the simplex", ok, "; ".join(details))


def test_criterion_03_meb_against_welzl():
    # start-point control: the solve starts at a_1, the normalized origin,
    # whose enclosing radius is max ||a_i|| = 1; each start ratio 1 / wr
    # must fail the radius test, so a solve that never moved cannot pass
    eps = 0.01
    instances = 20
    rng = np.random.default_rng(77)
    good = 0
    t0 = time.perf_counter()
    ratios = []
    starts = []
    for seed in range(instances):
        pts = rng.standard_normal((200, 3))
        inst = MebInstance(pts)
        wc, wr = refcheck.welzl_meb(inst.points)
        center, radius, _ = solve_meb(inst, eps, seed=seed)
        c_norm = (center - inst.shift) / inst.scale
        r_norm = radius / inst.scale
        dist2 = 0.5 * float(np.sum((c_norm - wc) ** 2))
        ratios.append(r_norm / wr)
        starts.append(1.0 / wr)
        good += (r_norm <= (1.0 + eps) * wr) and (dist2 <= eps * wr * wr)
    total = time.perf_counter() - t0
    ok = good >= 18 and min(starts) > 1.0 + eps and total <= 120.0
    report(
        3,
        "minimum enclosing ball vs exact oracle",
        ok,
        f"{good}/20 within tolerance, worst radius ratio {max(ratios):.5f}, "
        f"smallest start ratio {min(starts):.5f} > 1 + eps, total {total:.1f}s <= 120s",
    )


def test_criterion_04_mvm_random_walks():
    delta = 0.2
    budget_ok = True
    fractions = {}
    for p in (1, 2):
        res = mvm_walk_check(
            p, n=40, d=15, steps=500, ratio=4.0, delta=delta, seeds=100, seed=404
        )[0]
        fractions[p] = res.observed
        budget_ok = budget_ok and res.passed  # validate=True asserts level budgets
    bound = refcheck.binomial_slack_bound(delta, 100)
    ok = budget_ok and all(frac <= bound for frac in fractions.values())
    report(
        4,
        "maintenance random-walk accuracy",
        ok,
        f"failure fractions p1={fractions[1]:.3f}, p2={fractions[2]:.3f} <= {bound:.3f}; "
        "level budgets asserted per query",
    )


def test_criterion_05_sampler_fidelity():
    results = sampler_fidelity_check(n=10, d=6, draws=100_000, seed=55)
    tv, acc = results[0], results[1]
    ok = tv.passed and acc.passed
    report(
        5,
        "softmax sampler fidelity",
        ok,
        f"TV {tv.observed:.4f} <= 0.05 over 1e5 draws, "
        f"acceptance rate {acc.observed:.4f} >= e^-2 = {math.exp(-2.0):.4f}",
    )


# criterion 6's d = 5 Euclidean quadratic h(x) = ||x - b||^2 / 2, whose
# oracle calls run around y = 0 at rho = 0.35
QUAD_B = np.array([0.45, -0.3, 0.2, -0.1, 0.25])
QUAD_GRAD_BOUND = 1.0 + float(np.linalg.norm(QUAD_B))


def quad_val(x):
    return 0.5 * float(np.sum((x - QUAD_B) ** 2))


def quad_grad(x):
    return x - QUAD_B


def oracle_inequality_bounds(grad, gam_bound, runs):
    """95% UCBs of the two-point oracle condition's residuals at u in
    {y, prox point, three random points} over ``runs`` calls on the
    quadratic driven by ``grad``, and the number of calls that bisected."""
    setup = ball_setup(5)
    tau_v = tau(setup)
    gamma = 1.0 / (2.0**13 * tau_v**5)
    y = np.zeros(5)
    rho = 0.35
    rng = np.random.default_rng(606)
    prox_cache = {}
    bisected = 0
    residuals = {"y": [], "prox": [], "u1": [], "u2": [], "u3": []}
    for _ in range(runs):
        res = restricted_oracle(grad, setup, y, rho, gam_bound)
        lam = res.lam
        bisected += res.rounds > 0
        if lam not in prox_cache:
            prox_cache[lam] = refcheck.exact_prox(
                setup, quad_val, quad_grad, y, lam, refcheck.ReferenceBudget(tolerance=1e-11)
            )
        u_points = {
            "y": y,
            "prox": prox_cache[lam],
            "u1": _sample_ball(rng, 1, 5)[0],
            "u2": _sample_ball(rng, 1, 5)[0],
            "u3": _sample_ball(rng, 1, 5)[0],
        }
        sign = 1.0 if res.c >= 2.0 else -1.0
        for key, u in u_points.items():
            residuals[key].append(
                (quad_val(res.z) - quad_val(u)) / res.c
                - bregman(setup, y, u)
                + bregman(setup, res.w, u)
                + gamma * sign * rho**2
            )
    bounds = {k: one_sided_upper_confidence(np.array(v)) for k, v in residuals.items()}
    return bounds, bisected


def test_criterion_06_oracle_inequality():
    bounds, _ = oracle_inequality_bounds(quad_grad, QUAD_GRAD_BOUND, runs=200)
    ok = all(ub <= 0.0 for ub in bounds.values())
    report(
        6,
        "restricted proximal oracle inequality",
        ok,
        "95% UCB of residuals: "
        + ", ".join(f"{k}={ub:.3e}" for k, ub in bounds.items()),
    )


def test_criterion_06_oracle_inequality_noisy_gradients():
    # the oracle returns the probe that passed its own divergence test;
    # with exact gradients that probe is deterministic, so only noisy
    # gradients can show a selection bias.  The gradient bound is widened
    # by sigma sqrt(d), the mean norm scale of the noise.
    sigma = 0.25
    noise = np.random.default_rng(616)
    bounds, bisected = oracle_inequality_bounds(
        lambda x: quad_grad(x) + sigma * noise.standard_normal(5),
        QUAD_GRAD_BOUND + sigma * math.sqrt(5.0),
        runs=30,
    )
    ok = bisected >= 1 and all(ub <= 0.0 for ub in bounds.values())
    report(
        6,
        "restricted proximal oracle inequality, noisy gradients",
        ok,
        f"sigma {sigma}, {bisected}/30 calls bisected, 95% UCB of residuals: "
        + ", ".join(f"{k}={ub:.3e}" for k, ub in bounds.items()),
    )


def test_criterion_07_bisection_band():
    # linear objectives admit the closed form prox point -(Gam/lam) u
    setup = ball_setup(3)
    tau_v = tau(setup)
    rho = 0.3
    gam = 2.0
    k_cap = bisection_round_limit(tau_v, gam, rho)
    hits = 0
    rounds_ok = True
    rng = np.random.default_rng(707)
    for seed in range(20):
        q = rng.standard_normal(3)
        q /= np.linalg.norm(q)
        res = restricted_oracle(lambda x: gam * q, setup, np.zeros(3), rho, gam)
        lam = res.lam
        v_exact = 0.5 * min(gam / lam, 1.0) ** 2
        in_band = rho**2 / (1024.0 * tau_v**4) <= v_exact <= rho**2 / 16.0
        hits += in_band or (lam == 1.0 and res.rounds == 0)
        rounds_ok = rounds_ok and res.rounds <= k_cap
    ok = hits >= 18 and rounds_ok
    report(
        7,
        "lambda-bisection band",
        ok,
        f"{hits}/20 prox divergences inside [rho^2/1024 tau^4, rho^2/16], "
        f"rounds always <= K_max = {k_cap}",
    )


def test_criterion_08_iteration_scaling():
    # outer iterations against 1/r on one fixed game: slope 2/3 +- 0.25
    rng = np.random.default_rng(808)
    a = rng.standard_normal((20, 25))
    a /= np.linalg.norm(a, axis=0, keepdims=True)
    inst = MatrixGameInstance(a, "l2l1")
    prob = inst.problem()
    r0 = 0.4
    counts = []
    radii = [r0, r0 / 2, r0 / 4, r0 / 8]
    from maxmin.apps import solve_smooth_max

    for r in radii:
        rep = solve_smooth_max(
            prob, 0.1, seed=3, kind=Kind.BALL, r=r, gamma=1e-6
        )
        counts.append(rep.outer_iterations)
    slope = np.polyfit(np.log([1.0 / r for r in radii]), np.log(counts), 1)[0]
    ok = abs(slope - 2.0 / 3.0) <= 0.25
    report(
        8,
        "iteration scaling in the ball radius",
        ok,
        f"counts {counts} over r sweep {radii}, log-log slope {slope:.3f} in 2/3 +- 0.25",
    )


def test_criterion_09_oracle_movement_bound():
    # one oracle call under the shipped constants, large enough to enter
    # bisection; the movement and query budgets are per-call deterministic
    # statements
    setup = ball_setup(2)
    tau_v = tau(setup)
    gam = 1.0
    rho = 0.3
    u = np.array([0.6, 0.8])
    seen = []

    def grad(x):
        seen.append(np.linalg.norm(x))
        return gam * u

    res = restricted_oracle(grad, setup, np.zeros(2), rho, gam)
    move_cap = movement_bound(rho, tau_v, gam)
    query_cap = query_budget_bound(rho, tau_v, gam)
    ok = (
        res.rounds >= 1
        and res.movement <= move_cap
        and max(seen) <= rho
        and res.queries <= query_cap
    )
    report(
        9,
        "oracle movement and query bounds",
        ok,
        f"{res.rounds} bisection rounds >= 1, "
        f"movement {res.movement:.3e} <= {move_cap:.3e}, "
        f"max query radius {max(seen):.3f} <= rho={rho}, "
        f"queries {res.queries} <= {query_cap:.3g}",
    )


def test_criterion_10_geometry_fuzz_suites():
    count = 10_000
    failures = []
    for setup in (ball_setup(6), simplex_setup(6, 0.02)):
        for res in geometry_fuzz_check(setup, count=count, seed=1010):
            if not res.passed:
                failures.append(res.row())

    # prox first-order (KKT) conditions on random subproblems
    rng = np.random.default_rng(2020)
    kkt_bad = 0
    ball = ball_setup(4)
    for _ in range(count // 2):
        x, y = _sample_ball(rng, 2, 4)
        g = rng.standard_normal(4)
        eta = float(rng.random() * 0.9 + 0.05)
        lam = float(rng.random() * 3.0)
        w = prox_step(ball, g, eta, lam, y, x)
        grad = eta * (g + lam * (w - y)) + (w - x)
        nrm = np.linalg.norm(w)
        if nrm < 1.0 - 1e-9:
            resid = np.linalg.norm(grad)
        else:
            mu = -float(grad @ w)
            resid = np.linalg.norm(grad + mu * w) + max(-mu, 0.0)
        kkt_bad += resid > 1e-7 * max(1.0, np.linalg.norm(g))

    simplex = simplex_setup(4, 0.05)
    for _ in range(count // 2):
        x, y = _sample_simplex(rng, 2, simplex)
        g = rng.standard_normal(4)
        eta = float(rng.random() * 0.9 + 0.05)
        lam = float(rng.random() * 3.0)
        w = prox_step(simplex, g, eta, lam, y, x)
        grad = eta * (g + lam * (np.log(w / y) + 1.0)) + np.log(w / x) + 1.0
        free = w > simplex.nu * (1.0 + 1e-9)
        if np.any(free):
            pivot = float(np.mean(grad[free]))
            resid = float(np.max(np.abs(grad[free] - pivot)))
            # clamped coordinates need gradient >= pivot
            if np.any(~free):
                resid = max(resid, float(np.max(pivot - grad[~free])))
        else:
            resid = 0.0
        kkt_bad += resid > 1e-6
    if kkt_bad:
        failures.append(f"prox KKT violations: {kkt_bad}")

    ok = not failures
    report(
        10,
        "geometry fuzz suites",
        ok,
        f"10^4-sample tau-triangle/Pinsker/Hellinger plus {count} prox-KKT checks; "
        + ("no violations" if ok else "; ".join(failures)),
    )

import math
import time
from dataclasses import fields

import numpy as np
import pytest
import references
from stat_checks import one_sided_upper_confidence

import maxmin.accelerator as accelerator
from maxmin.accelerator import (
    CERTIFICATE_PLAN_FACTOR,
    SolverReport,
    accelerate,
    auto_gamma,
    expected_iteration_bound,
    stopping_threshold,
)
from maxmin.ball_oracle import OracleResult, restricted_oracle
from maxmin.errors import InvalidParams, IterationCapExceeded
from maxmin.estimator import EstimatorCounters, SoftmaxGradientEstimator
from maxmin.geometry import Kind, ball_setup
from maxmin.problems import LinearMaxProblem, MebInstance


class TestStoppingThreshold:
    def test_basic_value(self):
        # 40 * 1 * ln(100) / 0.8 = 50 ln 100
        got = stopping_threshold(1.0, 1.0, 0.8)
        assert got == pytest.approx(50.0 * math.log(100.0), rel=1e-12)
        assert got == pytest.approx(230.25850929940456, abs=1e-9)

    def test_boundary_rejected(self):
        with pytest.raises(InvalidParams):
            stopping_threshold(1.0, 1.0, 80.0)  # log argument hits 1

    def test_second_value(self):
        # 40 * 4 * ln(400) / 0.1; an independent evaluation of the same
        # formula (the spec sheet's 958.68 figure dropped the 1/eps factor)
        got = stopping_threshold(2.0, 0.5, 0.1)
        assert got == pytest.approx(1600.0 * math.log(400.0), rel=1e-12)
        assert got == pytest.approx(9586.343275372771, abs=1e-6)

    def test_positivity_validation(self):
        with pytest.raises(InvalidParams):
            stopping_threshold(-1.0, 1.0, 0.1)


def stub_answer(z, c, rounds=0):
    """An oracle answer with points z, z, multiplier c and empty tallies."""
    return OracleResult(z.copy(), z.copy(), c, 1.0, rounds, 0, 0.0, 0)


def stub_oracle_factory(c_value, pull=0.5):
    """Oracle stub: moves z, w halfway toward a fixed target, returns fixed c."""

    target = None

    def oracle(grad_est, setup, y, rho, gamma_bound):
        z = y if target is None else y + pull * (target - y)
        return stub_answer(z, c_value)

    return oracle


class StubEstimator:
    counters = EstimatorCounters()

    def estimate(self, x):
        return 0, np.zeros_like(x), None


def run_accel(oracle, d=2, **kw):
    """Accelerate on the unit ball (R = 1) with L_f = 1."""
    prob = LinearMaxProblem(np.zeros((1, d)))
    setup = ball_setup(d)
    return accelerate(
        prob, setup, lambda anchor, seed: StubEstimator(), oracle=oracle, **kw
    )


class TestWeightRecursions:
    def test_formula_arithmetic(self):
        # (sqrt(gamma) r / R)^{2/3} = 0.25 with A = 1 gives a = 0.25,
        # A' = 1.25, rho = 5 r
        beta = 0.25
        a_weight = 1.0
        a_inc = beta * a_weight
        a_next = a_weight + a_inc
        assert a_inc == 0.25
        assert a_next == 1.25
        r = 0.17
        assert (a_next / a_inc) * r == pytest.approx(5.0 * r)
        assert (1.0 + 1.0 / beta) * r == pytest.approx(5.0 * r)

    def test_no_damping_at_unit_c(self):
        # c = 1 every round: A_{t+1} = A'_{t+1} and x_{t+1} = Phi_t(z_{t+1})
        rep = run_accel(stub_oracle_factory(1.0), r=0.5, e0=1.0, eps=0.25, gamma=0.25)
        beta = (math.sqrt(0.25) * 0.5 / 1.0) ** (2.0 / 3.0)
        a = 1.0  # A_0 = R^2 / E0
        for rec in rep.iterations:
            a = a + beta * a  # c = 1: the damped and undamped weights agree
            assert rec.a_weight == pytest.approx(a, rel=1e-12)
            assert rec.c == 1.0

    def test_growth_identity_with_damping(self):
        c = 3.0
        rep = run_accel(stub_oracle_factory(c), r=0.5, e0=1.0, eps=0.25, gamma=0.25)
        beta = (math.sqrt(0.25) * 0.5) ** (2.0 / 3.0)
        a = 1.0
        for rec in rep.iterations:
            a = a * (1.0 + beta / c)
            assert rec.a_weight == pytest.approx(a, rel=1e-12)

    def test_rho_constant_across_rounds(self):
        beta = (math.sqrt(0.1) * 0.3 / 1.2) ** (2.0 / 3.0)
        a = 7.3
        rho0 = (1.0 + 1.0 / beta) * 0.3
        for _ in range(60):
            a_inc = beta * a
            rho_t = (a + a_inc) / a_inc * 0.3
            assert rho_t == pytest.approx(rho0, rel=1e-12)
            a += a_inc / 2.2

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(accelerator, "ITERATION_CAP_FACTOR", 0.01)
        with pytest.raises(IterationCapExceeded):
            run_accel(stub_oracle_factory(1e9), r=0.5, e0=1.0, eps=0.25, gamma=0.25)

    def test_stopping_scale_shortens_run(self):
        kw = dict(r=0.5, e0=1.0, eps=0.25, gamma=0.25)
        full = run_accel(stub_oracle_factory(1.0), **kw)
        short = run_accel(stub_oracle_factory(1.0), **kw, stopping_scale=0.25)
        assert short.outer_iterations < full.outer_iterations

    def test_gamma_validation(self):
        with pytest.raises(InvalidParams):
            run_accel(stub_oracle_factory(1.0), r=0.5, e0=1.0, eps=0.1, gamma=0.7)
        with pytest.raises(InvalidParams):
            run_accel(stub_oracle_factory(1.0), r=2.0, e0=1.0, eps=0.1, gamma=0.1)

    def test_expected_iteration_bound_scaling(self):
        base = expected_iteration_bound(1.0, 1.0, 0.1, 0.4, 0.1)
        half = expected_iteration_bound(1.0, 1.0, 0.1, 0.2, 0.1)
        ratio = half / base
        assert ratio == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, -0.2, math.nan])
    def test_radius_checked_before_gamma_is_sized(self, r):
        from maxmin.apps import solve_smooth_max

        with pytest.raises(InvalidParams, match="need 0 < r <= R"):
            solve_smooth_max(LinearMaxProblem(np.eye(2)), 0.2, r=r)

    def test_auto_gamma_sized_from_the_loop_schedule(self):
        from maxmin.apps import solve_smooth_max

        rows = np.random.default_rng(4).standard_normal((6, 3))
        prob = LinearMaxProblem(0.9 * rows / np.linalg.norm(rows, axis=1, keepdims=True))
        eps, r = 0.5, 0.3
        rep = solve_smooth_max(prob, eps, seed=0, r=r)
        # unit ball from the origin: R = 1, tau = 4, E0 = L_f R = 1, and the
        # loop runs at eps / 8 from A_0 = R^2 / E0
        a_max = stopping_threshold(1.0, 1.0, eps / 8.0)
        assert rep.extras["gamma"] == auto_gamma(4.0, a_max, 1.0, prob.lip, 1.0, r)

    @pytest.mark.parametrize("level", [0.0, 1e-4, 0.2])
    def test_auto_gamma_sized_for_the_certificate_plan_weight(self, level):
        from maxmin.apps import solve_smooth_max

        rows = np.random.default_rng(4).standard_normal((6, 3))
        prob = LinearMaxProblem(0.9 * rows / np.linalg.norm(rows, axis=1, keepdims=True))
        eps, r = 0.5, 0.3
        rep = solve_smooth_max(prob, eps, seed=0, r=r, certificate_eps=level)
        # R = 1, so a positive level c plans for min(threshold, K / c); a
        # level of 0 keeps the threshold, as no level does (test above)
        threshold = stopping_threshold(1.0, 1.0, eps / 8.0)
        a_plan = min(threshold, CERTIFICATE_PLAN_FACTOR / level) if level else threshold
        assert (a_plan < threshold) == (level == 0.2)
        assert rep.extras["gamma"] == auto_gamma(4.0, a_plan, 1.0, prob.lip, 1.0, r)

    def test_meb_sub_solves_keep_their_threshold_gamma(self, monkeypatch):
        import maxmin.apps as apps

        calls = []

        def recording_accelerate(problem, *args, **kw):
            rep = accelerate(problem, *args, **kw)
            calls.append((problem.lip, kw, rep.extras["gamma"]))
            return rep

        monkeypatch.setattr(apps, "accelerate", recording_accelerate)
        pts = np.random.default_rng(2).standard_normal((12, 3))
        apps.solve_meb(MebInstance(pts), 0.05, seed=0)
        assert len(calls) >= apps.meb_level_count(0.05)
        for lip, kw, gamma in calls:
            # each level works on the unit ball around its center, R = 1
            threshold = kw["stopping_scale"] * stopping_threshold(1.0, kw["e0"], kw["eps"])
            assert CERTIFICATE_PLAN_FACTOR / kw["certificate_eps"] >= threshold
            assert gamma == auto_gamma(4.0, threshold, 1.0 / kw["e0"], lip, 1.0, kw["r"])


class TestPotentialDecrease:
    def test_mean_potential_step_nonpositive(self):
        # P_t = A_t (f_smax(x_t) - f*) + V_{v_t}(x*) against a brute-force
        # minimizer of the smoothed objective; averaged over 100 seeds the
        # oracle contract makes each step's increment at most the gamma
        # allowance
        import maxmin.refcheck as refcheck
        from maxmin.apps import smoothing_level, solve_smooth_max
        from maxmin.geometry import Kind, ball_setup

        rng = np.random.default_rng(99)
        rows = rng.standard_normal((4, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        prob = LinearMaxProblem(rows * 0.8)
        eps = 0.2
        eps_prime = smoothing_level(eps, prob.n)
        setup = ball_setup(3)

        def smax_val(x):
            return references.f_smax(prob, x, eps_prime)

        def smax_grad(x):
            p = refcheck.exact_softmax_dist(prob, x, eps_prime)
            return p @ prob.rows

        x_star = references.brute_minimize(
            setup, smax_val, smax_grad, np.zeros(3), references.ReferenceBudget(tolerance=1e-11)
        )
        f_star = smax_val(x_star)

        increments = []
        for seed in range(100):
            rep = solve_smooth_max(
                prob, eps, seed=seed, record_trace=True,
                gamma=1e-4, stopping_scale=1.0 / 128.0,
            )
            gamma = rep.extras["gamma"]
            a_prev = 1.0  # A_0 = R^2 / E0 = R / L_f with R = 1, L_f = 1
            x_prev = np.zeros(3)
            v_prev = np.zeros(3)
            for rec in rep.trace[:40]:
                p_prev = a_prev * (smax_val(x_prev) - f_star) + 0.5 * np.sum(
                    (v_prev - x_star) ** 2
                )
                p_cur = rec["A"] * (smax_val(rec["x"]) - f_star) + 0.5 * np.sum(
                    (rec["v"] - x_star) ** 2
                )
                sign = 1.0 if rec["c"] >= 2.0 else -1.0
                increments.append(p_cur - p_prev + gamma * sign * rec["rho"] ** 2)
                a_prev, x_prev, v_prev = rec["A"], rec["x"], rec["v"]
        ucb = one_sided_upper_confidence(np.array(increments))
        assert ucb <= 0.0, f"potential increment UCB {ucb:.3e}"


class SlowAnchorProblem(LinearMaxProblem):
    """A linear family whose batch evaluation, run once per round at the
    estimator's anchor, sleeps before answering."""

    pause = 0.0005

    def values_all(self, x):
        time.sleep(self.pause)
        return super().values_all(x)


class TestTimingSplit:
    def test_slow_anchor_leaves_md_time_intact(self, monkeypatch):
        import maxmin.apps as apps

        oracle_wall = []

        def timed_oracle(*args):
            t0 = time.perf_counter()
            out = restricted_oracle(*args)
            oracle_wall.append(time.perf_counter() - t0)
            return out

        real = apps.accelerate
        monkeypatch.setattr(
            apps, "accelerate", lambda *a, **kw: real(*a, oracle=timed_oracle, **kw)
        )
        rows = np.random.default_rng(0).standard_normal((8, 3))
        prob = SlowAnchorProblem(0.9 * rows / np.linalg.norm(rows, axis=1, keepdims=True))
        rep = apps.solve_smooth_max(prob, 0.8, seed=0)
        assert len(oracle_wall) == rep.outer_iterations
        slept = rep.outer_iterations * SlowAnchorProblem.pause
        # t_md is oracle time less the evaluations inside the oracle; the
        # anchor's evaluations (sleep included) sit in t_eval alone
        assert rep.t_md > 0.0
        assert rep.t_md >= sum(oracle_wall) - rep.t_eval + slept
        assert rep.t_eval + rep.t_md <= rep.wall_time


class TestCounters:
    """Written over the fields of ``EstimatorCounters``, so a new counter
    is covered without an edit here."""

    def test_report_counters_are_sums_over_rounds(self, monkeypatch):
        import maxmin.apps as apps

        rounds = []

        def keeping_factory(*args, **kwargs):
            est = SoftmaxGradientEstimator(*args, **kwargs)
            rounds.append(est)
            return est

        monkeypatch.setattr(apps, "SoftmaxGradientEstimator", keeping_factory)
        rows = np.random.default_rng(5).standard_normal((12, 4))
        prob = LinearMaxProblem(0.9 * rows / np.linalg.norm(rows, axis=1, keepdims=True))
        rep = apps.solve_smooth_max(prob, 0.5, seed=2)
        assert len(rounds) == rep.outer_iterations > 1
        assert rep.draws >= rep.accepted > 0
        for f in fields(EstimatorCounters):
            assert getattr(rep, f.name) == sum(getattr(e.counters, f.name) for e in rounds), f.name

    def test_planned_steps_reported_per_round(self):
        # a round whose lam = 1 probe is accepted runs LI-MD once, so its
        # oracle queries are the planned T
        from maxmin.apps import solve_matrix_game
        from maxmin.problems import MatrixGameInstance

        cols = np.random.default_rng(20240501).standard_normal((20, 25))
        inst = MatrixGameInstance(cols / np.linalg.norm(cols, axis=0), "l2l1")
        _, rep = solve_matrix_game(inst, 0.1, seed=0)
        counters = rep.counters_dict()
        assert counters["oracle_planned_steps"] == [rec.planned_steps for rec in rep.iterations]
        single = [rec for rec in rep.iterations if rec.rounds == 0]
        assert len(single) == rep.outer_iterations > 1
        assert max(rec.planned_steps for rec in single) > 1
        for rec in single:
            assert rec.oracle_queries == rec.planned_steps

    def test_bisection_rounds_reported_per_round(self):
        counts = iter([0, 3, 1, 0, 5, 2] * 100)
        handed_out = []

        def bisecting_oracle(grad_est, setup, y, rho, gamma_bound):
            k = next(counts)
            handed_out.append(k)
            return stub_answer(y, 1.0, rounds=k)

        rep = run_accel(bisecting_oracle, r=0.5, e0=1.0, eps=0.25, gamma=0.25)
        assert rep.outer_iterations > 6
        assert rep.counters_dict()["oracle_bisection_rounds"] == handed_out

    def test_game_rounds_do_not_bisect(self):
        from maxmin.apps import solve_matrix_game
        from maxmin.problems import MatrixGameInstance

        cols = np.random.default_rng(20240501).standard_normal((20, 25))
        inst = MatrixGameInstance(cols / np.linalg.norm(cols, axis=0), "l2l1")
        _, rep = solve_matrix_game(inst, 0.1, seed=0)
        assert rep.outer_iterations > 1
        assert rep.counters_dict()["oracle_bisection_rounds"] == [0] * rep.outer_iterations

    def test_total_sums_each_counter(self):
        names = [f.name for f in fields(EstimatorCounters)]
        parts = [
            SolverReport(
                x=np.zeros(2), f_max_value=0.0, outer_iterations=k, iterations=[],
                t_md=0.25 * k, wall_time=1.0,
                **{name: (j + 1) * 10**k for j, name in enumerate(names)},
            )
            for k in (1, 2)
        ]
        total = SolverReport.total(parts, x=np.ones(2), f_max_value=1.0, wall_time=3.0)
        for name in names:
            assert getattr(total, name) == getattr(parts[0], name) + getattr(parts[1], name), name
        assert total.outer_iterations == 3
        assert total.t_md == 0.75
        assert total.wall_time == 3.0

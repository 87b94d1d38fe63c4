import math

import numpy as np
import pytest
import references

from maxmin import ball_oracle, geometry
from maxmin.ball_oracle import (
    bisection_round_limit,
    li_md,
    restricted_oracle,
    step_plan,
)
from maxmin.errors import GradientCallbackFailed, PreconditionViolated, RejectionStall
from maxmin.geometry import (
    Kind,
    _waterfill,
    ball_setup,
    bregman,
    pnorm,
    prox_step,
    simplex_setup,
    tau,
)


class TestStepPlan:
    def test_eta_steps_identity(self):
        for lam in (1.0, 3.7, 41.0):
            eta, steps = step_plan(0.5, lam, 4.0, 2.0)
            assert isinstance(steps, int) and steps >= 1
            assert eta * steps == pytest.approx(4.0 * 4.0 / lam, rel=1e-12)


class TestLiMd:
    def test_zero_gradient_fixed_point(self):
        setup = ball_setup(3)
        y = np.array([0.1, -0.2, 0.3])
        res = li_md(lambda x: np.zeros(3), setup, y, 1.0, 1.0, 0.05, 50)
        assert not res.out_of_bound
        np.testing.assert_allclose(res.z, y, atol=1e-12)
        np.testing.assert_allclose(res.w, y, atol=1e-12)
        assert res.movement == pytest.approx(0.0)

    def test_zero_gradient_fixed_point_simplex(self):
        # the mirror-averaged w on the truncated simplex: geometric mean of
        # the iterates, then water-filling
        setup = simplex_setup(3, 0.01)
        y = np.array([0.2, 0.3, 0.5])
        res = li_md(lambda x: np.zeros(3), setup, y, 1.0, 1.0, 0.05, 50)
        assert not res.out_of_bound
        assert res.queries == 50
        np.testing.assert_allclose(res.z, y, atol=1e-12)
        np.testing.assert_allclose(res.w, y, atol=1e-12)

    def test_quadratic_converges_to_prox_point(self):
        # h(x) = 1/2||x - b||^2 with lam = 1: minimizer (b + y)/2
        setup = ball_setup(2)
        b = np.array([0.6, -0.2])
        y = np.array([-0.1, 0.1])
        res = li_md(lambda x: x - b, setup, y, 50.0, 1.0, 0.01, 2000)
        assert not res.out_of_bound
        np.testing.assert_allclose(res.z, (b + y) / 2.0, atol=1e-3)

    def test_out_of_bound_boundary_point(self):
        setup = ball_setup(2)
        y = np.zeros(2)
        g = np.array([30.0, 0.0])
        res = li_md(lambda x: g, setup, y, 0.04, 0.0, 0.05, 500)
        assert res.out_of_bound
        assert np.linalg.norm(res.z - y) == pytest.approx(0.04, rel=1e-9)
        np.testing.assert_array_equal(res.z, res.w)

    def test_out_of_bound_simplex_returns_last_average(self):
        setup = simplex_setup(3, 0.01)
        y = np.full(3, 1.0 / 3.0)
        g = np.array([200.0, -200.0, 0.0])
        res = li_md(lambda x: g, setup, y, 0.05, 0.0, 0.5, 500)
        assert res.out_of_bound
        assert references.contains(setup, res.z)
        assert pnorm(res.z - y, setup.p) < 0.05

    def test_queries_stay_in_ball(self):
        setup = ball_setup(2)
        y = np.zeros(2)
        rho = 0.3
        seen = []

        def grad(x):
            seen.append(np.linalg.norm(x - y))
            return np.array([5.0, 1.0])

        li_md(grad, setup, y, rho, 1.0, 0.02, 400)
        assert max(seen) <= rho

    def test_movement_tracks_average_steps(self):
        setup = ball_setup(2)
        y = np.zeros(2)
        rng = np.random.default_rng(0)
        res = li_md(
            lambda x: rng.standard_normal(2) * 0.5, setup, y, 5.0, 1.0, 0.05, 200
        )
        assert res.movement > 0.0
        assert res.queries == 200

    def test_estimator_errors_wrapped(self):
        def bad(_x):
            raise RejectionStall("stalled")

        with pytest.raises(GradientCallbackFailed):
            li_md(bad, ball_setup(2), np.zeros(2), 1.0, 1.0, 0.05, 10)


class TestLambdaBisection:
    def test_flat_objective_returns_floor(self):
        setup = ball_setup(2)
        res = restricted_oracle(lambda x: np.zeros(2), setup, np.zeros(2), 0.5, 1.0)
        assert res.lam == 1.0
        assert res.c == pytest.approx(1.0 + 1.0 / (4.0 * tau(setup)), rel=1e-12)

    def test_linear_objective_lands_in_band(self):
        # h(x) = Gam <u, x>: exact prox point at -(Gam/lam) u, so
        # V_y(prox) = Gam^2 / (2 lam^2) is known in closed form
        setup = ball_setup(3)
        tau_v = tau(setup)
        rho = 0.3
        gam = 2.0
        u = np.array([1.0, 0.0, 0.0])
        y = np.zeros(3)
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q = rng.standard_normal(3)
            q /= np.linalg.norm(q)
            lam = restricted_oracle(lambda x: gam * q, setup, y, rho, gam).lam
            v_exact = 0.5 * min(gam / lam, 1.0) ** 2
            if lam == 1.0 or rho**2 / (1024 * tau_v**4) <= v_exact <= rho**2 / 16.0:
                hits += 1
        assert hits >= 9

    def test_round_limit_respected(self):
        setup = ball_setup(2)
        res = restricted_oracle(lambda x: np.array([5.0, 0.0]), setup, np.zeros(2), 0.2, 5.0)
        assert res.rounds <= bisection_round_limit(4.0, 5.0, 0.2)

    def test_lipschitz_prox_divergence_bound(self):
        # V_y(prox_lam) <= Gam^2 / (2 lam^2) for a Gam-Lipschitz objective
        setup = ball_setup(3)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        gam = 1.5
        y = np.zeros(3)
        for lam in (1.0, 2.0, 8.0):
            ref = references.exact_prox(
                setup, lambda x: gam * float(u @ x), lambda x: gam * u, y, lam
            )
            assert bregman(setup, y, ref) <= gam**2 / (2 * lam**2) + 1e-9


class TestRestrictedOracle:
    def test_flat_objective_output(self):
        setup = ball_setup(2)
        y = np.array([0.2, 0.1])
        res = restricted_oracle(lambda x: np.zeros(2), setup, y, 0.5, 1.0)
        np.testing.assert_allclose(res.z, y, atol=1e-12)
        np.testing.assert_allclose(res.w, y, atol=1e-12)
        assert res.c == pytest.approx(1.0 + 1.0 / (4.0 * tau(setup)), rel=1e-12)
        # the accepted lam = 1 probe is the only run: its T queries in all
        _, steps = step_plan(0.5, 1.0, tau(setup), 1.0)
        assert res.queries == res.planned_steps == steps

    def test_untruncated_simplex_rejected(self):
        # tau is infinite at nu = 0; the step plan would overflow on it
        setup = simplex_setup(3, 0.0)
        with pytest.raises(PreconditionViolated, match="finite tau"):
            restricted_oracle(lambda x: np.ones(3), setup, np.full(3, 1.0 / 3.0), 0.1, 1.0)

    def test_output_is_the_accepted_probe(self, monkeypatch):
        # a gradient large enough to enter bisection: no LI-MD run beyond
        # the probes, and the last probe's points are the output
        runs = []

        def recording_li_md(*args):
            runs.append(li_md(*args))
            return runs[-1]

        monkeypatch.setattr(ball_oracle, "li_md", recording_li_md)
        setup = ball_setup(2)
        rho, gam = 0.3, 1.0
        res = restricted_oracle(
            lambda x: gam * np.array([0.6, 0.8]), setup, np.zeros(2), rho, gam
        )
        assert res.rounds >= 1
        assert len(runs) == 1 + res.rounds
        assert res.queries == sum(run.queries for run in runs)
        assert res.movement == sum(run.movement for run in runs)
        np.testing.assert_array_equal(res.z, runs[-1].z)
        np.testing.assert_array_equal(res.w, runs[-1].w)
        eta, steps = step_plan(rho, res.lam, tau(setup), gam)
        assert res.planned_steps == steps
        assert res.c == res.lam + 1.0 / (eta * steps)

    def test_c_relation_and_cap(self):
        setup = ball_setup(3)
        tau_v = tau(setup)
        rng = np.random.default_rng(1)
        for gam in (0.5, 2.0, 6.0):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            rho = 0.25
            res = restricted_oracle(lambda x: gam * u, setup, np.zeros(3), rho, gam)
            assert res.c == pytest.approx(res.lam * (1.0 + 1.0 / (4.0 * tau_v)), rel=1e-12)
            assert 1.0 <= res.c <= 32.0 * tau_v * gam / rho

    def test_iterate_containment_against_exact_prox(self):
        # good-seed containment: max_t V_{w_t}(prox) stays within the
        # 2 V_y(prox) + 65 log(2/delta) eta^2 Gamma^2 T envelope
        setup = ball_setup(2)
        b = np.array([0.5, -0.3])
        y = np.zeros(2)
        gam = 1.0
        delta = 1e-3
        lam = 2.0
        eta, steps = step_plan(0.4, lam, 4.0, gam)
        ref = references.exact_prox(setup, lambda x: 0.5 * float(np.sum((x - b) ** 2)),
                                  lambda x: x - b, y, lam)
        iterates = []

        def grad(x):
            iterates.append(x.copy())
            return np.clip(x - b, -gam, gam)

        li_md(grad, setup, y, 0.6, lam, eta, steps)
        slack = 65.0 * math.log(2.0 / delta) * eta**2 * gam**2 * steps
        bound = 2.0 * bregman(setup, y, ref) + slack
        worst = max(bregman(setup, w, ref) for w in iterates)
        assert worst <= bound

    def test_movement_instrumented_under_bound(self):
        setup = ball_setup(2)
        gam = 1.2
        rho = 0.3
        rng = np.random.default_rng(3)
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        res = restricted_oracle(lambda x: gam * u, setup, np.zeros(2), rho, gam)
        bound = references.movement_bound(rho, 4.0, gam)
        assert res.movement <= 2.0 * bound


def _center(kind):
    """A setup and a center on it, off the setup's own center."""
    if kind == "ball":
        return ball_setup(3), np.array([0.1, -0.2, 0.3])
    return simplex_setup(3, 0.01), np.array([0.2, 0.3, 0.5])


class TestCenterUnwritten:
    """LI-MD starts x, w and the last in-ball average as the center y
    itself and only rebinds them, so every run, and every oracle call,
    must hand y back bit-unchanged."""

    @pytest.mark.parametrize("kind", ["ball", "simplex"])
    @pytest.mark.parametrize("steps", [1, 50])
    def test_clean_runs(self, kind, steps):
        setup, y = _center(kind)
        before = y.copy()
        res = li_md(lambda x: np.array([0.3, -0.1, 0.2]), setup, y, 1.0, 1.0, 0.05, steps)
        assert not res.out_of_bound
        assert res.queries == steps
        assert y.tobytes() == before.tobytes()
        if steps == 1:
            # one query, at y itself, and no averaging step
            np.testing.assert_array_equal(res.z, y)

    @pytest.mark.parametrize("kind", ["ball", "simplex"])
    def test_out_of_bound_exits(self, kind):
        setup, y = _center(kind)
        before = y.copy()
        g = np.array([200.0, -200.0, 0.0])
        res = li_md(lambda x: g, setup, y, 0.05, 0.0, 0.5, 500)
        assert res.out_of_bound
        assert y.tobytes() == before.tobytes()
        np.testing.assert_array_equal(res.z, res.w)

    @pytest.mark.parametrize("kind", ["ball", "simplex"])
    def test_one_step_oracle_accepts_lam_one(self, kind):
        setup, y = _center(kind)
        before = y.copy()
        rho, gamma_bound = 0.5, 1e-3
        assert step_plan(rho, 1.0, tau(setup), gamma_bound)[1] == 1
        res = restricted_oracle(lambda x: np.array([0.3, -0.1, 0.2]), setup, y, rho,
                                gamma_bound)
        assert res.planned_steps == res.queries == 1
        assert res.lam == 1.0 and res.rounds == 0
        np.testing.assert_array_equal(res.z, y)
        assert y.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind", ["ball", "simplex"])
    def test_bisecting_oracle(self, kind):
        setup, y = _center(kind)
        before = y.copy()
        gamma_bound = 0.2 if kind == "ball" else 0.05
        u = np.array([0.6, -0.8, 0.0])
        res = restricted_oracle(lambda x: gamma_bound * u, setup, y, 0.3, gamma_bound)
        assert res.rounds >= 1
        assert y.tobytes() == before.tobytes()


class TestOneStepRun:
    """A one-step run's mirror average is its one prox iterate, so it
    returns that iterate as w, and y as z, without averaging."""

    G = np.array([0.3, -0.1, 0.2])

    @pytest.mark.parametrize("kind", ["ball", "simplex"])
    def test_returns_its_iterate(self, kind):
        setup, y = _center(kind)
        eta, lam = 0.05, 1.5
        res = li_md(lambda x: self.G, setup, y, 1.0, lam, eta, 1)
        assert not res.out_of_bound and res.queries == 1 and res.movement == 0.0
        assert res.z.tobytes() == y.tobytes()
        assert res.w.tobytes() == prox_step(setup, self.G, eta, lam, y, y).tobytes()

    def test_simplex_water_fills_once(self, monkeypatch):
        calls = []

        def counting(log_xi, nu):
            calls.append(nu)
            return _waterfill(log_xi, nu)

        # the prox step calls it through geometry, the averaging through
        # ball_oracle
        monkeypatch.setattr(geometry, "_waterfill", counting)
        monkeypatch.setattr(ball_oracle, "_waterfill", counting)
        setup, y = _center("simplex")
        li_md(lambda x: self.G, setup, y, 1.0, 1.5, 0.05, 1)
        assert len(calls) == 1
        li_md(lambda x: self.G, setup, y, 1.0, 1.5, 0.05, 2)
        assert len(calls) == 1 + 3

    @pytest.mark.parametrize("kind", ["ball", "simplex"])
    def test_two_step_run_returns_the_average(self, kind):
        setup, y = _center(kind)
        eta, lam = 0.05, 1.5
        res = li_md(lambda x: self.G, setup, y, 1.0, lam, eta, 2)
        w1 = prox_step(setup, self.G, eta, lam, y, y)
        w2 = prox_step(setup, self.G, eta, lam, y, w1)
        last_weight = 1.0 / (lam * eta)
        if setup.kind is Kind.BALL:
            expect = (w1 + w2 + last_weight * w2) / (2.0 + last_weight)
        else:
            log_xi = (np.log(w1) + np.log(w2) + last_weight * np.log(w2)) / (2.0 + last_weight)
            expect = _waterfill(log_xi, setup.nu)
        np.testing.assert_allclose(res.w, expect, rtol=1e-14, atol=0.0)
        assert np.abs(res.w - w2).max() > 1e-6

import math
import warnings

import numpy as np
import pytest
import references

from maxmin.errors import InfeasibleInput, NonFinite
from maxmin.geometry import (
    GeometrySetup,
    Kind,
    _waterfill,
    ball_model_min,
    ball_setup,
    bregman,
    domain_radius_bound,
    model_min,
    pnorm,
    project,
    prox_step,
    simplex_setup,
    tau,
)
from maxmin.selftests import _sample_ball, _sample_simplex, geometry_fuzz_check


def vec(*vals):
    return np.array(vals, dtype=float)


class TestSetupValidation:
    def test_ball_requires_zero_nu(self):
        with pytest.raises(InfeasibleInput):
            GeometrySetup(Kind.BALL, 3, 0.1)

    def test_simplex_nu_cap(self):
        simplex_setup(4, 0.125)  # 1/(2d) boundary is fine
        with pytest.raises(InfeasibleInput):
            simplex_setup(4, 0.2)

    def test_norm_index(self):
        assert ball_setup(3).p == 2
        assert simplex_setup(3, 0.05).p == 1


class TestBregman:
    def test_ball_half_squared_distance(self):
        assert bregman(ball_setup(2), vec(0, 0), vec(1, 0)) == 0.5

    def test_kl_identity(self):
        s = simplex_setup(2, 0.0)
        assert bregman(s, vec(0.5, 0.5), vec(0.5, 0.5)) == 0.0

    def test_kl_value(self):
        # sum_i y_i log(y_i / x_i) at x=(.5,.5), y=(.25,.75), high precision
        s = simplex_setup(2, 0.0)
        got = bregman(s, vec(0.5, 0.5), vec(0.25, 0.75))
        assert got == pytest.approx(0.13081203594113696, abs=1e-15)

    def test_kl_rejects_zero_entries(self):
        s = simplex_setup(2, 0.0)
        with pytest.raises(NonFinite):
            bregman(s, vec(0.0, 1.0), vec(0.5, 0.5))


class TestPnorm:
    """pnorm must round exactly as the module-level formulas it replaced."""

    @pytest.mark.parametrize("size", [1, 3, 50, 10_000])
    @pytest.mark.parametrize("kind", ["random", "zero", "signed"])
    def test_bit_equal_to_module_formulas(self, size, kind):
        rng = np.random.default_rng(size)
        if kind == "random":
            v = rng.random(size)
        elif kind == "zero":
            v = np.zeros(size)
        else:
            # mixed signs over sixteen decades, where summation order shows
            v = rng.standard_normal(size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
        assert pnorm(v, 1) == float(np.sum(np.abs(v)))
        assert pnorm(v, 2) == float(np.sqrt(np.dot(v, v)))


class TestTau:
    def test_ball(self):
        assert tau(ball_setup(7)) == 4.0

    def test_simplex_inverse_e(self):
        # nu = 1/e needs d = 1 to satisfy nu <= 1/(2d)
        assert tau(simplex_setup(1, math.exp(-1.0))) == pytest.approx(6.0, rel=1e-14)

    def test_simplex_percent(self):
        got = tau(simplex_setup(50, 0.01))
        assert got == pytest.approx(6.0 * math.log(100.0), rel=1e-14)
        assert got == pytest.approx(27.631021115928547, rel=1e-12)

    def test_untruncated_is_unbounded(self):
        assert tau(simplex_setup(3, 0.0)) == math.inf

    def test_floor_of_four(self):
        # nu <= 1/(2d) keeps 6 log(1/nu) above the oracle's tau >= 4 floor
        for d in (1, 2, 10, 1000):
            assert tau(simplex_setup(d, 0.5 / d)) >= 4.0


class TestProxStep:
    def test_ball_identity(self):
        b = ball_setup(2)
        x = vec(0.3, 0.4)
        out = prox_step(b, vec(0.0, 0.0), 1.7, 0.0, vec(0.0, 0.0), x)
        np.testing.assert_allclose(out, x)

    def test_simplex_identity(self):
        s = simplex_setup(2, 0.0)
        x = vec(0.3, 0.7)
        out = prox_step(s, vec(0.0, 0.0), 1.0, 0.0, vec(0.5, 0.5), x)
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_waterfill_clamps(self):
        # one coordinate pushed down hard ends exactly at nu; the KKT
        # solution is computed in closed form by hand for this case
        s = simplex_setup(3, 0.1)
        u = np.full(3, 1.0 / 3.0)
        out = prox_step(s, vec(10.0, 0.0, 0.0), 1.0, 0.0, u, u)
        np.testing.assert_allclose(out, vec(0.1, 0.45, 0.45), atol=1e-12)

    def test_waterfill_matches_brute_force(self):
        s = simplex_setup(3, 0.1)
        u = np.full(3, 1.0 / 3.0)
        g = vec(10.0, 0.0, 0.0)
        out = prox_step(s, g, 1.0, 0.0, u, u)
        lu = np.log(u)

        def value(w):
            ws = np.maximum(w, 1e-300)
            return float(g @ w + np.sum(ws * (np.log(ws) - lu)))

        def grad(w):
            return g + np.log(np.maximum(w, 1e-300)) - lu + 1.0

        ref = references.brute_minimize(s, value, grad, u, references.ReferenceBudget(tolerance=1e-11))
        np.testing.assert_allclose(out, ref, atol=1e-7)

    @pytest.mark.parametrize("nu", [0.0, 1e-3, 0.25])
    @pytest.mark.parametrize("g", [0.0, 0.5, -0.5, 3.0, -3.0, 10.0, -10.0, 30.0, -30.0,
                                   701.0, -701.0, 800.0, -800.0])
    def test_waterfill_two_point_closed_form(self, nu, g):
        # d = 2 takes its own branch: the smaller entry is 1 / (1 + e^|g|),
        # clamped at nu, and the larger one is 1 minus it; no exponential
        # may overflow
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            w = _waterfill(vec(0.0, g), nu)
        assert abs(w.sum() - 1.0) <= 1e-15
        assert w.min() >= nu
        # the exact smaller entry, before clamping
        e = math.exp(-abs(g))
        small = e / (1.0 + e)
        if small > nu:
            # the log ratio holds to relative precision, also where the
            # smaller entry is far below 1e-16
            assert math.log(w[1] / w[0]) == pytest.approx(g, rel=1e-14, abs=1e-300)
        elif g > 0.0:
            assert tuple(w) == (nu, 1.0 - nu)
        else:
            assert tuple(w) == (1.0 - nu, nu)

    def test_waterfill_two_point_clamps_exactly_at_nu(self):
        # a clamped entry is nu itself, never 1 - (1 - nu), which can round
        # below nu and leave the truncated simplex
        for nu in np.random.default_rng(0).uniform(1e-4, 0.25, 2000):
            for g, low in ((-10.0, 1), (10.0, 0)):
                w = _waterfill(vec(0.0, g), nu)
                assert w[low] == nu and w[1 - low] == 1.0 - nu

    def test_two_point_prox_loop_keeps_going(self):
        # KL prox steps under the constant gradient (0, 1) on the
        # untruncated 2-simplex: after k unit steps from uniform the second
        # entry is e^-k / (1 + e^-k), far below the precision of 1 - w_0
        s = simplex_setup(2, 0.0)
        g = vec(0.0, 1.0)
        w = vec(0.5, 0.5)
        for _ in range(100):
            w = prox_step(s, g, 1.0, 0.0, w, w)
        assert w[1] == pytest.approx(math.exp(-100.0), rel=1e-12)
        assert w[0] == 1.0

    def test_ball_closed_form_with_anchor(self):
        b = ball_setup(3)
        rng = np.random.default_rng(0)
        x, y = _sample_ball(rng, 2, 3)
        g = rng.standard_normal(3) * 0.3
        eta, lam = 0.2, 1.5
        out = prox_step(b, g, eta, lam, y, x)
        expect = (x + eta * lam * y - eta * g) / (1.0 + eta * lam)
        if np.linalg.norm(expect) > 1.0:
            expect /= np.linalg.norm(expect)
        np.testing.assert_allclose(out, expect, atol=1e-14)

    def test_random_prox_first_order_optimality(self):
        # brute-force projected-gradient solves of the same subproblem
        rng = np.random.default_rng(42)
        for setup in (ball_setup(4), simplex_setup(4, 0.05)):
            for trial in range(12):
                if setup.kind is Kind.BALL:
                    x, y = _sample_ball(rng, 2, 4)
                else:
                    x, y = _sample_simplex(rng, 2, setup)
                g = rng.standard_normal(4)
                eta = float(rng.random() * 0.8 + 0.1)
                lam = float(rng.random() * 2.0)
                out = prox_step(setup, g, eta, lam, y, x)

                if setup.kind is Kind.BALL:
                    def value(w, x=x, y=y, g=g, eta=eta, lam=lam):
                        return float(
                            eta * (g @ w + lam * 0.5 * np.sum((w - y) ** 2))
                            + 0.5 * np.sum((w - x) ** 2)
                        )

                    def grad(w, x=x, y=y, g=g, eta=eta, lam=lam):
                        return eta * (g + lam * (w - y)) + (w - x)

                else:
                    ly, lx = np.log(y), np.log(x)

                    def value(w, lx=lx, ly=ly, g=g, eta=eta, lam=lam):
                        ws = np.maximum(w, 1e-300)
                        lw = np.log(ws)
                        return float(
                            eta * (g @ w + lam * np.sum(ws * (lw - ly)))
                            + np.sum(ws * (lw - lx))
                        )

                    def grad(w, lx=lx, ly=ly, g=g, eta=eta, lam=lam):
                        lw = np.log(np.maximum(w, 1e-300))
                        return eta * (g + lam * (lw - ly + 1.0)) + (lw - lx + 1.0)

                ref = references.brute_minimize(
                    setup, value, grad, x, references.ReferenceBudget(tolerance=1e-11)
                )
                assert value(out) <= value(ref) + 1e-7

    def test_rejects_nonfinite_gradient(self):
        with pytest.raises(NonFinite):
            prox_step(ball_setup(2), vec(np.nan, 0.0), 1.0, 0.0, vec(0, 0), vec(0, 0))


class TestDomainRadius:
    def test_ball_origin(self):
        assert domain_radius_bound(ball_setup(5)) == 1.0

    def test_simplex_uniform(self):
        got4 = domain_radius_bound(simplex_setup(4, 0.01))
        assert got4 == pytest.approx(math.sqrt(2.0 * math.log(4.0)), rel=1e-12)
        assert got4 == pytest.approx(1.6651092223153954, abs=1e-12)
        got2 = domain_radius_bound(simplex_setup(2, 0.01))
        assert got2 == pytest.approx(1.1774100225154747, abs=1e-12)

    def test_covers_divergence(self):
        rng = np.random.default_rng(7)
        s = simplex_setup(5, 0.02)
        x0 = s.center()
        r = domain_radius_bound(s)
        pts = _sample_simplex(rng, 500, s)
        vals = [bregman(s, x0, p) for p in pts]
        assert max(vals) <= r * r


class TestFuzzSuites:
    # smaller replicas of the acceptance-scale fuzz runs
    @pytest.mark.parametrize("setup", [ball_setup(5), simplex_setup(5, 0.03)])
    def test_divergence_inequalities(self, setup):
        for res in geometry_fuzz_check(setup, count=2000, seed=3):
            assert res.passed, res.row()


class TestProject:
    def test_ball_rescale(self):
        out = project(ball_setup(2), vec(3.0, 4.0))
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_simplex_cleanup(self):
        s = simplex_setup(3, 0.1)
        out = project(s, vec(0.05, 0.9, 0.15))
        assert np.all(out >= s.nu - 1e-12)
        assert np.sum(out) == pytest.approx(1.0)


class TestModelMin:
    def test_zero_modulus_is_the_linear_minimum(self):
        g = vec(0.3, -0.4, 1.2)
        assert model_min(ball_setup(3), g) == -math.sqrt(float(g @ g))
        assert model_min(simplex_setup(3, 0.05), g) == -0.4

    @pytest.mark.parametrize("mu", [0.5, 1.0, 4.0])
    def test_ball_minimum_against_samples(self, mu):
        rng = np.random.default_rng(11)
        setup = ball_setup(3)
        for _ in range(20):
            g = rng.standard_normal(3) * rng.choice([0.1, 1.0, 5.0])
            x0 = _sample_ball(rng, 1, 3)[0]
            got, s = ball_model_min(float(g @ x0), float(g @ g), float(x0 @ x0), mu)
            pts = np.vstack([_sample_ball(rng, 4000, 3), x0])
            vals = pts @ g + 0.5 * mu * np.sum((pts - x0) ** 2, axis=1)
            assert got <= vals.min() + 1e-12
            # attained: the projection of x0 - g/mu is a feasible point,
            # and the returned divisor gives it
            c = project(setup, x0 - g / mu)
            assert got == pytest.approx(float(c @ g) + 0.5 * mu * float((c - x0) @ (c - x0)))
            np.testing.assert_allclose((x0 - g / mu) / s, c, rtol=0, atol=1e-12)

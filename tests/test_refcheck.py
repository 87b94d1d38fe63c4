import itertools
import math

import numpy as np
import pytest
import references
from stat_checks import chi_square_pvalue, one_sided_upper_confidence

from maxmin import refcheck
from maxmin.geometry import ball_setup, simplex_setup
from maxmin.problems import LinearMaxProblem, MatrixGameInstance


class TestExactMatvec:
    def test_zero(self):
        np.testing.assert_array_equal(refcheck.exact_matvec(np.zeros((3, 4)), np.ones(4)), 0.0)

    def test_identity(self):
        e1 = np.eye(4)[0]
        np.testing.assert_array_equal(refcheck.exact_matvec(np.eye(4), e1), e1)

    def test_reordered_summation(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 3))
        x = rng.standard_normal(3)
        perm = rng.permutation(3)
        again = refcheck.exact_matvec(a[:, perm], x[perm])
        np.testing.assert_allclose(refcheck.exact_matvec(a, x), again, rtol=1e-15)


class TestSoftmaxDist:
    def test_equal_values_uniform(self):
        p = refcheck.softmax_from_values(np.full(6, 1.3), 0.01)
        np.testing.assert_allclose(p, np.full(6, 1 / 6), rtol=1e-12)

    def test_single(self):
        np.testing.assert_array_equal(refcheck.softmax_from_values(np.array([2.0]), 0.5), [1.0])

    def test_matches_direct_computation(self):
        vals = np.array([0.11, -0.42, 0.33, 0.02, -0.1])
        eps = 0.07
        direct = np.exp(vals / eps)
        direct /= direct.sum()
        got = refcheck.softmax_from_values(vals, eps)
        np.testing.assert_allclose(got, direct, rtol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_extreme_values_stay_finite(self):
        p = refcheck.softmax_from_values(np.array([0.0, 5000.0]), 1e-3)
        assert np.all(np.isfinite(p))
        assert p[1] == pytest.approx(1.0)


class TestExactProx:
    def test_zero_objective_returns_center(self):
        y = np.array([0.2, -0.1])
        out = references.exact_prox(ball_setup(2), lambda x: 0.0, lambda x: np.zeros(2), y, 1.0)
        np.testing.assert_allclose(out, y, atol=1e-8)

    def test_euclidean_quadratic_closed_form(self):
        # argmin 1/2||x-b||^2 + lam/2 ||x-y||^2 = (b + lam y)/(1 + lam)
        b = np.array([0.3, -0.4, 0.1])
        y = np.array([-0.2, 0.1, 0.0])
        lam = 1.7
        out = references.exact_prox(
            ball_setup(3),
            lambda x: 0.5 * float(np.sum((x - b) ** 2)),
            lambda x: x - b,
            y,
            lam,
            references.ReferenceBudget(tolerance=1e-11),
        )
        np.testing.assert_allclose(out, (b + lam * y) / (1 + lam), atol=1e-6)

    def test_simplex_linear_matches_waterfill(self):
        from maxmin.geometry import prox_step

        s = simplex_setup(4, 0.05)
        y = np.full(4, 0.25)
        g = np.array([1.0, -0.5, 0.2, 0.0])
        lam = 2.0
        # prox_step with x = y solves argmin <g,w> + lam*(1 + 1/eta... ) --
        # choose eta so the combined divergence weight matches lam:
        # eta(g.w + lam' V_y) + V_y with lam' = (lam - 1/eta)... use direct
        # equivalence: argmin h + lam V_y == prox_step(g/..., eta=1/lam, 0, y, y)
        out = prox_step(s, g / lam, 1.0, 0.0, y, y)
        ref = references.exact_prox(
            s, lambda x: float(g @ x), lambda x: g, y, lam,
            references.ReferenceBudget(tolerance=1e-11),
        )
        np.testing.assert_allclose(out, ref, atol=1e-6)


class TestDualityGap:
    def test_identity_uniform_saddle(self):
        inst = MatrixGameInstance(np.eye(2), "l1l1")
        x = np.full(2, 0.5)
        y = np.full(2, 0.5)
        assert references.duality_gap(inst, x, y) == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix(self):
        inst = MatrixGameInstance(np.zeros((3, 4)), "l2l1")
        assert references.duality_gap(inst, np.zeros(3), np.full(4, 0.25)) == 0.0

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 8))
        a /= np.linalg.norm(a, axis=0).max()
        inst = MatrixGameInstance(a, "l2l1")
        for _ in range(25):
            x = rng.standard_normal(6)
            x /= max(1.0, np.linalg.norm(x))
            y = rng.dirichlet(np.ones(8))
            assert references.duality_gap(inst, x, y) >= -1e-12


class TestWelzl:
    def test_two_points(self):
        c, r = refcheck.welzl_meb(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(c, [0.5, 0.0], atol=1e-12)
        assert r == pytest.approx(0.5, abs=1e-12)

    def test_single_point(self):
        c, r = refcheck.welzl_meb(np.array([[0.3, 0.1, -0.2]]))
        np.testing.assert_allclose(c, [0.3, 0.1, -0.2])
        assert r == 0.0

    def test_all_points_inside(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            pts = rng.standard_normal((60, d))
            c, r = refcheck.welzl_meb(pts)
            assert np.max(np.linalg.norm(pts - c, axis=1)) <= r + 1e-9

    def test_matches_support_enumeration(self):
        # for small 2-D point sets the optimum is the smallest ball over
        # all support subsets of size <= 3 that contains everything
        rng = np.random.default_rng(9)
        for _ in range(10):
            pts = rng.standard_normal((4, 2))
            _, r = refcheck.welzl_meb(pts)
            best = math.inf
            for size in (1, 2, 3):
                for sub in itertools.combinations(range(4), size):
                    c, rr = refcheck._circumball(pts[list(sub)])
                    if np.max(np.linalg.norm(pts - c, axis=1)) <= rr + 1e-9:
                        best = min(best, rr)
            assert r == pytest.approx(best, abs=1e-8)

    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(2).standard_normal((40, 3))
        a = refcheck.welzl_meb(pts, rng_seed=7)
        b = refcheck.welzl_meb(pts, rng_seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]


class TestStatsHelpers:
    def test_tv_distance(self):
        assert refcheck.tv_distance([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)

    def test_chi_square_uniform(self):
        rng = np.random.default_rng(0)
        counts = np.bincount(rng.integers(0, 8, 4000), minlength=8)
        assert chi_square_pvalue(counts, np.full(8, 0.125)) > 0.01

    def test_upper_confidence_bound(self):
        samples = np.array([-1.0, -1.2, -0.8, -1.1])
        ub = one_sided_upper_confidence(samples)
        assert samples.mean() < ub < 0.0

    def test_projection_onto_truncated_simplex(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal(6)
        out = references.project_truncated_simplex(p, 0.05)
        assert np.all(out >= 0.05 - 1e-12)
        assert out.sum() == pytest.approx(1.0)
        # projection is the closest feasible point: compare against a fine
        # random search around it
        base = float(np.sum((out - p) ** 2))
        for _ in range(200):
            cand = references.project_truncated_simplex(out + rng.standard_normal(6) * 0.05, 0.05)
            assert float(np.sum((cand - p) ** 2)) >= base - 1e-9

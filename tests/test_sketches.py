import math

import numpy as np
import pytest

from maxmin import refcheck
from maxmin.errors import NormBoundViolated
from maxmin.selftests import mve_error_check
from maxmin.sketches import (
    CountSketchMve,
    ExactMve,
    SampleMve,
    mve_init,
)
from maxmin.sumtree import SumTree


def unit_rows(rng, n, d, p):
    a = rng.standard_normal((n, d))
    if p == 2:
        a /= np.linalg.norm(a, axis=1, keepdims=True)
    else:
        a /= np.abs(a).max()
    return a


class TestInit:
    def test_shape_formula(self):
        m = CountSketchMve(np.eye(3), eps=0.5, delta=0.1, seed=0)
        assert m.t == math.ceil(8 * math.log(3 / 0.1))
        assert m.b == math.ceil(6 / 0.25)

    def test_zero_matrix_queries_zero(self):
        for p in (1, 2):
            m = mve_init(np.zeros((4, 6)), p, 0.3, 0.1, 0)
            np.testing.assert_array_equal(m.query(np.ones(6)), np.zeros(4))

    def test_norm_bound_enforced(self):
        with pytest.raises(NormBoundViolated):
            mve_init(np.full((2, 2), 0.9), 2, 0.3, 0.1, 0)  # row norm 1.27
        with pytest.raises(NormBoundViolated):
            mve_init(np.full((2, 2), 1.5), 1, 0.3, 0.1, 0)

    def test_sample_count_formula(self):
        m = SampleMve(np.eye(5), eps=0.2, delta=0.05, seed=0)
        assert m.sample_count == math.ceil(2 / 0.04 * math.log(2 * 5 / 0.05))


class TestQueries:
    def test_zero_vector(self):
        rng = np.random.default_rng(0)
        for p in (1, 2):
            a = unit_rows(rng, 8, 5, p)
            m = mve_init(a, p, 0.4, 0.1, 1)
            np.testing.assert_array_equal(m.query(np.zeros(5)), np.zeros(8))

    def test_p1_singleton_support_exact(self):
        rng = np.random.default_rng(1)
        a = unit_rows(rng, 10, 6, 1)
        m = SampleMve(a, 0.5, 0.1, 2)
        e3 = np.eye(6)[3]
        np.testing.assert_allclose(m.query(e3), a[:, 3], rtol=1e-12)

    def test_p1_draws_with_sumtree(self, monkeypatch):
        """SampleMve draws its coordinates with ``SumTree.sample_batch`` over
        |x|, on its own stream, and scales by the tree's total."""
        rng = np.random.default_rng(3)
        a = unit_rows(rng, 7, 40, 1)
        x = rng.standard_normal(40)
        drawn = []
        sample_batch = SumTree.sample_batch

        def logged_batch(self, rng_, count):
            idx = sample_batch(self, rng_, count)
            drawn.append(idx)
            return idx

        monkeypatch.setattr(SumTree, "sample_batch", logged_batch)
        m = SampleMve(a, 0.4, 0.1, 11)
        got = m.query(x)
        tree = SumTree(np.abs(x))
        same = np.random.Generator(np.random.Philox(11))
        expected = sample_batch(tree, same, m.sample_count)
        [idx] = drawn
        np.testing.assert_array_equal(idx, expected)
        np.testing.assert_array_equal(
            got, (tree.total / m.sample_count) * (a[:, expected] @ np.sign(x[expected]))
        )

    def test_p1_never_draws_a_zero_coordinate(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(30)
        x[::3] = 0.0
        a = np.eye(30)
        # eps = 0.01 plans more than 10^5 draws in one query
        m = SampleMve(a, 0.01, 0.1, 4)
        assert m.sample_count >= 100_000
        est = m.query(x)
        assert not est[::3].any()
        assert np.all(est[x != 0.0] != 0.0)

    def test_p2_identity_basis_vector(self):
        # 200 fresh (init, query) pairs; failures bounded by delta plus slack
        delta, eps, trials = 0.1, 0.3, 200
        fails = 0
        for seed in range(trials):
            m = CountSketchMve(np.eye(20), eps, delta, seed)
            err = np.max(np.abs(m.query(np.eye(20)[0]) - np.eye(20)[0]))
            fails += err > eps
        assert fails <= trials * refcheck.binomial_slack_bound(delta, trials)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        a = unit_rows(rng, 6, 9, 2)
        x = rng.standard_normal(9)
        q1 = CountSketchMve(a, 0.3, 0.1, 99).query(x)
        q2 = CountSketchMve(a, 0.3, 0.1, 99).query(x)
        np.testing.assert_array_equal(q1, q2)
        a1 = unit_rows(rng, 6, 9, 1)
        s1 = SampleMve(a1, 0.3, 0.1, 5).query(x)
        s2 = SampleMve(a1, 0.3, 0.1, 5).query(x)
        np.testing.assert_array_equal(s1, s2)

    def test_sketch_linearity_exact(self):
        # n / delta < e^{1/8} plans one repetition, whose median is the
        # estimate <S a, S x> itself, linear in x; a dyadic row and
        # integer-valued inputs keep every partial sum exactly
        # representable, so linearity holds bit-for-bit
        rng = np.random.default_rng(5)
        a = rng.integers(-2, 3, (1, 7)) / 8.0
        m = CountSketchMve(a, 0.4, 0.9, 3)
        assert m.t == 1
        x = rng.integers(-8, 8, 7).astype(float)
        y = rng.integers(-8, 8, 7).astype(float)
        np.testing.assert_array_equal(m.query(x) + m.query(y), m.query(x + y))

    @pytest.mark.parametrize("n, d, eps", [(4, 4, 0.01), (6, 9, 0.3), (30, 80, 0.5), (50, 200, 0.9)])
    def test_sparse_rows_match_dense_sketch(self, n, d, eps):
        # the textbook CountSketch: repetition rep's b x d signed hash
        # matrix S estimates row i's product as <S a_i, S x>
        rng = np.random.default_rng(n * d)
        a = 0.5 * np.eye(4) if n == d == 4 else unit_rows(rng, n, d, 2)
        m = CountSketchMve(a, eps, 0.01, 7)
        xs = rng.standard_normal((3, d))
        estimates = np.zeros((3, n, m.t))
        for rep in range(m.t):
            hash_matrix = np.zeros((m.b, d))
            hash_matrix[m.buckets[rep], np.arange(d)] = m.signs[rep]
            estimates[:, :, rep] = (hash_matrix @ xs.T).T @ (hash_matrix @ a.T)
        for x, dense in zip(xs, estimates):
            np.testing.assert_allclose(m.query(x), np.median(dense, axis=1), rtol=0, atol=1e-12)
        # only occupied buckets are stored, at most d per repetition
        assert m.row_sketches.size <= n * m.t * d

    def test_exact_fallback(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 4))
        x = rng.standard_normal(4)
        np.testing.assert_allclose(ExactMve(a).query(x), refcheck.exact_matvec(a, x), rtol=1e-12)


class TestStatisticalGuarantees:
    def test_p1_sampling_unbiased(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(12)
        a /= np.abs(a).max()
        x = rng.standard_normal(12)
        # eps = 10 plans one coordinate draw per query
        m = SampleMve(a[None, :], eps=10.0, delta=0.5, seed=7)
        assert m.sample_count == 1
        draws = np.array([m.query(x)[0] for _ in range(100_000)])
        target = float(a @ x)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - target) <= 5 * se

    @pytest.mark.parametrize("p", [1, 2])
    def test_error_rate_within_bound(self, p):
        for res in mve_error_check(p, trials=200, seed=123):
            assert res.passed, res.row()

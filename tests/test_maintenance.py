import math

import numpy as np
import pytest

from maxmin.errors import BudgetExceeded, InvalidParams
from maxmin.geometry import pnorm
from maxmin.maintenance import DyadicMaintainer, MatVecMaintainer
from maxmin.selftests import mvm_walk_check
from maxmin.sketches import ExactMve


def unit_rows(rng, n, d, p=2):
    a = rng.standard_normal((n, d))
    if p == 2:
        a /= np.linalg.norm(a, axis=1, keepdims=True)
    else:
        a /= np.abs(a).max()
    return a


class TestInit:
    def test_level_count(self):
        m = DyadicMaintainer(np.zeros((3, 4)), np.zeros(4), 4.0, 1.0, 0.1, p=1)
        assert m.k == 3  # ceil(log2 4) + 1

    def test_level_count_and_accuracies(self):
        m = DyadicMaintainer(np.zeros((30, 10)), np.zeros(10), 1.0, 0.05, 0.1, p=1)
        assert m.k == 6
        # alpha_i proportional to 2^{i/3}, normalized; eps_i = alpha_i 2^{-i}
        i = np.arange(1, 7)
        raw = 2.0 ** (i / 3.0)
        alpha = raw / raw.sum()
        np.testing.assert_allclose(m.alpha, alpha, rtol=1e-14)
        np.testing.assert_allclose(m.level_eps, alpha * 2.0 ** (-i.astype(float)), rtol=1e-14)
        assert m.alpha.sum() == pytest.approx(1.0, abs=1e-14)
        assert m.delta_bar == pytest.approx(0.1 * 0.05 / 1.0)

    def test_accuracy_above_half_range_rejected(self):
        with pytest.raises(InvalidParams, match="R/2"):
            DyadicMaintainer(np.zeros((2, 2)), np.zeros(2), 1.0, 0.9, 0.1, p=2)
        assert DyadicMaintainer(np.zeros((2, 2)), np.zeros(2), 1.0, 0.5, 0.1, p=2).k == 2

    def test_rejects_bad_p(self):
        with pytest.raises(InvalidParams):
            DyadicMaintainer(np.zeros((2, 2)), np.zeros(2), 1.0, 0.1, 0.1, p=3)
        with pytest.raises(InvalidParams):
            MatVecMaintainer(np.zeros((2, 2)), 0.1, p=3)

    def test_zero_matrix_stays_zero(self):
        rng = np.random.default_rng(0)
        m = DyadicMaintainer(np.zeros((4, 3)), np.zeros(3), 1.0, 0.2, 0.1, p=1)
        for _ in range(20):
            y, _ = m.query(rng.standard_normal(3) * 0.01)
            np.testing.assert_array_equal(y, np.zeros(4))


class TestQuery:
    def test_zero_step_changes_nothing(self):
        # a repeated query point is a zero step
        rng = np.random.default_rng(1)
        a = unit_rows(rng, 5, 4)
        m = MatVecMaintainer(a, 0.1, p=2)
        x = rng.standard_normal(4) * 0.05
        m.query(x)
        before = m.y.copy()
        y, refreshed = m.query(x)
        assert not refreshed
        np.testing.assert_array_equal(y, before)
        # p = 1 levels keep A alone, not the large sketches of p = 2 ones
        m = DyadicMaintainer(unit_rows(rng, 5, 4, p=1), np.zeros(4), 1.0, 0.1, 0.1, p=1)
        x = rng.standard_normal(4) * 0.05
        m.query(x)
        before = m.ref_y[1].copy()
        y, refreshed = m.query(x)
        assert not refreshed
        np.testing.assert_array_equal(y, before)

    def test_budget_exceeded_raises_and_preserves_state(self):
        a = unit_rows(np.random.default_rng(2), 3, 3)
        m = DyadicMaintainer(a, np.zeros(3), 1.0, 0.25, 0.1, p=2)
        m.query(np.array([0.9, 0.0, 0.0]))
        x_before = m.x.copy()
        with pytest.raises(BudgetExceeded):
            m.query(np.array([0.5, 0.0, 0.0]))
        np.testing.assert_array_equal(m.x, x_before)

    def test_single_full_budget_move(self):
        # one query of norm R against the exact product, many seeds
        rng = np.random.default_rng(3)
        fails = 0
        for seed in range(100):
            a = np.eye(12)
            m = DyadicMaintainer(a, np.zeros(12), 1.0, 0.25, 0.1, p=2, rng_seed=seed)
            delta = rng.standard_normal(12)
            delta /= np.linalg.norm(delta)
            y, _ = m.query(delta)
            fails += np.max(np.abs(y - delta)) > 0.25
        assert fails <= 100 * (0.1 + 3 * math.sqrt(0.1 * 0.9 / 100))

    def test_exact_mode_error_deterministically_small(self):
        # the exact maintainer's only error is the reference gap <= eps/2,
        # however far x walks: here a total movement of 100 eps
        rng = np.random.default_rng(4)
        a = unit_rows(rng, 6, 5)
        eps = 0.05
        m = MatVecMaintainer(a, eps, p=2)
        cur = np.zeros(5)
        for _ in range(300):
            step = rng.standard_normal(5)
            step *= (eps / 3.0) / np.linalg.norm(step)
            cur += step
            y, _ = m.query(cur)
            assert np.max(np.abs(y - a @ cur)) <= eps / 2 + 1e-12

    def test_exact_mode_pays_one_product_per_refresh(self, monkeypatch):
        # one long move costs the exact maintainer one product
        calls = []
        real = ExactMve.query
        monkeypatch.setattr(ExactMve, "query", lambda mve, x: calls.append(1) or real(mve, x))
        rng = np.random.default_rng(8)
        a = unit_rows(rng, 7, 5)
        m = MatVecMaintainer(a, 0.01, p=2)
        x = rng.standard_normal(5)
        x *= 0.9 / np.linalg.norm(x)
        y, refreshed = m.query(x)
        assert len(calls) == 1
        np.testing.assert_allclose(y, a @ x, rtol=0, atol=1e-12)
        assert refreshed

    def test_top_reference_never_moves(self):
        rng = np.random.default_rng(5)
        a = unit_rows(rng, 4, 4, p=1)
        m = DyadicMaintainer(a, np.zeros(4), 1.0, 0.1, 0.1, p=1)
        top_before = m.ref_x[m.k + 1].copy()
        cur = np.zeros(4)
        for _ in range(200):
            step = rng.standard_normal(4)
            step *= (1.0 / 210) / np.linalg.norm(step, ord=1)
            cur += step
            m.query(cur)
        np.testing.assert_array_equal(m.ref_x[m.k + 1], top_before)

    def test_level_budgets_respected(self):
        rng = np.random.default_rng(6)
        a = unit_rows(rng, 5, 6)
        m = DyadicMaintainer(a, np.zeros(6), 1.0, 0.125, 0.1, p=2)
        total = 0.0
        cur = np.zeros(6)
        while total < 0.99:
            step = rng.standard_normal(6)
            step *= min(0.013, 0.99 - total) / np.linalg.norm(step)
            total += np.linalg.norm(step)
            cur += step
            m.query(cur)
        for i in range(1, m.k + 1):
            assert m.query_counts[i] <= m.level_budget(i) + 1e-9

    def test_refresh_flag_reported(self):
        # the flag is set exactly when x has moved past eps/2 from the last
        # refresh point; y is then the product at x, and otherwise the
        # previous y, bit for bit
        rng = np.random.default_rng(7)
        a = unit_rows(rng, 8, 4)
        m = MatVecMaintainer(a, 0.2, p=2)
        x, x_bar = np.zeros(4), np.zeros(4)
        prev = m.y.copy()
        flags = set()
        for _ in range(60):
            step = rng.standard_normal(4)
            step *= 0.015 / np.linalg.norm(step)
            x += step
            y, refreshed = m.query(x)
            flags.add(refreshed)
            assert refreshed == (pnorm(x - x_bar, 2) > 0.1)
            if refreshed:
                x_bar = x.copy()
                np.testing.assert_array_equal(y, a @ x)
            else:
                np.testing.assert_array_equal(y, prev)
            prev = y.copy()
        assert flags == {True, False}

    def test_refresh_does_not_alias_the_query(self):
        # callers may reuse the array they query with: writing to it after
        # a refresh moves neither the reference point nor y
        rng = np.random.default_rng(9)
        a = unit_rows(rng, 6, 3)
        m = MatVecMaintainer(a, 0.1, p=2)
        x = np.array([0.3, -0.2, 0.1])
        y, refreshed = m.query(x)
        assert refreshed
        x_bar, y_before = m.x_bar.copy(), y.copy()
        x += 0.5
        np.testing.assert_array_equal(m.x_bar, x_bar)
        np.testing.assert_array_equal(m.y, y_before)
        np.testing.assert_array_equal(y, y_before)


class TestStatistical:
    @pytest.mark.parametrize("p", [1, 2])
    def test_random_walk_error_rate(self, p):
        # reduced-scale replica of the acceptance walk (30 seeds here)
        for res in mvm_walk_check(p, n=20, d=8, steps=120, seeds=30, seed=11):
            assert res.passed, res.row()

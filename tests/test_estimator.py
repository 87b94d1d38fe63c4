import copy
import math

import numpy as np
import pytest
import references
from hypothesis import example, given, settings
from hypothesis import strategies as st
from stat_checks import chi_square_pvalue

from maxmin import apps, refcheck
from maxmin.ball_oracle import li_md
from maxmin.errors import (
    BudgetExceeded,
    GradientCallbackFailed,
    InvalidParams,
    PreconditionViolated,
    RejectionStall,
)
from maxmin.estimator import SoftmaxGradientEstimator
from maxmin.geometry import ball_model_min, ball_setup, model_min, pnorm, simplex_setup
from maxmin.maintenance import DyadicMaintainer
from maxmin.problems import LinearMaxProblem, MatrixGameInstance, MebInstance, QuadraticMaxProblem
from maxmin.selftests import dyadic_factory
from maxmin.sumtree import SumTree


def linear_problem(rng, n, d, scale=0.9):
    rows = rng.standard_normal((n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return LinearMaxProblem(rows * scale)


def sampler_stream(seed):
    """The Philox stream keyed by ``seed`` and the spawn key (202,), as the
    selftests' sampler check keys its own; every estimator built here
    draws from one, so each pinned statistical test keeps its numbers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(202,))))


def make_estimator(problem, d, eps_prime=0.05, r=0.2, seed=0, **kw):
    return SoftmaxGradientEstimator(
        problem, np.zeros(d), eps_prime, r, 0.05, sampler_stream(seed), p=2, **kw
    )


def dyadic(seed, eps_prime, r_budget, lip=1.0):
    """A factory of sketch chains at accuracy eps' / L_f and failure
    probability 0.025, half the delta = 0.05 these estimators run at."""
    return dyadic_factory(seed, r_budget, eps_prime / lip, 0.025, 2)


class TestSumTree:
    def test_total_and_update(self):
        t = SumTree(np.array([1.0, 2.0, 3.0]))
        assert t.total == 6.0
        t.update(1, 5.0)
        assert t.total == 9.0

    def test_sampling_distribution(self):
        rng = np.random.default_rng(0)
        w = np.array([0.1, 0.0, 0.4, 0.5])
        t = SumTree(w)
        idx = t.sample_batch(rng, 40_000)
        freq = np.bincount(idx, minlength=4) / 40_000
        np.testing.assert_allclose(freq, w, atol=0.02)
        assert freq[1] == 0.0

    def test_update_keeps_small_weight_beside_large(self):
        t = SumTree(np.array([1.0, 3e16, 0.0]))
        t.update(1, 1.0)
        assert t.weights[1] == 1.0
        assert t.total == 2.0
        freq = np.bincount(t.sample_batch(np.random.default_rng(2), 20_000), minlength=3)
        np.testing.assert_allclose(freq / 20_000, [0.5, 0.5, 0.0], atol=0.02)

    def test_draws_see_new_weights(self):
        rng = np.random.default_rng(3)
        t = SumTree(np.array([1.0, 0.0, 0.0]))
        assert set(t.sample_batch(rng, 100).tolist()) == {0}
        t.update(np.array([0, 2]), np.array([0.0, 1.0]))
        assert set(t.sample_batch(rng, 100).tolist()) == {2}
        t.rebuild(np.array([0.0, 1.0, 0.0]))
        assert set(t.sample_batch(rng, 100).tolist()) == {1}
        assert t.total == 1.0

    def test_vector_update_matches_point_updates(self):
        rng = np.random.default_rng(4)
        w = rng.random(50)
        idx = rng.choice(50, size=20, replace=False)
        new = rng.random(20) * 3.0
        new[::5] = -1.0  # negative weights clamp to zero either way
        vec, point = SumTree(w), SumTree(w)
        vec.update(idx, new)
        for i, wi in zip(idx.tolist(), new.tolist()):
            point.update(i, wi)
        np.testing.assert_array_equal(vec.weights, point.weights)
        assert vec.total == point.total
        np.testing.assert_array_equal(vec.sample_batch(np.random.default_rng(5), 1000),
                                      point.sample_batch(np.random.default_rng(5), 1000))

    def test_large_n_distribution(self):
        rng = np.random.default_rng(1)
        w = rng.random(3000)
        t = SumTree(w)
        idx = t.sample_batch(rng, 60_000)
        counts = np.bincount(idx, minlength=3000)
        assert chi_square_pvalue(counts, w / w.sum()) > 0.01

    def test_large_n_respects_zero_weights(self):
        rng = np.random.default_rng(2)
        w = np.array([1.0, 0.0, 0.0, 1.0] * 1024)  # 4096 leaves
        t = SumTree(w)
        idx = t.sample_batch(rng, 20_000)
        assert np.all(idx % 4 != 1) and np.all(idx % 4 != 2)

    def test_single_leaf(self):
        t = SumTree(np.array([2.0]))
        assert t.sample_batch(np.random.default_rng(0), 5).tolist() == [0] * 5


class TestInit:
    def test_preconditions_named(self):
        prob = QuadraticMaxProblem(np.zeros((3, 2)))  # L_g = 1
        with pytest.raises(PreconditionViolated, match="L_g r"):
            SoftmaxGradientEstimator(prob, np.zeros(2), 0.001, r=1.0, delta=0.1,
                                     rng=sampler_stream(0))
        with pytest.raises(InvalidParams, match="R/2"):
            SoftmaxGradientEstimator(prob, np.zeros(2), 0.05, r=0.2, delta=0.1,
                                     rng=sampler_stream(0),
                                     mvm_factory=dyadic(0, 0.05, 0.001, prob.lip))

    def test_linear_any_radius(self):
        rng = np.random.default_rng(0)
        prob = linear_problem(rng, 4, 3)
        make_estimator(prob, 3, r=5e5)  # L_g = 0 puts no cap on r

    def test_evaluation_counter_at_init(self):
        rng = np.random.default_rng(1)
        centers = rng.standard_normal((20, 5)) * 0.3
        prob = QuadraticMaxProblem(centers)
        r = 0.05
        eps_prime = 2.0 * 0.5 * prob.smooth * r * r
        est = SoftmaxGradientEstimator(prob, np.zeros(5), eps_prime, r, delta=0.1,
                                       rng=sampler_stream(0))
        assert est.counters.evaluations == 2 * 20

    def test_fresh_estimator_state_at_anchor(self):
        rng = np.random.default_rng(31)
        prob = QuadraticMaxProblem(rng.standard_normal((40, 4)) * 0.3)
        x0 = rng.standard_normal(4) * 0.1
        eps_prime = 0.05
        est = SoftmaxGradientEstimator(prob, x0, eps_prime, r=0.1, delta=0.05,
                                       rng=sampler_stream(4))
        assert not est.y.any()
        np.testing.assert_array_equal(est.f0, prob.values_all(x0))
        logits = est.f0 / eps_prime
        np.testing.assert_array_equal(est.tree.weights, np.exp(logits - logits.max()))

    @pytest.mark.parametrize("front_end", ["game", "meb"])
    def test_each_round_draws_from_its_keyed_stream(self, monkeypatch, front_end):
        """``accelerate`` hands round t's estimator factory the Philox
        stream keyed by the solve seed's entropy and its spawn key extended
        by (t, 202): an int seed for a game, a spawned child SeedSequence
        for each MEB sub-solve."""
        solves = []
        accelerate = apps.accelerate

        def recording_accelerate(problem, setup, factory, *, seed, **kw):
            firsts = []
            solves.append((seed, firsts))

            def recording_factory(anchor, rng):
                firsts.append(copy.deepcopy(rng).random())
                return factory(anchor, rng)

            return accelerate(problem, setup, recording_factory, seed=seed, **kw)

        monkeypatch.setattr(apps, "accelerate", recording_accelerate)
        rng = np.random.default_rng(34)
        if front_end == "game":
            a = 0.7 * rng.uniform(-1.0, 1.0, size=(6, 15))
            a[0] = -0.3
            apps.solve_matrix_game(MatrixGameInstance(a, "l1l1"), 0.2, seed=5)
            assert [seed for seed, _ in solves] == [5]
        else:
            apps.solve_meb(MebInstance(rng.standard_normal((12, 2))), 0.1, seed=5)
            assert all(seed.spawn_key for seed, _ in solves)
        for seed, firsts in solves:
            if not isinstance(seed, np.random.SeedSequence):
                seed = np.random.SeedSequence(seed)
            assert len(firsts) > 1
            for t, first in enumerate(firsts, start=1):
                key = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (t, 202))
                assert first == np.random.Generator(np.random.Philox(key)).random()

    def test_dyadic_factory_keys_its_sketches(self, monkeypatch):
        """The selftests' dyadic factory builds its one maintainer from the
        seed with the spawn key (101, 0), as its pinned seeds expect."""
        seeds = []
        init = DyadicMaintainer.__init__

        def logged_init(self, *args):
            seeds.append(args[-1])
            init(self, *args)

        monkeypatch.setattr(DyadicMaintainer, "__init__", logged_init)
        prob = linear_problem(np.random.default_rng(32), 8, 3)
        make_estimator(prob, 3, mvm_factory=dyadic(91, 0.05, 0.2))
        assert [(s.entropy, s.spawn_key) for s in seeds] == [(91, (101, 0))]

    def test_single_function_degenerate(self):
        prob = linear_problem(np.random.default_rng(2), 1, 3)
        est = make_estimator(prob, 3)
        for _ in range(5):
            i, grad, _ = est.estimate(np.zeros(3))
            assert i == 0
            np.testing.assert_array_equal(grad, prob.rows[0])


class TestEstimate:
    def test_anchor_acceptance_probability(self):
        # at the anchor with exact maintenance the acceptance exponent is
        # minus the envelope, which is 1/2 for a linear family
        prob = linear_problem(np.random.default_rng(3), 1, 4)
        est = make_estimator(prob, 4)
        _, _, stats = est.estimate(np.zeros(4))
        assert stats.accept_prob == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_equal_functions_uniform_chisquare(self):
        rows = np.tile(np.array([0.3, -0.2, 0.1]), (20, 1))
        prob = LinearMaxProblem(rows)
        est = make_estimator(prob, 3, seed=5)
        x_t = np.array([0.05, 0.0, 0.05])
        counts = np.zeros(20)
        i, _, _ = est.estimate(x_t)
        counts[i] += 1
        # equal rows give bit-equal proposal weights and acceptance
        # exponents, so the accepted law is exactly uniform
        expo = (prob.values_all(x_t) - est.f0 - est.y) / est.eps_prime - est.envelope
        assert np.all(est.tree.weights == est.tree.weights[0])
        assert np.all(expo == expo[0])
        assert expo[0] == pytest.approx(-0.5, abs=1e-12)
        draws = 200_000
        for _ in range(draws - 1):
            i, _, _ = est.estimate(x_t)
            counts[i] += 1
        assert chi_square_pvalue(counts, np.full(20, 0.05)) > 0.01

    def test_index_distribution_matches_softmax(self):
        rng = np.random.default_rng(6)
        prob = linear_problem(rng, 10, 5)
        est = make_estimator(prob, 5, seed=7)
        x_t = np.zeros(5)
        x_t[0] = 0.1
        counts = np.zeros(10)
        draws = 30_000
        for _ in range(draws):
            i, _, _ = est.estimate(x_t)
            counts[i] += 1
        target = refcheck.exact_softmax_dist(prob, x_t, est.eps_prime)
        assert refcheck.tv_distance(counts / draws, target) <= 0.05

    def test_index_distribution_matches_softmax_large_n(self):
        # wider than the other law checks: proposals search 3000 buckets
        n = 3000
        prob = linear_problem(np.random.default_rng(9), n, 4)
        est = make_estimator(prob, 4, seed=10)
        x_t = np.array([0.1, -0.05, 0.0, 0.05])
        counts = np.zeros(n)
        for _ in range(30_000):
            i, _, _ = est.estimate(x_t)
            counts[i] += 1
        target = refcheck.exact_softmax_dist(prob, x_t, est.eps_prime)
        assert chi_square_pvalue(counts, target) > 0.01

    def test_unbiased_for_smoothed_max_gradient(self):
        rng = np.random.default_rng(8)
        prob = linear_problem(rng, 6, 4)
        est = make_estimator(prob, 4, seed=9)
        x_t = np.full(4, 0.04)
        draws = 30_000
        acc = np.zeros(4)
        sq = np.zeros(4)
        for _ in range(draws):
            _, g, _ = est.estimate(x_t)
            acc += g
            sq += g * g
        mean = acc / draws
        se = np.sqrt((sq / draws - mean**2) / draws)
        p = refcheck.exact_softmax_dist(prob, x_t, est.eps_prime)
        target = p @ prob.rows
        np.testing.assert_array_less(np.abs(mean - target), 5 * se + 1e-12)

    def test_gradient_norm_bounded(self):
        rng = np.random.default_rng(10)
        prob = linear_problem(rng, 8, 4)
        est = make_estimator(prob, 4, seed=11)
        for _ in range(200):
            _, g, _ = est.estimate(np.full(4, 0.02))
            assert np.linalg.norm(g) <= prob.lip + 1e-12

    def test_evaluation_budget_per_call(self):
        rng = np.random.default_rng(12)
        prob = linear_problem(rng, 15, 6)
        est = make_estimator(prob, 6, seed=13)
        calls = 2000
        for _ in range(calls):
            est.estimate(np.full(6, 0.02))
        per_call = (est.counters.func_evals - 15) / calls
        assert per_call <= math.e
        # exact maintenance keeps every exponent in [-2 s, 0] = [-1, 0]
        rate = est.counters.accepted / est.counters.draws
        assert rate >= math.exp(-1.0)

    def test_out_of_ball_query_rejected(self):
        prob = linear_problem(np.random.default_rng(14), 4, 3)
        est = make_estimator(prob, 3, r=0.1)
        with pytest.raises(PreconditionViolated):
            est.estimate(np.array([1.0, 0.0, 0.0]))

    def test_rejection_stall_surfaces(self):
        prob = linear_problem(np.random.default_rng(15), 6, 3)
        est = make_estimator(prob, 3, seed=16)
        est.max_consecutive_rejections = 50
        # poison the anchor values so every acceptance exponent is huge
        # and negative, imitating a failed good event
        est.f0 = est.f0 + 50.0 * est.eps_prime
        with pytest.raises(RejectionStall):
            est.estimate(np.zeros(3))
        # every evaluated proposal counts: 7 batches of 8 pass the threshold
        assert est.counters.func_evals == prob.n + 56
        assert est.counters.draws == 0
        assert est.counters.accepted == 0

    def test_movement_budget_overrun_propagates(self):
        # a sketch maintainer is never rebuilt: the query that would move
        # it past its budget raises, leaving the maintainer and y as they
        # were, and LI-MD reports the failed gradient callback
        rng = np.random.default_rng(17)
        prob = linear_problem(rng, 5, 4)
        eps_prime = 0.05
        est = SoftmaxGradientEstimator(
            prob, np.zeros(4), eps_prime, r=1.0, delta=0.05, rng=sampler_stream(18), p=2,
            mvm_factory=dyadic(18, eps_prime, 2.0 * eps_prime / prob.lip * 1.05),
        )
        # out to b and back: 0.2 of movement against a budget of 0.117
        b = np.full(4, 0.05)
        est.estimate(b)
        mvm, y = est.mvm, est.y
        x, moved, counts, refs = mvm.x.copy(), mvm.moved, mvm.query_counts.copy(), list(mvm.ref_x)
        with pytest.raises(BudgetExceeded):
            est.estimate(np.zeros(4))
        assert est.mvm is mvm and est.y is y
        np.testing.assert_array_equal(mvm.x, x)
        assert mvm.moved == moved
        np.testing.assert_array_equal(mvm.query_counts, counts)
        assert all(now is then for now, then in zip(mvm.ref_x, refs))
        with pytest.raises(GradientCallbackFailed, match="budget"):
            li_md(lambda x: est.estimate(x)[1], ball_setup(4), np.zeros(4), 1.0, 1.0, 0.05, 10)

    def test_y_tracks_maintained_product(self):
        # y is rescaled only when the maintainer refreshes its product, so
        # it must equal lip times that product after every query: on steps
        # that refresh it and on steps that leave it alone
        rng = np.random.default_rng(20)
        prob = QuadraticMaxProblem(rng.standard_normal((10, 3)) * 0.4)
        assert prob.lip != 1.0
        eps_prime = 0.05
        # the budget covers the whole walk: 20 steps of 0.03, 40 of 0.002
        walk_length = 20 * 0.03 + 40 * 0.002
        est = SoftmaxGradientEstimator(
            prob, np.zeros(3), eps_prime, r=0.3, delta=0.05, rng=sampler_stream(21), p=2,
            mvm_factory=dyadic(21, eps_prime, 1.05 * walk_length, prob.lip),
        )
        refreshed = set()
        query = est.mvm.query

        def recording(u):
            y, flag = query(u)
            refreshed.add(flag)
            return y, flag

        est.mvm.query = recording
        x_t = est.x0.copy()
        for step in range(60):
            move = rng.standard_normal(3)
            x_t = x_t + move * ((0.03 if step % 3 == 0 else 0.002) / pnorm(move, 2))
            dist = pnorm(x_t - est.x0, 2)
            if dist > est.r:
                x_t = est.x0 + (x_t - est.x0) * (est.r / dist)
            est.estimate(x_t)
            assert np.array_equal(est.y, est.lip * est.mvm.ref_y[1])
            # the sampler's weights follow y, bit for bit
            logits = (est.f0 + est.y) / est.eps_prime
            assert np.array_equal(est.tree.weights, np.exp(logits - logits.max()))
        assert refreshed == {True, False}

    def test_exact_maintainer_walks_without_a_budget(self):
        # the default maintainer has no movement budget: a walk longer than
        # 8 r, the budget each solver round once had, never rebuilds, and y
        # stays within eps'/2 of lip A (x - x0) = grad f(x0) (x - x0)
        rng = np.random.default_rng(40)
        prob = QuadraticMaxProblem(rng.standard_normal((30, 3)) * 0.4)
        x0 = rng.standard_normal(3) * 0.1
        eps_prime, r = 0.05, 0.3
        est = SoftmaxGradientEstimator(prob, x0, eps_prime, r, delta=0.05, rng=sampler_stream(41))
        grads = prob.grad_matrix(x0)
        walked = 0.0
        x_t = x0.copy()
        while walked <= 10.0 * r:
            move = rng.standard_normal(3)
            x_next = x_t + move * (0.05 * rng.random() / pnorm(move, 2))
            dist = pnorm(x_next - x0, 2)
            if dist > r:
                x_next = x0 + (x_next - x0) * (r / dist)
            walked += pnorm(x_next - x_t, 2)
            x_t = x_next
            est.estimate(x_t)
            assert np.max(np.abs(est.y - grads @ (x_t - x0))) <= 0.5 * eps_prime + 1e-12
            assert np.array_equal(est.y, est.lip * est.mvm.y)
        assert est.counters.mvm_rebuilds == 0

    def test_largest_weight_is_one_after_every_refresh(self):
        # every refresh rebuilds all weights offset by the max logit, also
        # when the max logit has moved by far less than any fixed drift
        rng = np.random.default_rng(42)
        prob = QuadraticMaxProblem(rng.standard_normal((50, 3)) * 0.4)
        eps_prime, r = 0.01, 0.1
        est = SoftmaxGradientEstimator(prob, np.zeros(3), eps_prime, r, delta=0.05,
                                       rng=sampler_stream(43))
        tops = set()
        x_t = est.x0.copy()
        for _ in range(100):
            move = rng.standard_normal(3)
            x_t = x_t + move * (0.02 / pnorm(move, 2))
            dist = pnorm(x_t - est.x0, 2)
            if dist > r:
                x_t = est.x0 + (x_t - est.x0) * (r / dist)
            y_before = est.y
            est.estimate(x_t)
            if est.y is not y_before:
                tops.add(float(((est.f0 + est.y) / est.eps_prime).max()))
                assert est.tree.weights.max() == 1.0
        assert len(tops) > 10


class TestEnvelope:
    """The envelope bounds every acceptance exponent over the exact
    maintainer, so no proposal's acceptance probability is clamped at 1."""

    @staticmethod
    def walk(est, rng, steps, step_size):
        # random steps of up to step_size, each projected radially onto the
        # sphere of radius r, where the envelope's curvature term is tight
        worst = -np.inf
        x_t = est.x0.copy()
        for _ in range(steps):
            move = rng.standard_normal(est.x0.size)
            x_t = x_t + move * (step_size * rng.random() / pnorm(move, est.p))
            x_t = est.x0 + (x_t - est.x0) * (est.r / pnorm(x_t - est.x0, est.p))
            est.estimate(x_t)
            expo = (est.problem.values_all(x_t) - est.f0 - est.y) / est.eps_prime
            worst = max(worst, float(np.max(expo - est.envelope)))
        return worst

    @pytest.mark.parametrize("p", [2, 1])
    def test_linear_families(self, p):
        rng = np.random.default_rng(30 + p)
        if p == 2:
            rows = rng.standard_normal((64, 3))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        else:
            # every sign pattern: some row meets each move with <a_i, v> = ||v||_1
            rows = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                            dtype=float)
        prob = LinearMaxProblem(rows)
        eps_prime = 0.05
        est = SoftmaxGradientEstimator(
            prob, np.zeros(3), eps_prime, r=0.3, delta=0.05, rng=sampler_stream(p), p=p,
        )
        assert est.envelope == 0.5
        assert self.walk(est, rng, 300, 0.6 * eps_prime) <= 1e-12

    def test_quadratic_family(self):
        rng = np.random.default_rng(33)
        prob = QuadraticMaxProblem(rng.standard_normal((40, 3)) * 0.3)
        eps_prime, r = 0.05, 0.3
        # an anchor opposite the farthest center gives one anchor gradient
        # close to L_f, so the maintainer's error term is close to tight
        far = prob.centers[np.argmax(np.linalg.norm(prob.centers, axis=1))]
        x0 = -0.9 * far / np.linalg.norm(far)
        est = SoftmaxGradientEstimator(prob, x0, eps_prime, r, delta=0.05,
                                       rng=sampler_stream(3), p=2)
        assert est.envelope == pytest.approx(0.5 * prob.smooth * r * r / eps_prime + 0.5,
                                             rel=1e-15)
        assert self.walk(est, rng, 300, 0.05) <= 1e-12


class TestObliviousness:
    def test_query_log_identical_across_maintainer_seeds(self, monkeypatch):
        # fixed sampler stream, two maintainer seeds, deterministic query
        # policy: the maintainer must see the same query sequence
        query = DyadicMaintainer.query
        log = []

        def logged_query(self, x):
            log.append(np.array(x, dtype=float))
            return query(self, x)

        monkeypatch.setattr(DyadicMaintainer, "query", logged_query)
        rng = np.random.default_rng(21)
        rows = rng.standard_normal((12, 6))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        prob = LinearMaxProblem(rows * 0.9)
        eps_prime = 0.1
        walk = [np.full(6, 0.01) * k for k in range(8)]

        logs = []
        for mvm_variant in (0, 1):
            sketch_seed = np.random.SeedSequence(77, spawn_key=(mvm_variant, 101, 0))

            def mvm_factory(a, sketch_seed=sketch_seed):
                return DyadicMaintainer(a, np.zeros(6), 4.0 * eps_prime, eps_prime, 0.025, 2,
                                        sketch_seed)

            # the same sampler stream for both maintainer seeds
            est = SoftmaxGradientEstimator(
                prob, np.zeros(6), eps_prime, r=0.3, delta=0.05,
                rng=np.random.Generator(np.random.Philox(12345)), p=2, mvm_factory=mvm_factory,
            )
            log.clear()
            for x_t in walk:
                est.estimate(x_t)
            logs.append(list(log))
        assert len(logs[0]) == len(logs[1])
        for qa, qb in zip(*logs):
            np.testing.assert_array_equal(qa, qb)


class TestAnchorGap:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        d=st.integers(1, 3),
        anchor_norm=st.floats(0.0, 1.0),
        eps_prime=st.floats(1e-3, 1.0),
        level=st.integers(0, 9),
    )
    # a fine level where the unconstrained line-search step lowers the
    # exact bound, so the polish must refuse it to stay below the softmax gap
    @example(seed=3714618804, n=7, d=2, anchor_norm=0.4844288007906945,
             eps_prime=0.07195409189828712, level=9)
    def test_quadratic_bound_never_below_the_true_error(
        self, seed, n, d, anchor_norm, eps_prime, level
    ):
        """For the MEB family the strong-convexity bound is a weak-duality
        gap: it never falls below f_max(x^) - min f_max, where min f_max
        over the unit ball is (1/2) r^2 of Welzl's ball.  ``level`` > 0
        solves a halving level's problem instead: the points seen from a
        center within r_k of Welzl's and scaled by 1/r_k, whose minimum
        over the unit ball is (1/2) (r / r_k)^2."""
        rng = np.random.default_rng(seed)
        pts = MebInstance(rng.standard_normal((n, d))).points
        w_center, w_radius = refcheck.welzl_meb(pts)
        if level:
            r_k = 2.0 ** (-(level - 1) / 2.0)
            u = rng.standard_normal(d)
            u *= rng.random() / max(float(np.linalg.norm(u)), 1e-12)
            pts = (pts - (w_center + r_k * u)) / r_k
            w_radius /= r_k
        prob = QuadraticMaxProblem(pts)
        x0 = rng.standard_normal(d)
        x0 *= anchor_norm / max(float(np.linalg.norm(x0)), 1e-12)
        r = math.sqrt(eps_prime)
        est = SoftmaxGradientEstimator(prob, x0, eps_prime, r, delta=0.05,
                                       rng=sampler_stream(seed))
        gap, _ = est.anchor_gap(ball_setup(d))
        assert gap >= prob.f_max(x0) - 0.5 * w_radius**2 - 1e-9
        # the Frank-Wolfe step is kept only if it raises the bound
        assert gap <= softmax_gap(prob, x0, eps_prime, 1.0) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        d=st.integers(1, 5),
        spread=st.floats(0.1, 3.0),
        offsets=st.booleans(),
        support=st.integers(1, 30),
    )
    def test_carried_dual_bound_never_below_the_true_error(
        self, seed, n, d, spread, offsets, support
    ):
        """Any simplex weights give a valid bound at any anchor, by strong
        convexity: random weights on ``support`` points, carried through
        three random anchors of a random quadratic family, each give a gap
        of at least the anchor's true error, taken against f_max at a
        near-minimizer over the ball, which is no less than min f_max; and
        every returned dual lies in the simplex."""
        rng = np.random.default_rng(seed)
        prob = QuadraticMaxProblem(spread * rng.standard_normal((n, d)),
                                   rng.uniform(-0.5, 0.5, n) if offsets else None)
        f_star_upper = references.ball_min_upper(prob)
        dual = np.zeros(n)
        points = rng.choice(n, size=min(support, n), replace=False)
        dual[points] = rng.dirichlet(np.ones(points.size))
        for _ in range(3):
            x0 = rng.standard_normal(d)
            x0 *= rng.random() / max(float(np.linalg.norm(x0)), 1e-12)
            est = SoftmaxGradientEstimator(prob, x0, 0.1, math.sqrt(0.1), delta=0.05,
                                           rng=sampler_stream(seed))
            gap, dual = est.anchor_gap(ball_setup(d), dual)
            assert gap >= prob.f_max(x0) - f_star_upper - 1e-12
            assert dual.min() >= 0.0
            assert abs(float(dual.sum()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("setup", [ball_setup(4), simplex_setup(4, 0.0)],
                             ids=["ball", "simplex"])
    def test_linear_gap_is_the_softmax_dual_bit_for_bit(self, setup):
        """Games keep the raw softmax dual: no Frank-Wolfe step runs at
        mu = 0, a passed dual is ignored, and none is returned."""
        rng = np.random.default_rng(41)
        for seed in range(20):
            prob = linear_problem(rng, 30, 4)
            x0 = setup.center() + 0.1 * rng.standard_normal(4)
            est = SoftmaxGradientEstimator(prob, x0, 0.02, 0.1, delta=0.05,
                                           rng=sampler_stream(seed))
            y = est.tree.weights / est.tree.total
            g = y @ prob.rows
            lower = float(y @ est.f0) - float(g @ x0) + model_min(setup, g)
            expected = (float(est.f0.max()) - lower, None)
            assert est.anchor_gap(setup) == expected
            dual = np.random.default_rng(seed).dirichlet(np.ones(30))
            assert est.anchor_gap(setup, dual) == expected


def softmax_gap(prob, x0, eps_prime, mu):
    """The anchor bound on the ball, for a family of modulus mu > 0, with
    the softmax weights softmax(f(x0) / eps') as its dual, computed from
    the family directly."""
    f0 = prob.values_all(x0)
    y = np.exp((f0 - f0.max()) / eps_prime)
    y /= y.sum()
    g = y @ prob.grad_matrix(x0)
    value, _ = ball_model_min(float(g @ x0), float(g @ g), float(x0 @ x0), mu)
    return float(f0.max()) - (float(y @ f0) - float(g @ x0) + value)

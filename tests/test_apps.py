import math

import numpy as np
import pytest
import references
from scipy.optimize import linprog
from stat_checks import chi_square_pvalue

from maxmin import apps, estimator, io, refcheck
from maxmin.accelerator import auto_gamma
from maxmin.apps import (
    MEB_MAX_LEVELS,
    MEB_REPEATS,
    POLISH_HALVINGS,
    dual_from_samples,
    meb_level_count,
    polish_dual,
    smoothing_level,
    solve_matrix_game,
    solve_meb,
    solve_instance,
    solve_smooth_max,
    subgradient_baseline,
)
from maxmin.cli import _gen_payload
from maxmin.errors import InvalidParams, NonFinite, NormBoundViolated
from maxmin.geometry import Kind, ball_setup, simplex_setup
from maxmin.problems import (
    LinearMaxProblem,
    MatrixGameInstance,
    MebInstance,
    QuadraticMaxProblem,
)
from maxmin.sumtree import SumTree


class TestInstances:
    @pytest.mark.filterwarnings("error")
    def test_game_norm_validation(self):
        with pytest.raises(NormBoundViolated):
            MatrixGameInstance(np.full((2, 2), 0.9), "l2l1")
        # the squares overflow float64: the norm is inf, which fails the
        # bound, and no overflow warning escapes
        with pytest.raises(NormBoundViolated):
            MatrixGameInstance(np.full((2, 1), 1e200), "l2l1")
        MatrixGameInstance(np.full((2, 2), 0.9), "l1l1")  # max entry fine

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        a = np.full((2, 2), 0.5)
        a[1, 0] = bad
        for build in (
            lambda: MatrixGameInstance(a, "l2l1"),
            lambda: MatrixGameInstance(a, "l1l1"),
            lambda: MebInstance(a),
            lambda: QuadraticMaxProblem(a),
            lambda: QuadraticMaxProblem(np.zeros((2, 2)), a[:, 0]),
        ):
            with pytest.raises(NonFinite):
                build()

    def test_meb_normalization(self):
        inst = MebInstance(np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_array_equal(inst.points[0], [0.0, 0.0])
        assert np.max(np.linalg.norm(inst.points, axis=1)) == pytest.approx(1.0)
        c, r = inst.to_input_coords(np.array([0.5, 0.0]), 0.5)
        np.testing.assert_allclose(c, [2.0, 1.0])
        assert r == pytest.approx(1.0)

    def test_problem_values_and_grads(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((4, 3))
        p = LinearMaxProblem(rows)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(p.values_all(x), rows @ x)
        assert p.value(2, x) == pytest.approx(float(rows[2] @ x))
        q = QuadraticMaxProblem(rows, np.arange(4.0))
        np.testing.assert_allclose(q.grad(1, x), x - rows[1])
        assert q.f_max(x) == pytest.approx(np.max(q.values_all(x)))

    def test_smoothed_max_bounds(self):
        rng = np.random.default_rng(1)
        p = LinearMaxProblem(rng.standard_normal((6, 4)))
        x = rng.standard_normal(4)
        eps_prime = 0.05
        smax = references.f_smax(p, x, eps_prime)
        assert p.f_max(x) <= smax <= p.f_max(x) + eps_prime * math.log(6)


class TestSolveSmoothMax:
    def test_single_quadratic_recovers_center(self):
        b = np.array([0.3, -0.2, 0.1])
        rep = solve_smooth_max(QuadraticMaxProblem(b[None, :]), 0.05, seed=0)
        np.testing.assert_allclose(rep.x, b, atol=0.05)

    def test_identical_functions_match_single(self):
        # identical f_i: same minimizer as n = 1 up to the smoothing offset
        b = np.array([0.25, 0.1])
        single = solve_smooth_max(QuadraticMaxProblem(b[None, :]), 0.1, seed=1)
        many = solve_smooth_max(QuadraticMaxProblem(np.tile(b, (6, 1))), 0.1, seed=1)
        assert abs(single.f_max_value - many.f_max_value) <= 0.1
        np.testing.assert_allclose(many.x, b, atol=0.1)

    def test_output_feasible_on_truncated_simplex(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((5, 4))
        rows /= np.abs(rows).max()
        rep = solve_smooth_max(
            LinearMaxProblem(rows), 0.2, seed=0, kind=Kind.TRUNCATED_SIMPLEX
        )
        nu = rep.extras["nu"]
        assert nu == pytest.approx(0.2 / (4 * 4))
        assert np.all(rep.x >= nu - 1e-12)
        assert rep.x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_reduction_soundness_pointwise(self):
        rng = np.random.default_rng(3)
        p = LinearMaxProblem(rng.standard_normal((8, 3)) * 0.4)
        eps = 0.1
        eps_prime = smoothing_level(eps, 8)
        for _ in range(50):
            x = rng.standard_normal(3)
            assert abs(references.f_smax(p, x, eps_prime) - p.f_max(x)) <= eps / 2 + 1e-12

    def test_one_seed_sequence_per_round(self, monkeypatch):
        """Each round hashes only its sampler's SeedSequence, which the
        outer loop keys, and exact mode builds no maintainer stream."""
        keys = []

        class CountingSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                keys.append(kwargs.get("spawn_key"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        rng = np.random.default_rng(3)
        prob = QuadraticMaxProblem(rng.standard_normal((6, 3)) * 0.3)
        rep = solve_smooth_max(prob, 0.5, seed=5)
        assert len(keys) == rep.outer_iterations > 1
        assert keys[0] == (1, 202) and keys[-1] == (rep.outer_iterations, 202)

    def test_eps_validation(self):
        with pytest.raises(InvalidParams):
            solve_smooth_max(QuadraticMaxProblem(np.zeros((1, 2))), -0.1)

    def test_auto_gamma_in_range(self):
        g = auto_gamma(4.0, 6e4, 1.0, 1.0, 1.0, 0.45)
        assert 1e-10 <= g < 0.5


def planted_l1l1(mu, d, n, seed):
    """A simplex game whose first row pays -mu against every column, so
    v* <= -mu sits at a vertex, far from the uniform start."""
    a = (1.0 - mu) * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(d, n))
    a[0] = -mu
    return MatrixGameInstance(a, "l1l1")


def game_value(inst):
    """v* by linear programming: min t subject to A^T x <= t over the
    simplex; for a ball game, 0 once an LP finds the origin in the hull
    of the columns."""
    a = inst.matrix
    d, n = a.shape
    if inst.is_ball:
        res = linprog(np.zeros(n), A_eq=np.vstack([a, np.ones((1, n))]),
                      b_eq=np.append(np.zeros(d), 1.0), bounds=(0.0, None), method="highs")
        assert res.status == 0, "origin outside the columns' hull"
        return 0.0
    res = linprog(np.append(np.zeros(d), 1.0), A_ub=np.hstack([a.T, -np.ones((n, 1))]),
                  b_ub=np.zeros(n), A_eq=np.append(np.ones(d), 0.0)[None, :], b_eq=[1.0],
                  bounds=[(0.0, None)] * d + [(None, None)], method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


class TestMatrixGames:
    def test_zero_matrix_gap_zero(self):
        inst = MatrixGameInstance(np.zeros((3, 4)), "l2l1")
        x, rep = solve_matrix_game(inst, 0.1, seed=0)
        assert rep.extras["gap"] == pytest.approx(0.0, abs=1e-9)

    def test_eps_validation(self):
        inst = MatrixGameInstance(np.zeros((2, 2)), "l2l1")
        with pytest.raises(InvalidParams):
            solve_matrix_game(inst, 1.5)

    def test_planted_game_within_eps_of_its_value(self):
        # the uniform start is 0.47 above v* = -0.3, and the worst-case
        # schedule's last iterate stays 0.22 above it; the loop's stop
        # certificate returns an anchor within eps
        inst = planted_l1l1(0.3, 10, 20, [1, 7])
        x, rep = solve_matrix_game(inst, 0.2, seed=0)
        err = float(np.max(inst.matrix.T @ x)) - game_value(inst)
        assert rep.stop_reason == "certificate"
        assert err <= rep.extras["gap"] + 1e-9
        assert err <= 0.2

    @pytest.mark.parametrize("game", ["l2l1", "l1l1", "l1l1-planted"])
    def test_in_loop_certificate_never_below_true_error(self, game, monkeypatch):
        rng = np.random.default_rng(43)
        if game == "l2l1":
            a = rng.standard_normal((5, 30))
            inst = MatrixGameInstance(a / np.linalg.norm(a, axis=0), "l2l1")
        elif game == "l1l1":
            inst = MatrixGameInstance(rng.uniform(-1.0, 1.0, size=(6, 15)), "l1l1")
        else:
            inst = planted_l1l1(0.3, 6, 15, [2, 7])
        a, v_star = inst.matrix, game_value(inst)
        seen = []
        anchor_gap = estimator.SoftmaxGradientEstimator.anchor_gap

        def recording(est, setup, dual=None):
            gap, dual = anchor_gap(est, setup, dual)
            seen.append((est.x0.copy(), gap, a @ (est.tree.weights / est.tree.total), setup.nu))
            return gap, dual

        monkeypatch.setattr(estimator.SoftmaxGradientEstimator, "anchor_gap", recording)
        kind = Kind.BALL if inst.is_ball else Kind.TRUNCATED_SIMPLEX
        # a zero level never stops the loop, so every anchor from round 2
        # on is checked
        solve_smooth_max(inst.problem(), 0.1, seed=0, kind=kind, stopping_scale=1.0 / 64.0,
                         certificate_eps=0.0)
        assert len(seen) > 20
        truncated_under = 0
        for x, gap, g, nu in seen:
            f_max = float(np.max(a.T @ x))
            assert gap >= f_max - v_star - 1e-9
            if not inst.is_ball:
                # the same bound with min <g, x> taken over the truncated
                # simplex {x >= nu}; for a linear family y.f0 = <g, x>
                truncated = f_max - (nu * g.sum() + (1.0 - nu * g.size) * g.min())
                truncated_under += truncated < f_max - v_star - 1e-6
        if game == "l1l1-planted":
            # v* sits at a vertex the truncated simplex excludes, so that
            # bound falls below the true error
            assert truncated_under > 0

    @pytest.mark.parametrize("game", ["l2l1", "l1l1", "l1l1-planted"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_posthoc_certificate_brackets_true_error(self, game, seed, monkeypatch):
        """The reported gap is a weak-duality bound from the softmax dual
        at x and its polish: never below the true error, never above the
        unpolished softmax dual's gap, and drawn without the sampler."""
        rng = np.random.default_rng([44, seed])
        if game == "l2l1":
            a = rng.standard_normal((5, 30))
            inst = MatrixGameInstance(a / np.linalg.norm(a, axis=0), "l2l1")
        elif game == "l1l1":
            inst = MatrixGameInstance(rng.uniform(-1.0, 1.0, size=(6, 15)), "l1l1")
        else:
            inst = planted_l1l1(0.3, 6, 15, [3, seed])

        def no_sampling(*args, **kwargs):
            raise AssertionError("the certificate drew samples")

        monkeypatch.setattr(apps, "dual_from_samples", no_sampling)
        eps = 0.1
        x, rep = solve_matrix_game(inst, eps, seed=seed)
        gap = rep.extras["gap"]
        assert "gap_sampled" not in rep.extras
        assert gap >= float(np.max(inst.matrix.T @ x)) - game_value(inst) - 1e-9
        softmax = refcheck.exact_softmax_dist(inst.problem(), x, smoothing_level(eps, inst.n))
        assert gap <= references.duality_gap(inst, x, softmax) + 1e-12

    def test_dual_sampler_matches_softmax(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((6, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        prob = LinearMaxProblem(rows)
        x = np.zeros(3)
        y = dual_from_samples(prob, x, 0.05, 4000, 1)
        target = refcheck.exact_softmax_dist(prob, x, 0.05)
        assert refcheck.tv_distance(y, target) <= 0.06

    def test_dual_sampler_chi_square_large_n(self):
        rng = np.random.default_rng(40)
        rows = rng.standard_normal((3000, 5))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        prob = LinearMaxProblem(rows)
        x = rng.standard_normal(5) * 0.2
        draws = 1 << 17  # a power of two, so y * draws recovers the counts exactly
        y = dual_from_samples(prob, x, 0.25, draws, np.random.SeedSequence([7, 0xD0A1]))
        target = refcheck.exact_softmax_dist(prob, x, 0.25)
        counts = y * draws
        assert np.array_equal(counts, np.round(counts))
        # pool the cells expected below 5 draws so the chi-square
        # approximation holds; the pooled cell keeps their total
        small = target * draws < 5.0
        assert small.sum() < 300
        pooled_counts = np.append(counts[~small], counts[small].sum())
        pooled_target = np.append(target[~small], target[small].sum())
        assert chi_square_pvalue(pooled_counts, pooled_target) > 0.01

    def test_dual_sampler_is_one_batch_without_an_estimator(self, monkeypatch):
        batches = []
        sample_batch = SumTree.sample_batch

        def logged_batch(self, rng, count):
            batches.append(count)
            return sample_batch(self, rng, count)

        def no_estimator(*args, **kwargs):
            raise AssertionError("dual_from_samples built an estimator")

        monkeypatch.setattr(SumTree, "sample_batch", logged_batch)
        monkeypatch.setattr(estimator.SoftmaxGradientEstimator, "__init__", no_estimator)
        rng = np.random.default_rng(41)
        prob = LinearMaxProblem(rng.standard_normal((50, 3)) * 0.3)
        y = dual_from_samples(prob, np.zeros(3), 0.05, 4096, 3)
        assert batches == [4096]
        assert y.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ["l2l1", "l1l1"])
    def test_polish_matches_the_two_product_loop(self, kind):
        """One product A y per try, with the gradient formed only at an
        accepted dual from that dual's bound, gives the bits of a loop
        that recomputes A y for each lower bound and again for each
        gradient."""
        # seeds at which a halved step is accepted before the loop ends
        rng = np.random.default_rng({"l2l1": 42, "l1l1": 44}[kind])
        a = rng.standard_normal((6, 20))
        a /= np.linalg.norm(a, axis=0).max() if kind == "l2l1" else np.abs(a).max()
        inst = MatrixGameInstance(a, kind)
        logits = rng.standard_normal(20)

        def lower(y):
            return references.best_response_value(a @ y, inst.is_ball)

        def gradient(y):
            ay = a @ y
            if inst.is_ball:
                return -(a.T @ ay) / max(float(np.linalg.norm(ay)), 1e-15)
            return a[int(np.argmin(ay))]

        log_y = logits - logits.max()
        best = np.exp(log_y) / np.exp(log_y).sum()
        best_val = lower(best)
        step, rejected, tries = 0.5, 0, 0
        accepted_steps = []
        while tries < 60:
            tries += 1
            # every try steps from the best dual seen so far
            trial = log_y + step * gradient(best)
            trial -= trial.max()
            y = np.exp(trial) / np.exp(trial).sum()
            if lower(y) > best_val:
                log_y, best, best_val = trial, y, lower(y)
                accepted_steps.append(step)
            else:
                # a try that does not raise the bound halves the step;
                # the loop ends at POLISH_HALVINGS of them
                rejected += 1
                if rejected == POLISH_HALVINGS:
                    break
                step *= 0.5
        assert rejected == POLISH_HALVINGS and tries < 60
        assert min(accepted_steps) == 0.25
        y, bound = polish_dual(inst, logits, steps=60)
        assert np.array_equal(y, best)
        # model_min's bound, bit for bit the reference's best response
        assert bound == best_val

    def test_polish_only_improves(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 7))
        a /= np.linalg.norm(a, axis=0).max()
        inst = MatrixGameInstance(a, "l2l1")
        y0 = np.full(7, 1.0 / 7.0)
        y, bound = polish_dual(inst, y0, steps=100)
        lb0 = references.best_response_value(a @ y0, True)
        lb1 = references.best_response_value(a @ y, True)
        assert bound == lb1
        assert lb1 >= lb0 - 1e-12
        assert y.min() >= 0 and y.sum() == pytest.approx(1.0)


def patience_polish(inst, y0, steps, patience=10):
    """The fixed-step polish the backtracking one replaced: steps of 0.5
    from a floored y0, each with two products, ending after ``patience``
    steps in a row that do not raise the best bound; returns that bound."""
    a = inst.matrix
    y = np.maximum(y0, 1e-12)
    y = y / y.sum()
    log_y = np.log(y)
    ay = a @ y
    best_val = references.best_response_value(ay, inst.is_ball)
    stalled = 0
    for _ in range(steps):
        if inst.is_ball:
            grad = -(a.T @ ay) / max(float(np.linalg.norm(ay)), 1e-15)
        else:
            grad = a[int(ay.argmin())]
        log_y = log_y + 0.5 * grad
        log_y -= log_y.max()
        y = np.exp(log_y)
        y /= y.sum()
        ay = a @ y
        val = references.best_response_value(ay, inst.is_ball)
        if val > best_val:
            best_val, stalled = val, 0
        else:
            stalled += 1
            if stalled == patience:
                break
    return best_val


def unit_column_game(d, n, seed):
    a = np.random.default_rng(seed).standard_normal((d, n))
    return MatrixGameInstance(a / np.linalg.norm(a, axis=0), "l2l1")


class TestShiftedGames:
    """An accuracy gate the start point cannot pass: on a shifted game the
    start x0 = 0 sits -v* > eps above the value, so the solve must move
    to end within eps.  The eval ceilings are the counts at seed 0
    (125,517 and 517,732) plus about 2%."""

    @pytest.mark.parametrize("n, max_evals", [(100, 128_000), (1000, 528_000)])
    def test_solve_moves_within_eps_of_the_value(self, n, max_evals):
        eps = 0.05
        inst = references.shifted_game(50, n)
        v_star = references.ball_game_value(inst)
        assert -v_star > eps
        x, rep = solve_matrix_game(inst, eps, seed=0)
        err = float((inst.matrix.T @ x).max()) - v_star
        assert err <= eps
        assert rep.extras["gap"] >= err - 1e-9
        assert rep.evaluations <= max_evals


class TestCertificatePolish:
    @pytest.mark.parametrize("game,eps", [("20x25", 0.1), ("wide", 0.5), ("planted", 0.2)])
    def test_no_looser_than_the_patience_loop_on_solver_duals(self, game, eps):
        """On the softmax dual at the solver's own final point the halving
        stop gives up nothing against ten idle steps.  Far-from-optimal
        starts are not posed: there the patience loop can go further."""
        if game == "20x25":
            inst = unit_column_game(20, 25, 20240501)
        elif game == "wide":
            inst = unit_column_game(20, 2000, [22, 1])
        else:
            inst = planted_l1l1(0.5, 50, 100, [22, 2])
        x, rep = solve_matrix_game(inst, eps, seed=3)
        softmax = refcheck.exact_softmax_dist(inst.problem(), x, smoothing_level(eps, inst.n))
        f_max = float(np.max(inst.matrix.T @ x))
        reference_gap = f_max - patience_polish(inst, softmax, apps.CERTIFICATE_POLISH_STEPS)
        assert rep.extras["gap"] <= reference_gap + 1e-12

    def test_certificate_cost(self, monkeypatch):
        """Wall-free cost guard on an n = 10^4, d = 20 ball game: the polish
        stops at its POLISH_HALVINGS-th rejected try, and the certificate
        makes one n x d product for the start, one gradient per accepted
        dual and one product per try."""
        inst = unit_column_game(20, 10_000, [22, 3])
        bounds = []
        model_min = apps.model_min

        def recording(*args):
            bounds.append(model_min(*args))
            return bounds[-1]

        products = []

        class CountedMatrix(np.ndarray):
            def __matmul__(self, other):
                products.append(self.shape)
                return np.asarray(self) @ other

        # the solver's own products go through inst.problem(), whose
        # rows are a plain array; only the certificate's are counted
        inst.matrix = inst.matrix.view(CountedMatrix)
        monkeypatch.setattr(apps, "model_min", recording)
        solve_matrix_game(inst, 0.5, seed=1)
        # bounds[0] is the start's; each later bound is one try's
        raised = [val > max(bounds[:k]) for k, val in enumerate(bounds) if k > 0]
        accepted = sum(raised)
        assert raised.count(False) == POLISH_HALVINGS and not raised[-1]
        assert len(raised) < apps.CERTIFICATE_POLISH_STEPS
        assert accepted >= 1
        assert all(10_000 in shape for shape in products)
        assert len(products) <= 2 + 2 * accepted + POLISH_HALVINGS


def criterion1_game0():
    a = np.random.default_rng(20240501).standard_normal((80, 100))
    return MatrixGameInstance(a / np.linalg.norm(a, axis=0), "l2l1")


class TestGoldenCounters:
    """Per-seed counters and results of one solve per front end, pinned so
    that a refactor claimed to keep reports bit-identical per seed is
    checked: (outer_iterations, func_evals, grad_evals, draws, accepted,
    total oracle queries), and the ``float.hex`` of ``f_max_value`` and of
    ``extras["gap"]`` (None where the report has no gap).  The quadratics
    case is the payload of ``maxmin gen --kind quadratics --n 10 --d 4
    --seed 0`` solved as ``maxmin solve`` does, which stops on its anchor
    certificate."""

    PINNED = {
        "wide": (1, 4001, 4001, 1, 1, 1),
        "planted": (129, 13206, 13133, 206, 133, 133),
        "meb": (181, 38868, 38181, 868, 181, 181),
        "criterion1-game0": (188, 29201, 25222, 10301, 6322, 6322),
        "quadratics": (66, 990, 736, 320, 66, 66),
    }
    RESULTS = {
        "wide": ("0x1.134dc110583d0p-7", "0x1.aa642e259c541p-7"),
        "planted": ("-0x1.33bf48d5437c5p-2", "0x1.98816e5579074p-3"),
        "meb": ("0x1.a6d93daf32922p-2", None),
        "criterion1-game0": ("-0x1.ad70281324fd4p-8", "0x1.c6d6e480cc7a9p-6"),
        "quadratics": ("0x1.7ec3c113d64ccp-2", "0x1.964cffa4fe780p-5"),
    }

    @pytest.mark.parametrize("case", list(PINNED))
    def test_counters_pinned_per_seed(self, case):
        if case == "wide":
            _, rep = solve_matrix_game(unit_column_game(20, 2000, [22, 1]), 0.5, seed=3)
        elif case == "planted":
            _, rep = solve_matrix_game(planted_l1l1(0.5, 50, 100, [22, 2]), 0.2, seed=3)
        elif case == "meb":
            inst = MebInstance(np.random.default_rng(78).standard_normal((200, 3)))
            _, _, rep = solve_meb(inst, 0.01, seed=0)
        elif case == "quadratics":
            inst = io.instance_from_payload(*_gen_payload("quadratics", 10, 4, None, 0))
            rep, _ = solve_instance(inst, 0.05, seed=0)
            assert rep.stop_reason == "certificate"
        else:
            _, rep = solve_matrix_game(criterion1_game0(), 0.05, seed=0)
        got = (rep.outer_iterations, rep.func_evals, rep.grad_evals, rep.draws, rep.accepted,
               sum(rec.oracle_queries for rec in rep.iterations))
        assert got == self.PINNED[case]
        gap = rep.extras.get("gap")
        assert (rep.f_max_value.hex(), gap if gap is None else gap.hex()) == self.RESULTS[case]


# (kind, setup) of each ``maxmin gen`` instance kind
GEN_KINDS = [("game", "l2l1"), ("game", "l1l1"), ("meb", None), ("quadratics", None)]


def gen_instance(kind, setup, n=40, d=5):
    return io.instance_from_payload(*_gen_payload(kind, n, d, setup, 0))


class TestGoldenControl:
    """``subgradient_control`` on each gen kind's 40 x 5 instance at eps
    0.1 (1000 steps), pinned as (``float.hex`` of ``f_max_value``,
    ``func_evals``, ``grad_evals``), so a change to how the control finds
    its family and domain is checked bit for bit."""

    PINNED = {
        "game-l2l1": ("0x1.cfff746ca4310p-10", 40000, 1000),
        "game-l1l1": ("0x1.23a637a43c015p-2", 40000, 1000),
        "meb": ("0x1.4883bb486e983p-2", 40000, 1000),
        "quadratics": ("0x1.5fdd3d8ce545bp-2", 40000, 1000),
    }

    @pytest.mark.parametrize("kind, setup", GEN_KINDS)
    def test_control_pinned_per_kind(self, kind, setup):
        rep = apps.subgradient_control(gen_instance(kind, setup), 0.1)
        got = (rep.f_max_value.hex(), rep.func_evals, rep.grad_evals)
        assert got == self.PINNED[kind if setup is None else f"{kind}-{setup}"]


@pytest.mark.parametrize("kind, setup", GEN_KINDS)
def test_solve_instance_extras_hold_no_array(kind, setup):
    # every loop report carries its point's n values in extras; no front
    # end may return them
    rep, _ = solve_instance(gen_instance(kind, setup), 0.05, seed=0)
    arrays = [key for key, val in rep.extras.items() if isinstance(val, np.ndarray)]
    assert arrays == []


def l2l1_game_5x30():
    a = np.random.default_rng(43).standard_normal((5, 30))
    return MatrixGameInstance(a / np.linalg.norm(a, axis=0), "l2l1")


class TestReturnedPointEvaluation:
    """The outer loop evaluates the point it returns, once, and hands the
    values on; the front ends evaluate it no more."""

    @pytest.mark.parametrize("domain, stop", [
        ("ball", "certificate"), ("ball", "threshold"),
        ("simplex", "certificate"), ("simplex", "threshold"),
        ("one-point", "certificate"),
    ])
    def test_report_carries_the_point_values(self, domain, stop):
        kind = Kind.BALL if domain == "ball" else Kind.TRUNCATED_SIMPLEX
        if domain == "ball":
            problem = l2l1_game_5x30().problem()
        elif domain == "simplex":
            problem = planted_l1l1(0.3, 6, 15, [3, 0]).problem()
        else:  # the simplex at d = 1, returned after no round
            problem = LinearMaxProblem(np.array([[0.5], [-0.25], [0.75]]))
        if stop == "certificate":
            rep = solve_smooth_max(problem, 0.1, seed=0, kind=kind, certificate_eps=0.1)
        else:
            rep = solve_smooth_max(problem, 0.1, seed=0, kind=kind, stopping_scale=1.0 / 64.0)
        assert rep.stop_reason == stop
        values = rep.extras["values"]
        assert values.tobytes() == problem.values_all(rep.x).tobytes()
        assert rep.f_max_value == float(values.max())

    @pytest.fixture
    def outside_calls(self, monkeypatch):
        """Counts ``values_all`` calls made outside a round estimator's
        construction, which evaluates each anchor."""
        depth, calls = [0], []
        init = estimator.SoftmaxGradientEstimator.__init__

        def counted_init(est, *args, **kwargs):
            depth[0] += 1
            try:
                init(est, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(estimator.SoftmaxGradientEstimator, "__init__", counted_init)
        for family in (LinearMaxProblem, QuadraticMaxProblem):
            def counted(problem, x, values_all=family.values_all):
                if depth[0] == 0:
                    calls.append(x)
                return values_all(problem, x)

            monkeypatch.setattr(family, "values_all", counted)
        return calls

    @pytest.mark.parametrize("game, expected", [("planted", 1), ("ball", 0)])
    def test_game_certificate_stop(self, outside_calls, game, expected):
        # a simplex anchor is moved by the projection, so the loop
        # evaluates its point; a ball anchor's values are reused
        inst = planted_l1l1(0.3, 6, 15, [3, 0]) if game == "planted" else l2l1_game_5x30()
        _, rep = solve_matrix_game(inst, 0.1, seed=0)
        assert rep.stop_reason == "certificate"
        assert len(outside_calls) == expected

    def test_game_threshold_stop(self, outside_calls, monkeypatch):
        real = apps.solve_smooth_max

        def threshold_only(*args, **kwargs):
            kwargs.update(certificate_eps=None, stopping_scale=1.0 / 64.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(apps, "solve_smooth_max", threshold_only)
        _, rep = solve_matrix_game(l2l1_game_5x30(), 0.1, seed=0)
        assert rep.stop_reason == "threshold"
        assert len(outside_calls) == 1

    def test_meb_one_evaluation_per_sub_solve(self, outside_calls):
        # each sub-solve's candidate center is evaluated under the exact
        # objective; the kept one gives the radius without another
        inst = MebInstance(np.random.default_rng(78).standard_normal((200, 3)))
        _, _, rep = solve_meb(inst, 0.01, seed=0)
        assert rep.stop_reason == "certificate"
        assert len(outside_calls) == rep.extras["sub_solves"]


class TestMeb:
    def test_levels_capped_at_float_resolution(self):
        assert meb_level_count(2.0**-51) == MEB_MAX_LEVELS
        inst = MebInstance(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(InvalidParams, match="eps"):
            solve_meb(inst, 2.0**-52, seed=0)

    def test_level_and_repeat_counts(self):
        assert meb_level_count(0.01) == math.ceil(math.log2(400))
        inst = MebInstance(np.array([[0.0, 0.0], [1.0, 0.0]]))
        _, _, rep = solve_meb(inst, 0.25, seed=0)
        assert rep.extras["levels"] == meb_level_count(0.25) == 4
        # MEB_REPEATS caps the sub-solves per level; a certified one ends
        # its level
        levels, certified = rep.extras["levels"], rep.extras["certified_levels"]
        assert 0 <= certified <= levels
        assert levels <= rep.extras["sub_solves"] <= levels * MEB_REPEATS
        # each uncertified level runs every repeat
        assert rep.extras["sub_solves"] >= certified + (levels - certified) * MEB_REPEATS
        assert (rep.stop_reason == "certificate") == (certified == levels)

    def test_certified_levels_within_eps_of_welzl(self):
        inst = MebInstance(np.random.default_rng(78).standard_normal((200, 3)))
        eps = 0.01
        _, r, rep = solve_meb(inst, eps, seed=0)
        _, wr = refcheck.welzl_meb(inst.points)
        assert rep.extras["certified_levels"] >= 1
        assert rep.extras["sub_solves"] < rep.extras["levels"] * MEB_REPEATS
        assert r / inst.scale <= (1.0 + eps) * wr

    def test_polished_certificate_ends_every_level(self):
        """The benchmark's meb pool, seed 1, instance 0 at its solve seed.
        The raw softmax centroid left two of its nine levels uncertified,
        each run to the weight cap twice; the Frank-Wolfe anchor dual,
        carried from check to check, certifies every level on its first
        sub-solve."""
        inst = MebInstance(np.random.default_rng([1, 0]).standard_normal((200, 3)))
        eps = 0.01
        _, r, rep = solve_meb(inst, eps, seed=1000)
        levels = rep.extras["levels"]
        assert rep.stop_reason == "certificate"
        assert rep.extras["certified_levels"] == levels
        assert rep.extras["sub_solves"] == levels
        _, wr = refcheck.welzl_meb(inst.points)
        assert r / inst.scale <= (1.0 + 0.5 * eps) * wr

    def test_two_points(self):
        inst = MebInstance(np.array([[0.0, 0.0], [1.0, 0.0]]))
        c, r, _ = solve_meb(inst, 0.05, seed=0)
        np.testing.assert_allclose(c, [0.5, 0.0], atol=0.02)
        assert r == pytest.approx(0.5, abs=0.02)

    def test_single_point(self):
        c, r, _ = solve_meb(MebInstance(np.zeros((1, 3))), 0.1, seed=0)
        np.testing.assert_array_equal(c, np.zeros(3))
        assert r == 0.0

    def test_unnormalized_coordinates_roundtrip(self):
        pts = np.array([[5.0, 5.0], [9.0, 5.0], [7.0, 8.0]])
        inst = MebInstance(pts)
        c, r, _ = solve_meb(inst, 0.02, seed=1)
        wc, wr = refcheck.welzl_meb(inst.points)
        wc_in, wr_in = inst.to_input_coords(wc, wr)
        assert r <= 1.02 * wr_in
        assert np.max(np.linalg.norm(pts - c, axis=1)) <= r + 1e-6

    def test_zero_level_meb_gap_holds_at_every_anchor(self, monkeypatch):
        """A MEB level checked at every anchor from round 2 on: the first
        check starts from the softmax weights, each later one gets the
        dual the check before returned, and every gap is at least the
        anchor's true error, f_max(x0) - (1/2) r^2 for Welzl's radius r
        (its center lies in the points' hull, inside the unit ball)."""
        pts = MebInstance(np.random.default_rng(7).standard_normal((60, 3))).points
        _, w_radius = refcheck.welzl_meb(pts)
        prob = QuadraticMaxProblem(pts)
        seen = []
        anchor_gap = estimator.SoftmaxGradientEstimator.anchor_gap

        def recording(est, setup, dual=None):
            gap, out = anchor_gap(est, setup, dual)
            seen.append((est.x0.copy(), gap, dual, out))
            return gap, out

        monkeypatch.setattr(estimator.SoftmaxGradientEstimator, "anchor_gap", recording)
        solve_smooth_max(prob, 0.01, seed=0, kind=Kind.BALL, stopping_scale=1.0 / 1024.0,
                         certificate_eps=0.0)
        assert len(seen) > 20
        assert seen[0][2] is None
        for (*_, returned), (_, _, passed, _) in zip(seen, seen[1:]):
            assert passed is returned
        for x, gap, _, out in seen:
            assert gap >= prob.f_max(x) - 0.5 * w_radius**2 - 1e-12
            assert out.min() >= 0.0
            assert abs(float(out.sum()) - 1.0) <= 1e-12


class TestCrossMethodAgreement:
    def test_random_quadratics_against_long_baseline(self):
        rng = np.random.default_rng(30)
        centers = rng.standard_normal((10, 4)) * 0.4
        offsets = rng.random(10) * 0.2
        prob = QuadraticMaxProblem(centers, offsets)
        eps = 0.05
        rep = solve_smooth_max(prob, eps, seed=1)
        base = subgradient_baseline(prob, ball_setup(4), 400_000)
        assert rep.f_max_value - base.f_max_value <= eps

    def test_game_value_matches_baseline(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((40, 50))
        a /= np.linalg.norm(a, axis=0, keepdims=True)
        inst = MatrixGameInstance(a, "l2l1")
        eps = 0.1
        _, rep = solve_matrix_game(inst, eps, seed=2)
        base = subgradient_baseline(inst.problem(), ball_setup(40), 1_000_000)
        assert abs(rep.f_max_value - base.f_max_value) <= eps


class TestBaseline:
    def test_norm_objective_reaches_origin(self):
        rows = np.vstack([np.eye(3), -np.eye(3)])
        rep = subgradient_baseline(LinearMaxProblem(rows), ball_setup(3), 30_000)
        assert rep.f_max_value <= 0.01

    def test_identity_game_equalizer(self):
        prob = LinearMaxProblem(np.eye(2))
        rep = subgradient_baseline(prob, simplex_setup(2, 0.0), 40_000)
        np.testing.assert_allclose(rep.x, [0.5, 0.5], atol=0.01)
        assert rep.f_max_value == pytest.approx(0.5, abs=0.01)

"""Code on the per-query, per-round and per-solve paths calls ndarray methods
and ufuncs, not numpy's module-level wrappers such as ``np.sum``: on the
short vectors of a gradient query, and on the thousands of per-round
estimator and maintainer constructions of a solve, the wrapper's
Python-level dispatch costs more than the arithmetic.  This test reads the
source of every function on those paths (each LI-MD query with its row
value and gradient; each round of the outer loop, with its oracle call,
step plan and bisection loop, its estimator and maintainer construction
with the anchor evaluation and softmax weights, and its anchor
certificate; and the game certificate and each
MEB level's exact objective, run once per solve or level) and fails on a
wrapper call, so a regression shows up here rather than in a benchmark."""

import inspect
import re

import pytest

from maxmin import accelerator, apps, ball_oracle, estimator, geometry
from maxmin.estimator import EstimatorCounters, SoftmaxGradientEstimator
from maxmin.maintenance import MatVecMaintainer
from maxmin.problems import LinearMaxProblem, MaxProblem, QuadraticMaxProblem
from maxmin.sumtree import SumTree

HOT_PATH = [
    # per query
    ball_oracle.li_md,
    geometry._waterfill,
    geometry._prox_simplex,
    geometry._prox_ball,
    geometry.bregman,
    geometry.pnorm,
    SoftmaxGradientEstimator.estimate,
    MatVecMaintainer.query,
    SumTree.sample_batch,
    SumTree.rebuild,
    QuadraticMaxProblem.value,
    QuadraticMaxProblem.grad,
    LinearMaxProblem.value,
    LinearMaxProblem.grad,
    # per round
    accelerator.accelerate,
    ball_oracle.restricted_oracle,
    ball_oracle.step_plan,
    geometry.tau,
    SoftmaxGradientEstimator.__init__,
    MatVecMaintainer.__init__,
    EstimatorCounters.add,
    SoftmaxGradientEstimator.anchor_gap,
    geometry.ball_model_min,
    QuadraticMaxProblem.values_all,
    QuadraticMaxProblem.grad_matrix,
    LinearMaxProblem.values_all,
    estimator._softmax_weights,
    geometry.model_min,
    # per solve
    apps.solve_matrix_game,
    apps.dual_from_samples,
    apps.polish_dual,
    MaxProblem.f_max,
]

WRAPPERS = re.compile(
    r"\bnp\.(sum|all|any|searchsorted|argsort|argmin|argmax|cumsum|full|nonzero|max|min)\("
)


@pytest.mark.parametrize("fn", HOT_PATH, ids=lambda fn: fn.__qualname__)
def test_no_module_level_wrappers(fn):
    calls = [m.group(0) for m in WRAPPERS.finditer(inspect.getsource(fn))]
    assert not calls, f"{fn.__qualname__} calls {calls}; use the ndarray method or ufunc"

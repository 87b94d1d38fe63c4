"""Code on the per-query, per-round and per-solve paths calls ndarray methods
and ufuncs, not numpy's module-level wrappers such as ``np.sum``: on the
short vectors of a gradient query, and on the thousands of per-round
estimator and maintainer constructions of a solve, the wrapper's
Python-level dispatch costs more than the arithmetic.  This test reads the
source of every function on those paths (each LI-MD query, each round's
estimator and maintainer construction, and the game certificate run once
per solve) and fails on a wrapper call, so a regression shows up here
rather than in a benchmark."""

import inspect
import re

import pytest

from maxmin import apps, ball_oracle, geometry
from maxmin.estimator import EstimatorCounters, SoftmaxGradientEstimator
from maxmin.maintenance import MatVecMaintainer
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
    SoftmaxGradientEstimator._refresh_logits,
    MatVecMaintainer.query,
    SumTree.sample_batch,
    SumTree._cumsum,
    # per round
    SoftmaxGradientEstimator.__init__,
    MatVecMaintainer.__init__,
    EstimatorCounters.add,
    # per solve
    apps.solve_matrix_game,
    apps.dual_from_samples,
    apps.polish_dual,
]

WRAPPERS = re.compile(
    r"\bnp\.(sum|all|any|searchsorted|argsort|argmin|argmax|cumsum|full|nonzero|max|min)\("
)


@pytest.mark.parametrize("fn", HOT_PATH, ids=lambda fn: fn.__qualname__)
def test_no_module_level_wrappers(fn):
    calls = [m.group(0) for m in WRAPPERS.finditer(inspect.getsource(fn))]
    assert not calls, f"{fn.__qualname__} calls {calls}; use the ndarray method or ufunc"

"""Rejection-sampling softmax gradient estimator.

Draws an index from the distribution proportional to
exp(f_i(x_t) / eps') using only the anchor values f_i(x0), a maintained
approximation y_t of <grad f_i(x0), x_t - x0>, and rejection sampling;
returns grad f_{i_t}(x_t).  A proposal i drawn from exp((f_i(x0) + y_i)/eps')
is accepted with probability exp((f_i(x_t) - f_i(x0) - y_i)/eps' - s),
where the envelope

    s = ((1/2) L_g r^2 + L_f * mvm.error_bound) / eps'

bounds (f_i(x_t) - f_i(x0) - y_i)/eps', so the probability never clamps
at 1.  Its first term bounds the curvature gap of a convex, L_g-smooth
f_i within the radius r; its second bounds the maintainer's error on
<grad f_i(x0), x_t - x0>: eps'/2 for the default exact maintainer, eps'
for the dyadic sketch chain the selftests pass in.  So s = 1/2 for games
(L_g = 0), s <= 3/2 for quadratic families, and s <= 2 over the sketch
chain; each gradient costs about e^s proposals.  On the maintainer's good
event the accepted index has exactly the softmax law, so the output is
an unbiased estimator of the smoothed-max gradient, and it is always
bounded by the family's Lipschitz constant.

The sampler draws from the generator it is given alone (``accelerate``
keys one per round from the solve's seed), so the output distribution
carries no dependence on a randomized maintainer's bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .errors import PreconditionViolated, RejectionStall
from .geometry import GeometrySetup, Kind, ball_model_min, model_min, pnorm
from .maintenance import MatVecMaintainer
from .problems import MaxProblem
from .sumtree import SumTree

_BATCH = 8


@dataclass
class EstimateStats:
    draws: int
    accept_prob: float


@dataclass
class EstimatorCounters:
    """The solver's counters and evaluation timer, declared once: the
    estimator counts into one, the accelerator sums them per round with
    ``add``, and ``SolverReport`` inherits these fields."""

    func_evals: int = 0
    grad_evals: int = 0
    draws: int = 0  # sampler proposals; accepted / draws is the acceptance rate
    accepted: int = 0
    mvm_rebuilds: int = 0  # never written: kept because the benchmark harness reads it
    t_eval: float = 0.0  # seconds in the anchor evaluation and the rejection loop

    @property
    def evaluations(self) -> int:
        return self.func_evals + self.grad_evals

    def add(self, other: "EstimatorCounters") -> None:
        """Add ``other``'s counters to this record, field by field."""
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


COUNTER_FIELDS = tuple(f.name for f in fields(EstimatorCounters))


def _softmax_weights(logits: np.ndarray) -> np.ndarray:
    """exp(logits - max), so the largest weight is 1; overwrites ``logits``.
    ``np.maximum.reduce`` is what ``.max()`` calls, without its wrapper."""
    logits -= np.maximum.reduce(logits)
    return np.exp(logits, out=logits)


class SoftmaxGradientEstimator:
    """Stateful estimator anchored at x0 with query radius r.

    Queries must stay within distance r of the anchor and be chosen as a
    deterministic function of previous outputs (the maintainer's
    obliviousness contract).  Each query asks the maintainer for y at its
    offset x_t - x0.  The maintainer is the exact ``MatVecMaintainer``
    unless ``mvm_factory(a)`` is given, which builds one over the rows
    a = grad f_i(x0) / L_f started at offset 0 (for the selftests'
    ``DyadicMaintainer``).  A sketch maintainer's ``BudgetExceeded``
    propagates to the caller.  The sampler's proposals and coins are
    drawn from ``rng``.
    """

    def __init__(
        self,
        problem: MaxProblem,
        x0: np.ndarray,
        eps_prime: float,
        r: float,
        delta: float,
        rng: np.random.Generator,
        p: int = 2,
        mvm_factory=None,
    ):
        half_smooth = 0.5 * problem.smooth * r * r
        if half_smooth > eps_prime * (1.0 + 1e-9):
            raise PreconditionViolated(
                f"need (1/2) L_g r^2 <= eps': {half_smooth:.6g} > {eps_prime:.6g}"
            )

        self.problem = problem
        self.x0 = np.asarray(x0, dtype=float).copy()
        self.eps_prime = float(eps_prime)
        self.r = float(r)
        self.p = p
        self.max_consecutive_rejections = max(8, math.ceil(200.0 * math.log(1.0 / delta)))
        self.counters = EstimatorCounters()

        self.sampler_rng = rng

        t0 = time.perf_counter()
        self.f0 = np.asarray(problem.values_all(self.x0), dtype=float)
        grads = np.asarray(problem.grad_matrix(self.x0), dtype=float)
        self.counters.func_evals += problem.n
        self.counters.grad_evals += problem.n
        self.counters.t_eval += time.perf_counter() - t0

        self.lip = problem.lip
        self._grads = grads
        self._a = grads if self.lip == 1.0 else grads / self.lip
        if mvm_factory is None:
            self.mvm = MatVecMaintainer(self._a, self.eps_prime / self.lip, self.p)
        else:
            self.mvm = mvm_factory(self._a)
        # the rejection envelope s of the module docstring
        self.envelope = (half_smooth + self.lip * self.mvm.error_bound) / self.eps_prime
        # at the anchor y = 0, so the logits are f0 / eps' alone
        self.y = np.zeros(problem.n)
        self.tree = SumTree(_softmax_weights(self.f0 / self.eps_prime))

    def anchor_gap(self, setup: GeometrySetup,
                   dual: np.ndarray | None = None) -> tuple[float, np.ndarray | None]:
        """Weak-duality bound on f_max(x0) - min_X f_max from the anchor's
        own evaluations, valid for any convex family and exact for linear
        and quadratic ones, and the dual weights it was taken at.

        For weights y in the simplex, with g = sum_i y_i grad f_i(x0) and
        the family's strong-convexity modulus mu, f_max(x) >= sum_i y_i
        f_i(x) >= y.f0 + <g, x - x0> + (mu/2) ||x - x0||^2 for every x, so
        min_X f_max >= D(y) = y.f0 - <g, x0> + min_X [<g, x> + (mu/2)
        ||x - x0||^2], at any anchor and for any y.  That minimum is
        ``ball_model_min``'s on the ball with mu > 0; otherwise it is
        ``model_min``'s, over the ball or the full simplex, which drops
        the quadratic term (a valid but weaker bound).  Games (mu = 0) and
        the simplex take the sampler's softmax weights (proportional to
        exp(f0 / eps')), ignore ``dual`` and return ``(gap, None)``: their
        D is non-smooth in g.

        On the ball with mu > 0 (the MEB levels) D's dual is a weighted
        centroid of the points, the core-set certificate of Badoiu and
        Clarkson, and a solve's checks carry one Frank-Wolfe run on it: y
        is ``dual`` (the softmax weights when None), and one step with
        exact line search moves it on.  With the lower models m_i = f0_i +
        <grad f_i(x0), x* - x0> at D's best response x*, the step moves y
        toward the vertex j maximizing m_i, or moves the weight of the
        vertex k maximizing y_k (m_j - m_k) to j: Lacoste-Julien and
        Jaggi's pairwise step, which can empty a vertex an earlier anchor
        weighted.  Each maximizes D without the ball constraint, clipped
        to the simplex, and the larger exact D is kept if it rises.  Costs
        one n x d product for g, one for the models, and O(n) work; no f
        or grad evaluation.
        """
        x0, f0, grads = self.x0, self.f0, self._grads
        f_max = float(np.maximum.reduce(f0))
        mu = self.problem.mu
        if mu == 0.0 or setup.kind is not Kind.BALL:
            y = self.tree.weights / self.tree.total
            g = y @ grads
            return f_max - (float(y.dot(f0)) - float(g.dot(x0)) + model_min(setup, g)), None
        y = self.tree.weights / self.tree.total if dual is None else dual
        g = y @ grads
        yf, gx, gg, xx = float(y.dot(f0)), float(g.dot(x0)), float(g.dot(g)), float(x0.dot(x0))
        value, s = ball_model_min(gx, gg, xx, mu)
        lower = yf - gx + value
        # each f_i's lower model at the best response (x0 - g/mu) / s
        model = f0 + grads @ ((x0 - g / mu) / s - x0)
        j = int(model.argmax())
        k = int((y * (model.item(j) - model)).argmax())
        g_j, f_j = grads[j], f0.item(j)
        step = None
        # toward j, y + t (e_j - y) for t in [0, 1], or k's weight to j,
        # y + t (e_j - e_k) for t in [0, y_k]; g and y.f0 move along h and rise
        for h, rise, t_hi, pair in ((g_j - g, f_j - yf, 1.0, False),
                                    (g_j - grads[k], f_j - f0.item(k), y.item(k), True)):
            hh = float(h.dot(h))
            if not hh > 0.0:
                continue
            gh, hx = float(g.dot(h)), float(h.dot(x0))
            t = min(max((mu * rise - gh) / hh, 0.0), t_hi)
            gx_t = gx + t * hx
            value, _ = ball_model_min(gx_t, gg + t * (2.0 * gh + t * hh), xx, mu)
            lower_t = yf + t * rise - gx_t + value
            if lower_t > lower:
                lower, step = lower_t, (t, pair)
        if step is not None:
            t, pair = step
            if pair:
                y = y.copy()
                y[k] -= t
            else:
                y = y * (1.0 - t)
            y[j] += t
        return f_max - lower, y

    def estimate(self, x_t: np.ndarray) -> tuple[int, np.ndarray, EstimateStats]:
        """Sample i ~ softmax(f(x_t)/eps') and return (i, grad f_i(x_t), stats)."""
        x_t = np.asarray(x_t, dtype=float)
        u = x_t - self.x0
        dist = pnorm(u, self.p)
        if dist > self.r * (1.0 + 1e-9) + 1e-12:
            raise PreconditionViolated(f"query at distance {dist:.6g} > r = {self.r:.6g}")

        raw, refreshed = self.mvm.query(u)
        if refreshed:
            self.y = self.lip * raw
            self.tree.rebuild(_softmax_weights((self.f0 + self.y) / self.eps_prime))

        counters = self.counters
        f0 = self.f0
        y = self.y
        inv_eps = 1.0 / self.eps_prime
        envelope = self.envelope
        value = self.problem.value
        draws = 0
        while True:
            batch = self.tree.sample_batch(self.sampler_rng, _BATCH)
            coins = self.sampler_rng.random(_BATCH)
            t0 = time.perf_counter()
            for i, coin in zip(batch.tolist(), coins.tolist()):
                draws += 1
                # .item returns Python floats: the same arithmetic as on
                # numpy scalars, without their per-operation overhead
                expo = (value(i, x_t) - f0.item(i) - y.item(i)) * inv_eps - envelope
                prob = math.exp(expo) if expo < 0.0 else 1.0
                if coin < prob:
                    grad = self.problem.grad(i, x_t)
                    counters.t_eval += time.perf_counter() - t0
                    counters.func_evals += draws
                    counters.draws += draws
                    counters.accepted += 1
                    counters.grad_evals += 1
                    return i, grad, EstimateStats(draws, prob)
            counters.t_eval += time.perf_counter() - t0
            if draws > self.max_consecutive_rejections:
                counters.func_evals += draws
                raise RejectionStall(
                    f"{draws} consecutive rejections (threshold "
                    f"{self.max_consecutive_rejections}); treat this seed as failed"
                )

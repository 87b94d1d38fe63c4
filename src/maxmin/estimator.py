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

The sampler's random stream is keyed off the seed alone, so the output
distribution carries no dependence on a randomized maintainer's bits.
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
# most Frank-Wolfe steps anchor_gap takes on a strongly convex family's dual
CERTIFICATE_FW_STEPS = 3


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


def seed_parts(rng_seed) -> tuple[object, tuple]:
    """The (entropy, spawn_key) of an int, a SeedSequence, or such a pair."""
    if isinstance(rng_seed, np.random.SeedSequence):
        return rng_seed.entropy, rng_seed.spawn_key
    if isinstance(rng_seed, tuple):
        return rng_seed
    return rng_seed, ()


class SoftmaxGradientEstimator:
    """Stateful estimator anchored at x0 with query radius r.

    Queries must stay within distance r of the anchor and be chosen as a
    deterministic function of previous outputs (the maintainer's
    obliviousness contract).  Each query asks the maintainer for y at its
    offset x_t - x0.  The maintainer is the exact ``MatVecMaintainer``
    unless ``mvm_factory(a)`` is given, which builds one over the rows
    a = grad f_i(x0) / L_f started at offset 0 (for the selftests'
    ``DyadicMaintainer``).  A sketch maintainer's ``BudgetExceeded``
    propagates to the caller.  ``rng_seed`` is an int, a SeedSequence, or
    the (entropy, spawn_key) pair of one; the sampler's stream is keyed by
    spawn_key + (202,).
    """

    def __init__(
        self,
        problem: MaxProblem,
        x0: np.ndarray,
        eps_prime: float,
        r: float,
        delta: float,
        rng_seed=0,
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

        entropy, key = seed_parts(rng_seed)
        sampler_seed = np.random.SeedSequence(entropy=entropy, spawn_key=key + (202,))
        self.sampler_rng = np.random.Generator(np.random.Philox(sampler_seed))

        t0 = time.perf_counter()
        self.f0 = np.asarray(problem.values_all(self.x0), dtype=float)
        grads = np.asarray(problem.grad_matrix(self.x0), dtype=float)
        self.counters.func_evals += problem.n
        self.counters.grad_evals += problem.n
        self.counters.t_eval += time.perf_counter() - t0

        self.lip = problem.lip
        self._a = grads if self.lip == 1.0 else grads / self.lip
        if mvm_factory is None:
            self.mvm = MatVecMaintainer(self._a, self.eps_prime / self.lip, self.p)
        else:
            self.mvm = mvm_factory(self._a)
        # the rejection envelope s of the module docstring
        self.envelope = (half_smooth + self.lip * self.mvm.error_bound) / self.eps_prime
        # at the anchor y = 0, so the logits are f0 / eps' alone
        self.y = np.zeros(problem.n)
        self.logits = self.f0 / self.eps_prime
        self.tree = SumTree(np.exp(self.logits - self.logits.max()))

    def anchor_gap(self, setup: GeometrySetup) -> float:
        """Weak-duality bound on f_max(x0) - min_X f_max from the anchor's
        own evaluations, valid for any convex family and exact for linear
        and quadratic ones.

        For weights y in the simplex, with g = sum_i y_i grad f_i(x0) and
        the family's strong-convexity modulus mu, f_max(x) >= sum_i y_i
        f_i(x) >= y.f0 + <g, x - x0> + (mu/2) ||x - x0||^2 for every x, so
        min_X f_max >= D(y) = y.f0 - <g, x0> + min_X [<g, x> + (mu/2)
        ||x - x0||^2].  That minimum is ``ball_model_min``'s on the ball
        with mu > 0; otherwise it is ``model_min``'s, over the ball or the
        full simplex, which drops the quadratic term (a valid but weaker
        bound).  The bound starts from the sampler's
        softmax weights (proportional to exp(f0 / eps')).  Games (mu = 0)
        keep that dual: their D is non-smooth in g.  For a strongly convex
        family on the ball (the MEB levels, mu = 1) D's dual is a
        weighted centroid of the points, the core-set certificate of
        Badoiu and Clarkson, and at small eps' the softmax puts it on one
        or two far points.  There up to ``CERTIFICATE_FW_STEPS``
        Frank-Wolfe steps with exact line search polish it: at D's best
        response x*, take the vertex j maximizing the lower model
        f0_j + <grad f_j(x0), x* - x0>, move y toward e_j by the step
        gamma that maximizes D without the ball constraint, and keep the
        step only if the exact D rises.  Costs one n x d product, one
        more per polish step, and O(n) work; no f or grad evaluation.
        """
        y = self.tree.weights / self.tree.total
        g = self.lip * (y @ self._a)
        yf = float(y @ self.f0)
        mu = self.problem.mu
        if mu == 0.0 or setup.kind is not Kind.BALL:
            lower = yf - float(g @ self.x0) + model_min(setup, g)
            return float(self.f0.max()) - lower
        value, x_star = ball_model_min(g, self.x0, mu)
        lower = yf - float(g @ self.x0) + value
        for _ in range(CERTIFICATE_FW_STEPS):
            j = int((self.f0 + self.lip * (self._a @ (x_star - self.x0))).argmax())
            h = self.lip * self._a[j] - g
            hh = float(h @ h)
            if hh == 0.0:
                break
            rise = float(self.f0[j]) - yf
            gamma = min(max((mu * rise - float(g @ h)) / hh, 0.0), 1.0)
            g_next = g + gamma * h
            yf_next = yf + gamma * rise
            value, x_next = ball_model_min(g_next, self.x0, mu)
            lower_next = yf_next - float(g_next @ self.x0) + value
            if not lower_next > lower:
                break
            g, yf, lower, x_star = g_next, yf_next, lower_next, x_next
        return float(self.f0.max()) - lower

    def _refresh_logits(self) -> None:
        """Recompute the logits from y and rebuild the sampler's weights,
        offset by the max logit so the largest weight is 1."""
        self.logits = (self.f0 + self.y) / self.eps_prime
        self.tree.rebuild(np.exp(self.logits - self.logits.max()))

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
            self._refresh_logits()

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
            accepted = -1
            for pos, i in enumerate(batch.tolist()):
                draws += 1
                f_val = value(i, x_t)
                expo = (f_val - f0[i] - y[i]) * inv_eps - envelope
                prob = math.exp(expo) if expo < 0.0 else 1.0
                if coins[pos] < prob:
                    accepted = i
                    counters.func_evals += pos + 1
                    break
            else:
                counters.func_evals += _BATCH
            if accepted >= 0:
                grad = self.problem.grad(accepted, x_t)
                counters.t_eval += time.perf_counter() - t0
                counters.draws += draws
                counters.accepted += 1
                counters.grad_evals += 1
                return accepted, grad, EstimateStats(draws, prob)
            counters.t_eval += time.perf_counter() - t0
            if draws > self.max_consecutive_rejections:
                raise RejectionStall(
                    f"{draws} consecutive rejections (threshold "
                    f"{self.max_consecutive_rejections}); treat this seed as failed"
                )

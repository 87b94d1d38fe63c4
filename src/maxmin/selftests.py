"""Configurable-scale statistical property checks.

Each check returns (name, passed, observed, bound) rows so the CLI can
print observed-versus-bound summaries; the pytest suites run the same
routines at pinned scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import refcheck
from .errors import InvalidParams
from .estimator import SoftmaxGradientEstimator
from .geometry import GeometrySetup, Kind, ball_setup, bregman, simplex_setup, tau
from .maintenance import DyadicMaintainer
from .problems import LinearMaxProblem
from .sketches import mve_init


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: float
    bound: float

    def row(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return f"{self.name:<40s} {verdict:>4s}  observed={self.observed:.6g} bound={self.bound:.6g}"


def _unit_rows(rng, n, d, p):
    a = rng.standard_normal((n, d))
    if p == 2:
        a /= np.linalg.norm(a, axis=1, keepdims=True)
    else:
        a /= np.max(np.abs(a))
    return a


def mve_error_check(
    p: int, n: int = 50, d: int = 20, eps: float = 0.3, delta: float = 0.1,
    trials: int = 200, seed: int = 0,
) -> list[CheckResult]:
    """Fraction of independent (init, query) trials violating the
    l-infinity error bound, against delta plus binomial slack."""
    rng = np.random.Generator(np.random.Philox(seed))
    violations = 0
    for trial in range(trials):
        a = _unit_rows(rng, n, d, p)
        x = rng.standard_normal(d)
        mve = mve_init(a, p, eps, delta, rng.integers(2**63))
        err = np.max(np.abs(mve.query(x) - refcheck.exact_matvec(a, x)))
        xnorm = float(np.linalg.norm(x, ord=p))
        if err > eps * xnorm:
            violations += 1
    observed = violations / trials
    bound = refcheck.binomial_slack_bound(delta, trials)
    return [CheckResult(f"mve p={p} error-rate", observed <= bound, observed, bound)]


def mvm_walk_check(
    p: int, n: int = 40, d: int = 15, steps: int = 500, ratio: float = 4.0,
    delta: float = 0.2, seeds: int = 100, seed: int = 0,
) -> list[CheckResult]:
    """Random-walk accuracy of the sketch maintainer; its level budgets are
    asserted on every query."""
    rng = np.random.Generator(np.random.Philox(seed))
    r_budget = 1.0
    eps = r_budget / ratio
    failures = 0
    for run in range(seeds):
        a = _unit_rows(rng, n, d, p)
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x, ord=p) * 4.0
        mvm = DyadicMaintainer(a, x, r_budget, eps, delta, p, rng.integers(2**63))
        deltas = rng.standard_normal((steps, d))
        deltas /= np.sum(np.linalg.norm(deltas, ord=p, axis=1)) / (0.98 * r_budget)
        worst = 0.0
        cur = x.copy()
        for step_vec in deltas:
            cur += step_vec
            y, _ = mvm.query(cur)
            worst = max(worst, float(np.max(np.abs(y - a @ cur))))
        if worst > eps:
            failures += 1
    observed = failures / seeds
    bound = refcheck.binomial_slack_bound(delta, seeds)
    return [CheckResult(f"mvm p={p} walk error-rate", observed <= bound, observed, bound)]


def dyadic_factory(seed: int, r_budget: float, eps: float, delta: float, p: int):
    """An estimator's ``mvm_factory``: a ``DyadicMaintainer`` with budget R
    started at offset 0, whose sketches draw from ``seed`` keyed by the
    spawn key (101, 0)."""

    def build(a: np.ndarray) -> DyadicMaintainer:
        sketch_seed = np.random.SeedSequence(seed, spawn_key=(101, 0))
        return DyadicMaintainer(a, np.zeros(a.shape[1]), r_budget, eps, delta, p, sketch_seed)

    return build


def sampler_fidelity_check(
    n: int = 10, d: int = 100, draws: int = 100_000, seed: int = 0,
) -> list[CheckResult]:
    """Accepted-index frequencies of an estimator over the dyadic sketch
    chain against the exact softmax law, plus the mean acceptance-rate
    floor e^-2, at a fixed query point at distance r/2 with every
    coordinate nonzero, so each sketch level hashes all d coordinates:
    with a linear family every acceptance exponent lies in [-2 s, 0] on
    the sketch maintainer's good event, where the envelope s is 1.  At
    d = 100 the buckets' collisions reach the median over a level's
    repetitions, so the chain answers the query with a nonzero error
    (about 1e-3 against its bound 0.05); at d = 6 it returns A x to
    rounding."""
    rng = np.random.Generator(np.random.Philox(seed))
    rows = _unit_rows(rng, n, d, 2) * 0.9
    problem = LinearMaxProblem(rows)
    x0 = np.zeros(d)
    eps_prime = 0.05
    r = 0.2
    r_budget = 4.0 * eps_prime / problem.lip  # keeps the maintainer depth small
    sampler = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(202,))))
    est = SoftmaxGradientEstimator(
        problem, x0, eps_prime, r, 0.05, sampler, p=2,
        mvm_factory=dyadic_factory(seed, r_budget, eps_prime / problem.lip, 0.025, 2),
    )
    x_t = np.full(d, r / (2.0 * math.sqrt(d)))
    counts = np.zeros(n)
    for _ in range(draws):
        i, _, _ = est.estimate(x_t)
        counts[i] += 1.0
    target = refcheck.exact_softmax_dist(problem, x_t, eps_prime)
    tv = refcheck.tv_distance(counts / draws, target)
    acc_rate = est.counters.accepted / est.counters.draws
    return [
        CheckResult("sampler TV distance", tv <= 0.05, tv, 0.05),
        CheckResult("sampler acceptance rate", acc_rate >= math.exp(-2.0), acc_rate, math.exp(-2.0)),
    ]


def _sample_simplex(rng, count, setup: GeometrySetup) -> np.ndarray:
    p = rng.dirichlet(np.ones(setup.dim), size=count)
    return setup.nu + (1.0 - setup.nu * setup.dim) * p


def _sample_ball(rng, count, d) -> np.ndarray:
    x = rng.standard_normal((count, d))
    radii = rng.random(count) ** (1.0 / d)
    x *= (radii / np.linalg.norm(x, axis=1))[:, None]
    return x


def geometry_fuzz_check(
    setup: GeometrySetup, count: int = 10_000, seed: int = 0, slack: float = 1e-7
) -> list[CheckResult]:
    """tau-triangle, symmetry, strong-convexity and Hellinger fuzz suites on
    ``bregman``, the divergence the ball oracle's bisection evaluates."""
    rng = np.random.Generator(np.random.Philox(seed))
    if setup.kind is Kind.BALL:
        pts = [_sample_ball(rng, count, setup.dim) for _ in range(3)]
    else:
        pts = [_sample_simplex(rng, count, setup) for _ in range(3)]
    a, b, c = pts
    t = tau(setup)

    def v(xs, ys):
        return bregman(setup, xs, ys)

    lhs = v(a, c) + v(c, a)
    mid = np.minimum(v(a, b), v(b, a)) + np.minimum(v(b, c), v(c, b))
    tri_viol = int(np.sum(lhs > t * mid * (1.0 + slack) + 1e-15))

    sym_hi = np.sum(v(b, a) > t * v(a, b) * (1.0 + slack) + 1e-15)
    sym_lo = np.sum(v(b, a) < v(a, b) / t * (1.0 - slack) - 1e-15)
    sym_viol = int(sym_hi + sym_lo)

    if setup.kind is Kind.BALL:
        sq = 0.5 * np.sum((a - b) ** 2, axis=1)
    else:
        sq = 0.5 * np.sum(np.abs(a - b), axis=1) ** 2
    pinsker_viol = int(np.sum(v(a, b) < sq * (1.0 - slack) - 1e-15))

    out = [
        CheckResult("tau-triangle violations", tri_viol == 0, tri_viol, 0),
        CheckResult("symmetry violations", sym_viol == 0, sym_viol, 0),
        CheckResult("strong-convexity violations", pinsker_viol == 0, pinsker_viol, 0),
    ]
    if setup.kind is Kind.TRUNCATED_SIMPLEX:
        h2 = 0.5 * np.sum((np.sqrt(a) - np.sqrt(b)) ** 2, axis=1)
        hell_viol = int(np.sum(v(a, b) + v(b, a) > t * h2 * (1.0 + slack) + 1e-15))
        out.append(CheckResult("hellinger-bound violations", hell_viol == 0, hell_viol, 0))
    return out


SUITES = ("mve", "mvm", "sampler", "geometry")


def run_selftests(names: list[str], seed: int = 0, scale: float = 1.0) -> list[CheckResult]:
    """Run the named suites in order.  Every name and the scale are checked
    before the first suite runs."""
    # a scale of 0 or below would silently run every suite at its floor
    if not (math.isfinite(scale) and scale > 0.0):
        raise InvalidParams(f"scale must be finite and positive, got {scale}")
    for which in names:
        if which not in SUITES:
            raise InvalidParams(f"unknown selftest {which!r}; choose from {', '.join(SUITES)}")
    return [res for which in names for res in _run_suite(which, seed, scale)]


def _run_suite(which: str, seed: int, scale: float) -> list[CheckResult]:
    if which == "mve":
        trials = max(20, int(200 * scale))
        return mve_error_check(2, trials=trials, seed=seed) + mve_error_check(
            1, trials=trials, seed=seed
        )
    if which == "mvm":
        seeds = max(10, int(40 * scale))
        steps = max(50, int(200 * scale))
        return mvm_walk_check(2, steps=steps, seeds=seeds, seed=seed) + mvm_walk_check(
            1, steps=steps, seeds=seeds, seed=seed
        )
    if which == "sampler":
        draws = max(2000, int(40_000 * scale))
        return sampler_fidelity_check(draws=draws, seed=seed)
    # which == "geometry": run_selftests has checked the name
    count = max(1000, int(10_000 * scale))
    return geometry_fuzz_check(ball_setup(6), count=count, seed=seed) + geometry_fuzz_check(
        simplex_setup(6, 0.02), count=count, seed=seed
    )

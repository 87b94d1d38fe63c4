"""Reference oracles and statistical bounds for the selftests and the
benchmark.

Everything here is deliberately independent of the solver code paths it
validates: exact mat-vecs use compensated summation, and the minimum
enclosing ball oracle is the classical randomized incremental
construction.  The test suites' brute-force prox and game references are
in the tests' own ``references`` module.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidParams


def exact_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x with per-row compensated (fsum) accumulation."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.array([math.fsum(row * x) for row in a])


def softmax_from_values(values: np.ndarray, eps_prime: float) -> np.ndarray:
    z = np.asarray(values, dtype=float) / eps_prime
    z = z - z.max()
    w = np.exp(z)
    return w / math.fsum(w)


def exact_softmax_dist(problem, x: np.ndarray, eps_prime: float) -> np.ndarray:
    """Distribution proportional to exp(f_i(x) / eps_prime), in log space."""
    return softmax_from_values(problem.values_all(x), eps_prime)


# ---------------------------------------------------------------------------
# Minimum enclosing ball (exact, d <= 3)


def _circumball(boundary: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
    """Smallest ball with all boundary points on its surface (affine solve)."""
    pts = np.asarray(boundary, dtype=float)
    if len(pts) == 0:
        return np.zeros(1), -1.0
    base = pts[0]
    if len(pts) == 1:
        return base.copy(), 0.0
    rel = pts[1:] - base
    rhs = 0.5 * np.sum(rel * rel, axis=1)
    sol, *_ = np.linalg.lstsq(rel, rhs, rcond=None)
    center = base + sol
    radius = float(np.max(np.linalg.norm(pts - center, axis=1)))
    return center, radius


def _in_ball(p: np.ndarray, center: np.ndarray, radius: float) -> bool:
    return float(np.linalg.norm(p - center)) <= radius + 1e-10 * max(1.0, radius)


def welzl_meb(points: np.ndarray, rng_seed: int = 0) -> tuple[np.ndarray, float]:
    """Exact minimum enclosing ball by Welzl's randomized recursion (d <= 3)."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if d > 3:
        raise InvalidParams("exact MEB oracle only supports d <= 3")
    order = np.random.Generator(np.random.Philox(rng_seed)).permutation(n)
    pts = pts[order]

    def solve(limit: int, boundary: list[np.ndarray]) -> tuple[np.ndarray, float]:
        if limit == 0 or len(boundary) == d + 1:
            if not boundary:
                return pts[0].copy(), 0.0 if limit == 0 and n > 0 else -1.0
            return _circumball(boundary)
        center, radius = solve(limit - 1, boundary)
        p = pts[limit - 1]
        if radius >= 0.0 and _in_ball(p, center, radius):
            return center, radius
        return solve(limit - 1, boundary + [p])

    if n == 0:
        raise InvalidParams("need at least one point")
    if n == 1:
        return pts[0].copy(), 0.0
    center, radius = solve(n, [])
    return center, radius


# ---------------------------------------------------------------------------
# Statistical bounds (shared by the selftests and the test suites)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def binomial_slack_bound(delta: float, trials: int, widen: float = 3.0) -> float:
    """delta + widen * sqrt(delta (1 - delta) / trials): allowed failure rate."""
    return delta + widen * math.sqrt(delta * (1.0 - delta) / trials)

"""Dyadic matrix-vector maintenance.

Maintains y ~= A x_t across a query sequence whose cumulative p-norm
movement stays below R, using k = ceil(log2(ceil(R/eps))) + 1 single-shot
estimators at geometrically spaced accuracies.  Reference vectors
xbar_0..xbar_{k+1} keep ||xbar_i - xbar_{i-1}||_p <= eps 2^{i-2}; level i
absorbs movement at its own scale and is queried at most
R / (eps 2^{i-2}) times.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, InvalidParams
from .geometry import pnorm
from .sketches import ExactMve, _check_norm, mve_init

_EMPTY = np.empty(0, dtype=np.intp)


@lru_cache(maxsize=None)
def level_accuracies(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Level weights alpha_i ~ 2^{i/3} (sum 1) and accuracies alpha_i 2^{-i}."""
    i = np.arange(1, k + 1)
    alpha = 2.0 ** (i / 3.0)
    alpha /= alpha.sum()
    return alpha, alpha * 2.0 ** (-i.astype(float))


class MatVecMaintainer:
    """State and query loop of the dyadic maintenance structure.

    ``mode`` selects the per-level backend: "sketch" builds the real
    CountSketch (p=2) or sampling (p=1) estimators; "exact" keeps one
    level over the exact product, since levels above the first would only
    feed its sum: y = A xbar_1 with xbar_1 reset to x once it is more than
    eps/2 away, so the output error is deterministic (at most eps/2).

    ``error_bound`` is the l-infinity bound on y - A x that each mode
    guarantees for unit-norm rows: eps/2 in exact mode, always; eps in
    sketch mode, on the good event.
    """

    def __init__(
        self,
        a: np.ndarray,
        x0: np.ndarray,
        r_budget: float,
        eps: float,
        delta: float,
        p: int,
        rng_seed=0,
        mode: str = "sketch",
        validate: bool = False,
        check_norm: bool = True,
    ):
        a = np.asarray(a, dtype=float)
        if p not in (1, 2):
            raise InvalidParams(f"p must be 1 or 2, got {p}")
        if check_norm:
            _check_norm(a, p)
        if eps <= 0.0 or r_budget <= 0.0:
            raise InvalidParams("need eps > 0 and R > 0")
        if eps > r_budget / 2.0:
            warnings.warn(
                f"accuracy eps={eps:g} exceeds R/2={r_budget / 2:g}; clamping to R/2",
                stacklevel=2,
            )
            eps = r_budget / 2.0

        self.p = p
        self.eps = float(eps)
        self.r_budget = float(r_budget)
        self.delta = float(delta)
        self.mode = mode
        self.validate = validate
        self.n, self.d = a.shape

        self.error_bound = self.eps / 2.0 if mode == "exact" else self.eps
        self.k = 1 if mode == "exact" else math.ceil(math.log2(math.ceil(r_budget / eps))) + 1
        self.alpha, self.level_eps = level_accuracies(self.k)
        self.delta_bar = delta * eps / r_budget

        self.levels = [None]  # 1-based
        if mode == "exact":
            self.levels.append(ExactMve(a))
        else:
            if isinstance(rng_seed, np.random.SeedSequence):
                seeds = rng_seed.spawn(self.k)
            else:
                seeds = np.random.SeedSequence(rng_seed).spawn(self.k)
            # p = 1 levels share the single stored copy of A
            self.levels.extend(
                mve_init(a, p, float(self.level_eps[i]), self.delta_bar, seeds[i])
                for i in range(self.k)
            )

        x0 = np.asarray(x0, dtype=float)
        y0 = a @ x0 if x0.any() else np.zeros(self.n)
        self.x = x0.copy()
        # references are only ever rebound, never written in place, so
        # the levels share one copy of x0 and of y0
        ref_x0 = x0.copy()
        self.ref_x = [self.x] + [ref_x0] * (self.k + 1)
        self.ref_y = [y0] * (self.k + 2)
        self.moved = 0.0
        self.query_counts = np.zeros(self.k + 2, dtype=np.int64)
        self.last_j = 0

    def level_budget(self, i: int) -> float:
        return self.r_budget / (self.eps * 2.0 ** (i - 2))

    def query(self, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply x <- x + delta and return (y, changed_coordinates).

        Raises BudgetExceeded (leaving the state untouched) once the
        cumulative movement would pass R; callers rebuild at that point.
        """
        delta = np.asarray(delta, dtype=float)
        step = pnorm(delta, self.p)
        if self.moved + step > self.r_budget * (1.0 + 1e-12):
            raise BudgetExceeded(
                f"movement {self.moved + step:.6g} exceeds budget {self.r_budget:.6g}"
            )
        self.moved += step
        self.x += delta

        j = self.k + 1
        for i in range(1, self.k + 2):
            if pnorm(self.x - self.ref_x[i], self.p) <= self.eps * 2.0 ** (i - 2):
                j = i
                break
        self.last_j = j

        prev_y1 = self.ref_y[1]
        for i in range(j - 1, 0, -1):
            self.ref_x[i] = self.x.copy()
            self.query_counts[i] += 1
            if self.validate and self.query_counts[i] > self.level_budget(i) + 1e-9:
                raise AssertionError(f"level {i} exceeded its query budget")
            est = self.levels[i].query(self.ref_x[i] - self.ref_x[i + 1])
            self.ref_y[i] = est + self.ref_y[i + 1]

        if self.validate:
            self._check_chain()
        changed = (self.ref_y[1] != prev_y1).nonzero()[0] if j > 1 else _EMPTY
        return self.ref_y[1], changed

    def _check_chain(self) -> None:
        # the top reference stays at x0; the movement budget R bounds its gap
        for i in range(1, self.k + 1):
            gap = pnorm(self.ref_x[i] - self.ref_x[i - 1], self.p)
            if gap > self.eps * 2.0 ** (i - 2) * (1.0 + 1e-9):
                raise AssertionError(f"reference chain invariant broken at level {i}")

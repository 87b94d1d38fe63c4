"""Matrix-vector maintenance: y ~= A x across a sequence of query points x.

Both maintainers answer ``query(x)`` with ``(y, refreshed)`` at the query
point itself; the estimator passes the offset x_t - x0 from its anchor.
``MatVecMaintainer``, the solver's, is a lazily refreshed exact product.
``DyadicMaintainer`` is the paper's dynamic sketch structure, which only
the selftests build: a sketch beats the exact product only when its t b
buckets per row number fewer than d, which no instance that fits in
memory reaches.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded, InvalidParams
from .geometry import pnorm
from .sketches import ExactMve, mve_init


def _check_params(eps: float, p: int) -> None:
    if p not in (1, 2):
        raise InvalidParams(f"p must be 1 or 2, got {p}")
    if not eps > 0.0:
        raise InvalidParams(f"need eps > 0, got {eps}")


class MatVecMaintainer:
    """The solver's maintainer: y = A xbar for queries x, offsets from
    the anchor, with xbar reset to x once x is more than eps/2 away from
    it in the p-norm.  It starts at x = xbar = 0, y = 0.

    ``error_bound`` = eps/2 is the deterministic l-infinity bound on
    y - A x for unit-norm rows.  There is no movement budget: a refresh
    costs one exact product, whatever the distance moved.
    """

    def __init__(self, a: np.ndarray, eps: float, p: int):
        _check_params(eps, p)
        self.p = p
        self.error_bound = 0.5 * float(eps)
        self.product = ExactMve(a)
        self.x_bar = np.zeros(self.product.d)
        self.y = np.zeros(self.product.n)

    def query(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        """Return (y at the offset x, whether y was refreshed)."""
        if pnorm(x - self.x_bar, self.p) <= self.error_bound:
            return self.y, False
        # callers may reuse the array they pass
        self.x_bar = x.copy()
        self.y = self.product.query(self.x_bar)
        return self.y, True


def level_accuracies(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Level weights alpha_i ~ 2^{i/3} (sum 1) and accuracies alpha_i 2^{-i}."""
    i = np.arange(1, k + 1)
    alpha = 2.0 ** (i / 3.0)
    alpha /= alpha.sum()
    return alpha, alpha * 2.0 ** (-i.astype(float))


class DyadicMaintainer:
    """Keeps y ~= A x_t while the cumulative p-norm movement stays below R,
    with k = ceil(log2(ceil(R/eps))) + 1 CountSketch (p = 2) or sampling
    (p = 1) levels at geometrically spaced accuracies.  Reference vectors
    xbar_0..xbar_{k+1} keep ||xbar_i - xbar_{i-1}||_p <= eps 2^{i-2}; level
    i absorbs movement at its own scale and is queried at most
    R / (eps 2^{i-2}) times.

    ``error_bound`` = eps is the l-infinity bound on y - A x for unit-norm
    rows, on the good event.  Every query checks each level's query budget
    and the reference chain, and raises AssertionError if one breaks.
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
    ):
        a = np.asarray(a, dtype=float)
        _check_params(eps, p)
        if not eps <= 0.5 * r_budget * (1.0 + 1e-9):  # a NaN R fails too
            raise InvalidParams(f"need eps <= R/2: {eps:.6g} > {0.5 * r_budget:.6g}")

        self.p = p
        self.eps = float(eps)
        self.r_budget = float(r_budget)
        self.error_bound = self.eps
        self.k = math.ceil(math.log2(math.ceil(r_budget / eps))) + 1
        self.alpha, self.level_eps = level_accuracies(self.k)
        self.delta_bar = delta * eps / r_budget

        if not isinstance(rng_seed, np.random.SeedSequence):
            rng_seed = np.random.SeedSequence(rng_seed)
        seeds = rng_seed.spawn(self.k)
        # 1-based; p = 1 levels share the single stored copy of A, and
        # each level checks A's norm bound
        self.levels = [None] + [
            mve_init(a, p, float(self.level_eps[i]), self.delta_bar, seeds[i])
            for i in range(self.k)
        ]

        x0 = np.asarray(x0, dtype=float)
        y0 = a @ x0 if x0.any() else np.zeros(a.shape[0])
        self.x = x0.copy()
        # references are only ever rebound, never written in place, so
        # the levels share one copy of x0 and of y0
        ref_x0 = x0.copy()
        self.ref_x = [self.x] + [ref_x0] * (self.k + 1)
        self.ref_y = [y0] * (self.k + 2)
        self.moved = 0.0
        self.query_counts = np.zeros(self.k + 2, dtype=np.int64)

    def level_budget(self, i: int) -> float:
        return self.r_budget / (self.eps * 2.0 ** (i - 2))

    def query(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        """Move to x and return (y, whether y was refreshed).

        Raises BudgetExceeded (leaving the state untouched) once the
        cumulative movement would pass R.
        """
        step = pnorm(x - self.x, self.p)
        if self.moved + step > self.r_budget * (1.0 + 1e-12):
            raise BudgetExceeded(
                f"movement {self.moved + step:.6g} exceeds budget {self.r_budget:.6g}"
            )
        self.moved += step
        self.x[:] = x  # in place: ref_x[0] aliases it

        j = self.k + 1
        for i in range(1, self.k + 2):
            if pnorm(self.x - self.ref_x[i], self.p) <= self.eps * 2.0 ** (i - 2):
                j = i
                break

        for i in range(j - 1, 0, -1):
            self.ref_x[i] = self.x.copy()
            self.query_counts[i] += 1
            if self.query_counts[i] > self.level_budget(i) + 1e-9:
                raise AssertionError(f"level {i} exceeded its query budget")
            est = self.levels[i].query(self.ref_x[i] - self.ref_x[i + 1])
            self.ref_y[i] = est + self.ref_y[i + 1]

        self._check_chain()
        return self.ref_y[1], j > 1

    def _check_chain(self) -> None:
        # the top reference stays at x0; the movement budget R bounds its gap
        for i in range(1, self.k + 1):
            gap = pnorm(self.ref_x[i] - self.ref_x[i - 1], self.p)
            if gap > self.eps * 2.0 ** (i - 2) * (1.0 + 1e-9):
                raise AssertionError(f"reference chain invariant broken at level {i}")

"""Flat-array sum tree for categorical sampling with point updates."""

from __future__ import annotations

import numpy as np


class SumTree:
    """Binary sum tree over nonnegative weights.

    Point updates and single draws cost O(log n); ``rebuild`` and
    ``sample_batch`` are vectorized so dense weight refreshes and batched
    draws stay cheap.
    """

    def __init__(self, weights: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        self.n = weights.size
        self.leaves = 1
        while self.leaves < self.n:
            self.leaves *= 2
        self.tree = np.zeros(2 * self.leaves)
        self.rebuild(weights)

    def rebuild(self, weights: np.ndarray) -> None:
        t = self.tree
        t[self.leaves : self.leaves + self.n] = np.maximum(weights, 0.0)
        t[self.leaves + self.n :] = 0.0
        size = self.leaves // 2
        lo = self.leaves
        while size >= 1:
            level = t[lo : lo + 2 * size]
            t[size : 2 * size] = level[0::2] + level[1::2]
            lo = size
            size //= 2

    @property
    def total(self) -> float:
        return float(self.tree[1])

    def update(self, i: int, weight: float) -> None:
        # ancestors are recomputed from their children, not shifted by the
        # difference: old + (new - old) rounds away a small weight next to
        # a large one
        t = self.tree
        pos = self.leaves + i
        t[pos] = max(weight, 0.0)
        pos //= 2
        while pos >= 1:
            t[pos] = t[2 * pos] + t[2 * pos + 1]
            pos //= 2

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. indices proportional to the weights.

        Small trees sample through a leaf cumsum (two vector ops); larger
        ones descend all levels at once on the batch.
        """
        if self.leaves <= 2048:
            # scale by the cumsum's own total: the root sums in another
            # order, and u past cs[-1] would land on the last index
            cs = np.cumsum(self.tree[self.leaves : self.leaves + self.n])
            u = rng.random(count) * cs[-1]
            return np.minimum(np.searchsorted(cs, u, side="right"), self.n - 1)
        u = rng.random(count) * self.tree[1]
        idx = np.ones(count, dtype=np.intp)
        node = self.leaves
        while node > 1:
            left = self.tree[2 * idx]
            go_right = u >= left
            u -= np.where(go_right, left, 0.0)
            idx = 2 * idx + go_right
            node //= 2
        return np.minimum(idx - self.leaves, self.n - 1)

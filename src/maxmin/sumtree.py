"""Categorical sampling over nonnegative weights."""

from __future__ import annotations

import numpy as np


class SumTree:
    """Sampler over a flat array of nonnegative weights.

    ``rebuild`` and ``update`` recompute the cumulative sum ``cs`` of the
    weights, O(n) each, so each batch of draws is one ``searchsorted``;
    the solver refreshes all weights at once with ``rebuild``.
    """

    def __init__(self, weights: np.ndarray):
        self.rebuild(weights)

    def rebuild(self, weights: np.ndarray) -> None:
        # np.add.accumulate is what .cumsum() calls, without its wrapper
        self.weights = np.maximum(np.asarray(weights, dtype=float), 0.0)
        self.n = self.weights.size
        self.cs = np.add.accumulate(self.weights)

    def update(self, idx: np.ndarray, weights: np.ndarray) -> None:
        """Set ``weights[idx]``; ``idx`` and ``weights`` are aligned arrays."""
        self.weights[idx] = np.maximum(weights, 0.0)
        self.cs = self.weights.cumsum()

    @property
    def total(self) -> float:
        return float(self.cs[-1])

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. indices proportional to the weights."""
        # u is scaled by the cumsum's own total, so no u lies past cs[-1];
        # the clamp catches a product that rounds up to cs[-1] itself
        cs = self.cs
        u = rng.random(count) * cs[-1]
        return np.minimum(cs.searchsorted(u, side="right"), self.n - 1)

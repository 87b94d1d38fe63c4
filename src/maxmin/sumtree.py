"""Categorical sampling over nonnegative weights."""

from __future__ import annotations

import numpy as np


class SumTree:
    """Sampler over a flat array of nonnegative weights.

    The cumulative sum of the weights is computed on the first draw after
    a ``rebuild`` or ``update`` and cached until the next one, so each
    batch of draws is one ``searchsorted``.  A refresh costs O(n) at the
    next draw; the solver refreshes all weights at once with ``rebuild``.
    """

    def __init__(self, weights: np.ndarray):
        self.rebuild(weights)

    def rebuild(self, weights: np.ndarray) -> None:
        self.weights = np.maximum(np.asarray(weights, dtype=float), 0.0)
        self.n = self.weights.size
        self._cs = None

    def update(self, idx: np.ndarray, weights: np.ndarray) -> None:
        """Set ``weights[idx]``; ``idx`` and ``weights`` are aligned arrays."""
        self.weights[idx] = np.maximum(weights, 0.0)
        self._cs = None

    def _cumsum(self) -> np.ndarray:
        if self._cs is None:
            self._cs = self.weights.cumsum()
        return self._cs

    @property
    def total(self) -> float:
        return float(self._cumsum()[-1])

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. indices proportional to the weights."""
        # u is scaled by the cumsum's own total, so no u lies past cs[-1];
        # the clamp catches a product that rounds up to cs[-1] itself
        cs = self._cumsum()
        u = rng.random(count) * cs[-1]
        return np.minimum(cs.searchsorted(u, side="right"), self.n - 1)

"""Single-query matrix-vector estimation structures.

Three interchangeable backends answer ``query(x) ~= A x`` with an
l-infinity guarantee relative to ``||A||_{p->inf} ||x||_p``:

* ``CountSketchMve`` (p = 2): per-row CountSketch with median decoding.
* ``SampleMve`` (p = 1): importance sampling of coordinates by |x|,
  drawn with ``SumTree``.
* ``ExactMve``: stores A and multiplies; the solver's product, which the
  test suites also compare against.
"""

from __future__ import annotations

import math

import numpy as np

from .problems import check_norm
from .sumtree import SumTree

# Repetition / bucket constants for CountSketch: the per-repetition
# variance is at most ||a||^2 ||x||^2 / b, so b = ceil(6 / eps^2) makes a
# single repetition eps-accurate with probability > 2/3 by Chebyshev, and
# the median of t = ceil(8 ln(n/delta)) repetitions amplifies that to
# delta/n per entry.
C_REP = 8.0
C_BUCKET = 6.0


class CountSketchMve:
    """l2 estimator: keeps only the sketched rows plus the hash tables.

    A repetition hashes the d columns into at most d of its b buckets, so
    the row sketches are stored on each repetition's occupied buckets
    only: ``row_sketches[rep, slot, i]`` is row i's sketch on repetition
    rep's slot-th occupied bucket, t x k x n with k <= d the most buckets
    any repetition occupies (the rest stay 0).
    """

    def __init__(self, a: np.ndarray, eps: float, delta: float, seed):
        a = np.asarray(a, dtype=float)
        check_norm(a, 2)
        self.n, self.d = a.shape
        self.t = max(1, math.ceil(C_REP * math.log(self.n / delta)))
        self.b = max(1, math.ceil(C_BUCKET / eps**2))
        rng = np.random.Generator(np.random.Philox(seed))
        self.buckets = rng.integers(0, self.b, size=(self.t, self.d))
        self.signs = rng.integers(0, 2, size=(self.t, self.d)).astype(float) * 2.0 - 1.0
        slots = np.stack([np.unique(hashed, return_inverse=True)[1] for hashed in self.buckets])
        self.k = int(slots.max(initial=0)) + 1
        # repetition rep's slots are numbered from rep * k, so one
        # bincount sketches a vector on every repetition at once
        self.slots = slots + self.k * np.arange(self.t)[:, None]
        acc = np.zeros((self.t * self.k, self.n))
        for rep in range(self.t):
            np.add.at(acc, self.slots[rep], (a * self.signs[rep]).T)
        self.row_sketches = acc.reshape(self.t, self.k, self.n)

    def query(self, x: np.ndarray) -> np.ndarray:
        # x's sketch on the occupied buckets; the others meet only zero
        # row-sketch entries
        signed = (self.signs * np.asarray(x, dtype=float)).ravel()
        xs = np.bincount(self.slots.ravel(), weights=signed, minlength=self.t * self.k)
        estimates = np.einsum("tki,tk->it", self.row_sketches, xs.reshape(self.t, self.k))
        return np.median(estimates, axis=1)


class SampleMve:
    """l1 estimator: keeps the raw matrix and samples coordinates by |x|.

    One index set is drawn per query and shared across rows: each draw
    picks j with probability |x_j| / ||x||_1 and contributes
    ||x||_1 a_j sign(x_j), unbiased for each row's inner product, and the
    per-row union bound does not need independence across rows.
    """

    def __init__(self, a: np.ndarray, eps: float, delta: float, seed):
        a = np.asarray(a, dtype=float)
        check_norm(a, 1)
        self.a = a  # shared reference; callers may reuse one copy across levels
        self.n, self.d = a.shape
        # Hoeffding with sample range 2 ||x||_1 ||a||_inf
        self.sample_count = max(1, math.ceil(2.0 / eps**2 * math.log(2.0 * self.n / delta)))
        self.rng = np.random.Generator(np.random.Philox(seed))

    def query(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        tree = SumTree(np.abs(x))
        if tree.total == 0.0:
            return np.zeros(self.n)
        j = tree.sample_batch(self.rng, self.sample_count)
        return (tree.total / self.sample_count) * (self.a[:, j] @ np.sign(x[j]))


class ExactMve:
    """Deterministic fallback: query returns A @ x exactly."""

    def __init__(self, a: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.n, self.d = self.a.shape

    def query(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x


def mve_init(a: np.ndarray, p: int, eps: float, delta: float, rng_seed):
    """Build the p-appropriate estimator; validates the norm bound."""
    if p == 2:
        return CountSketchMve(a, eps, delta, rng_seed)
    if p == 1:
        return SampleMve(a, eps, delta, rng_seed)
    raise ValueError(f"p must be 1 or 2, got {p}")

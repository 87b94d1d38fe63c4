"""Single-query matrix-vector estimation structures.

Three interchangeable backends answer ``query(x) ~= A x`` with an
l-infinity guarantee relative to ``||A||_{p->inf} ||x||_p``:

* ``CountSketchMve`` (p = 2): per-row CountSketch with median decoding.
* ``SampleMve`` (p = 1): importance sampling of coordinates by |x|.
* ``ExactMve``: stores A and multiplies; the solver's product, which the
  test suites also compare against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NormBoundViolated

_NORM_TOL = 1e-9

# Repetition / bucket constants for CountSketch: the per-repetition
# variance is at most ||a||^2 ||x||^2 / b, so b = ceil(6 / eps^2) makes a
# single repetition eps-accurate with probability > 2/3 by Chebyshev, and
# the median of t = ceil(8 ln(n/delta)) repetitions amplifies that to
# delta/n per entry.
C_REP = 8.0
C_BUCKET = 6.0


def _check_norm(a: np.ndarray, p: int) -> None:
    if a.size == 0:
        return
    nrm = float(np.max(np.linalg.norm(a, axis=1))) if p == 2 else float(np.max(np.abs(a)))
    if nrm > 1.0 + _NORM_TOL:
        raise NormBoundViolated(f"||A||_{{{p}->inf}} = {nrm:.6g} exceeds 1")


class CountSketchMve:
    """l2 estimator: keeps only the sketched rows plus the hash tables."""

    def __init__(self, a: np.ndarray, eps: float, delta: float, seed):
        a = np.asarray(a, dtype=float)
        _check_norm(a, 2)
        self.n, self.d = a.shape
        self.t = max(1, math.ceil(C_REP * math.log(self.n / delta)))
        self.b = max(1, math.ceil(C_BUCKET / eps**2))
        rng = np.random.Generator(np.random.Philox(seed))
        self.buckets = rng.integers(0, self.b, size=(self.t, self.d))
        self.signs = rng.integers(0, 2, size=(self.t, self.d)).astype(float) * 2.0 - 1.0
        self.row_sketches = self._sketch_rows(a)

    @property
    def s(self) -> int:
        return self.t * self.b

    def _sketch_rows(self, a: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, self.t, self.b))
        for rep in range(self.t):
            signed = (a * self.signs[rep]).T  # (d, n)
            acc = np.zeros((self.b, self.n))
            np.add.at(acc, self.buckets[rep], signed)
            out[:, rep, :] = acc.T
        return out

    def sketch_vector(self, x: np.ndarray) -> np.ndarray:
        """Apply the sketch to a d-vector; exactly linear in x."""
        out = np.empty((self.t, self.b))
        for rep in range(self.t):
            out[rep] = np.bincount(
                self.buckets[rep], weights=self.signs[rep] * x, minlength=self.b
            )
        return out

    def query(self, x: np.ndarray) -> np.ndarray:
        xs = self.sketch_vector(np.asarray(x, dtype=float))
        estimates = np.einsum("itb,tb->it", self.row_sketches, xs)
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
        _check_norm(a, 1)
        self.a = a  # shared reference; callers may reuse one copy across levels
        self.n, self.d = a.shape
        # Hoeffding with sample range 2 ||x||_1 ||a||_inf
        self.sample_count = max(1, math.ceil(2.0 / eps**2 * math.log(2.0 * self.n / delta)))
        self.rng = np.random.Generator(np.random.Philox(seed))

    def query(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        l1 = float(np.sum(np.abs(x)))
        if l1 == 0.0:
            return np.zeros(self.n)
        cs = np.cumsum(np.abs(x))
        j = np.searchsorted(cs, self.rng.random(self.sample_count) * l1, side="right")
        j = np.minimum(j, self.d - 1)
        return (l1 / self.sample_count) * (self.a[:, j] @ np.sign(x[j]))


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

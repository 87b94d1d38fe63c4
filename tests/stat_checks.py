"""Statistical test helpers built on scipy, shared by the test suites.

They live beside the tests rather than in the library so that importing
maxmin never loads scipy.
"""

import math

import numpy as np
from scipy import stats


def chi_square_pvalue(counts: np.ndarray, probs: np.ndarray) -> float:
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probs, dtype=float) * counts.sum()
    keep = expected > 0
    res = stats.chisquare(counts[keep], expected[keep])
    return float(res.pvalue)


def one_sided_upper_confidence(samples: np.ndarray, level: float = 0.95) -> float:
    """Normal-approximation upper confidence bound for the mean."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    z = float(stats.norm.ppf(level))
    sd = float(samples.std(ddof=1)) if n > 1 else 0.0
    return float(samples.mean()) + z * sd / math.sqrt(max(n, 1))

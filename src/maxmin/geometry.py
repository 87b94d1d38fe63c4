"""Domain geometry: norms, Bregman divergences, prox/mirror steps.

Two setups are supported.  The *ball* setup works on the unit Euclidean
ball with the squared-distance divergence; the *truncated simplex* setup
works on ``{x in simplex : x_i >= nu}`` with the KL divergence.  Both
divergences satisfy a relaxed triangle inequality with a setup-dependent
constant, which the ball oracle relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InfeasibleInput, NonFinite

# Entries below this are treated as zero for KL purposes and rejected.
_MIN_POSITIVE = 1e-300
_FEAS_TOL = 1e-9
_BALL_PROJ_TOL = 1e-12


class Kind(Enum):
    BALL = "ball"
    TRUNCATED_SIMPLEX = "truncated_simplex"


@dataclass(frozen=True)
class GeometrySetup:
    """Domain descriptor: kind, dimension and simplex truncation level.

    The norm index ``p`` is 2 for the ball and 1 for the simplex; ``nu``
    must be 0 for the ball and in ``[0, 1/(2 dim)]`` for the simplex
    (``nu = 0`` gives the untruncated simplex, on which ``tau`` is
    unbounded).
    """

    kind: Kind
    dim: int
    nu: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InfeasibleInput(f"dim must be positive, got {self.dim}")
        if self.kind is Kind.BALL:
            if self.nu != 0.0:
                raise InfeasibleInput("ball setup requires nu = 0")
        else:
            if self.nu < 0.0 or self.nu > 0.5 / self.dim + _FEAS_TOL:
                raise InfeasibleInput(
                    f"truncated simplex requires 0 <= nu <= 1/(2d); got nu={self.nu}, d={self.dim}"
                )

    @property
    def p(self) -> int:
        return 2 if self.kind is Kind.BALL else 1

    def center(self) -> np.ndarray:
        """A canonical interior starting point (origin / uniform)."""
        if self.kind is Kind.BALL:
            return np.zeros(self.dim)
        return np.full(self.dim, 1.0 / self.dim)


def pnorm(v: np.ndarray, p: int) -> float:
    """||v||_2 for p = 2, else ||v||_1.  It runs several times per gradient query,
    so the l1 sum calls ``np.add.reduce``, where ``np.sum`` ends, without
    ``np.sum``'s Python-level dispatch; the result is bit-identical."""
    if p == 2:
        return math.sqrt(v.dot(v))
    return float(np.add.reduce(np.abs(v)))


def ball_setup(dim: int) -> GeometrySetup:
    return GeometrySetup(Kind.BALL, dim, 0.0)


def simplex_setup(dim: int, nu: float) -> GeometrySetup:
    return GeometrySetup(Kind.TRUNCATED_SIMPLEX, dim, nu)


def bregman(setup: GeometrySetup, x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Divergence V_x(y) of ``y`` from reference point ``x``, along the last
    axis: a float for two points, one value per row for (m, d) batches.

    Ball: ``0.5 * ||x - y||_2^2``.  Simplex: ``sum_i y_i log(y_i / x_i)``
    (KL of y from x), which requires strictly positive entries.  A batch's
    rows give the values the per-row calls give.
    """
    if x.shape != y.shape or x.shape[-1:] != (setup.dim,):
        raise DimensionMismatch(f"expected shape (..., {setup.dim}), got {x.shape} and {y.shape}")
    if setup.kind is Kind.BALL:
        d = x - y
        return 0.5 * np.vecdot(d, d)
    if (x < _MIN_POSITIVE).any() or (y < _MIN_POSITIVE).any():
        raise NonFinite("KL divergence needs strictly positive entries")
    v = (y * (np.log(y) - np.log(x))).sum(axis=-1)
    if not np.isfinite(v).all():
        raise NonFinite("KL divergence evaluated to a non-finite value")
    return v


def tau(setup: GeometrySetup) -> float:
    """Relaxed-triangle-inequality constant of the setup's divergence.

    Ball: 4.  Truncated simplex: ``6 log(1/nu)`` (infinite at nu = 0,
    where no finite constant works).
    """
    if setup.kind is Kind.BALL:
        return 4.0
    if setup.nu == 0.0:
        return math.inf
    return 6.0 * math.log(1.0 / setup.nu)


@lru_cache(maxsize=16)
def _free_mass(d: int, nu: float) -> np.ndarray:
    """1 - nu (d - i) for i = 1..d, read-only: the cache shares it between calls."""
    mass = 1.0 - nu * (d - np.arange(1, d + 1, dtype=float))
    mass.flags.writeable = False
    return mass


def _waterfill(log_xi: np.ndarray, nu: float) -> np.ndarray:
    """Entropic projection of unnormalized weights exp(log_xi) onto the
    nu-truncated simplex: scale the largest entries, clamp the rest to nu.

    Scale invariant in log_xi, so the max is subtracted before
    exponentiating.  Ties are broken by index (stable sort); tied entries
    receive identical treatment either way.  It runs once or twice per
    gradient query, so its reductions call the ufuncs' ``reduce`` and
    ``accumulate``, which ``.all()``, ``.max()`` and ``.cumsum()`` reach
    through a Python-level wrapper; the results are bit-identical.
    """
    if not np.logical_and.reduce(np.isfinite(log_xi)):
        raise NonFinite("water-filling weights overflowed")
    d = log_xi.size
    if d == 2:
        # closed form: the smaller entry 1 / (1 + e^|g|), formed directly so
        # that it keeps its relative precision and clamps to nu exactly, and
        # the larger one 1 minus it; e^-|g| underflows to 0, never overflows
        g = log_xi[1] - log_xi[0]
        e = math.exp(-abs(g))
        small = max(e / (1.0 + e), nu)
        if g >= 0.0:
            return np.array([small, 1.0 - small])
        return np.array([1.0 - small, small])
    xi = log_xi - np.maximum.reduce(log_xi)
    np.exp(xi, out=xi)
    order = (-xi).argsort(kind="stable")
    xs = xi[order]
    cs = np.add.accumulate(xs)
    if nu == 0.0:
        return xi / cs[-1]
    # largest i with xs_i / sum_{j<=i} xs_j >= nu / (1 - nu (d - i))
    ok = xs * _free_mass(d, nu) >= nu * cs
    iprime = int(ok.nonzero()[0][-1]) + 1  # ok[0] always holds for nu <= 1/(2d)
    out = np.empty(d)
    out.fill(nu)
    scale = (1.0 - nu * (d - iprime)) / cs[iprime - 1]
    out[order[:iprime]] = xs[:iprime] * scale
    return out


def prox_step(
    setup: GeometrySetup,
    g: np.ndarray,
    eta: float,
    lam: float,
    y: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """argmin_w  eta*(<g, w> + lam * V_y(w)) + V_x(w)  over the domain.

    Ball: shrink toward ``(x + eta lam y - eta g) / (1 + eta lam)`` and
    project onto the unit ball.  Simplex: multiplicative-weights update
    in log space followed by the water-filling projection onto the
    truncated simplex.
    """
    if not x.shape == y.shape == g.shape == (setup.dim,):
        raise DimensionMismatch(
            f"expected shape ({setup.dim},), got {x.shape}, {y.shape} and gradient {g.shape}"
        )
    if not np.all(np.isfinite(g)):
        raise NonFinite("gradient has non-finite entries")
    if eta <= 0.0 or lam < 0.0:
        raise InfeasibleInput(f"need eta > 0 and lam >= 0, got eta={eta}, lam={lam}")

    el = eta * lam
    if setup.kind is Kind.BALL:
        return _prox_ball(g, eta, el, y, x)
    if np.any(x < _MIN_POSITIVE):
        raise NonFinite("simplex prox needs strictly positive previous iterate")
    if el > 0.0 and np.any(y < _MIN_POSITIVE):
        raise NonFinite("simplex prox needs strictly positive center")
    log_y = np.log(y) if el > 0.0 else None
    return _prox_simplex(g, eta, el, log_y, np.log(x), setup.nu)


def _prox_ball(g: np.ndarray, eta: float, el: float, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    w = (x + el * y - eta * g) / (1.0 + el)
    nrm = math.sqrt(w.dot(w))
    if nrm > 1.0 + _BALL_PROJ_TOL:
        w = w / nrm
    return w


def _prox_simplex(
    g: np.ndarray, eta: float, el: float, log_y, log_x: np.ndarray, nu: float
) -> np.ndarray:
    log_xi = log_x - eta * g
    if el > 0.0:
        log_xi += el * log_y
        log_xi /= 1.0 + el
    return _waterfill(log_xi, nu)


def domain_radius_bound(setup: GeometrySetup) -> float:
    """Conservative R with V_{x0}(x) <= R^2 for every feasible x, from the
    setup's center x0.

    Ball: 1 from the origin.  Simplex: ``sqrt(2 log(1 / min_i x0_i))``
    with min_i x0_i = 1/d at uniform, i.e. sqrt(2 log d).
    """
    if setup.kind is Kind.BALL:
        return 1.0
    return math.sqrt(2.0 * math.log(1.0 / (1.0 / setup.dim)))


def project(setup: GeometrySetup, x: np.ndarray) -> np.ndarray:
    """Cheap feasibility cleanup (not a Bregman projection): ball rescale /
    simplex clamp-and-renormalize.  Used only to undo float drift."""
    if setup.kind is Kind.BALL:
        nrm = math.sqrt(float(np.dot(x, x)))
        if nrm > 1.0 + _BALL_PROJ_TOL:
            return x / nrm
        return x
    w = np.maximum(x, setup.nu if setup.nu > 0.0 else _MIN_POSITIVE)
    if setup.nu > 0.0:
        excess = w - setup.nu
        s = float(excess.sum())
        if s <= 0.0:
            return np.full(setup.dim, 1.0 / setup.dim)
        return setup.nu + excess * ((1.0 - setup.nu * setup.dim) / s)
    return w / float(w.sum())


def model_min(setup: GeometrySetup, g: np.ndarray) -> float:
    """min <g, x> over the unit ball, -||g||_2, or over the full simplex,
    min_j g_j, for the simplex setup.

    The truncated simplex's minimum is larger by up to
    ``nu * d * (mean(g) - min(g))``: a lower bound taken there would hold
    only for the truncated problem, not for the simplex one it stands in
    for.  With a strong-convexity term on the ball the minimum is
    ``ball_model_min``'s."""
    if setup.kind is not Kind.BALL:
        return float(g.min())
    return -math.sqrt(g.dot(g))


def ball_model_min(gx: float, gg: float, xx: float, mu: float) -> tuple[float, float]:
    """The minimum of <g, x> + (mu/2) ||x - x0||^2 over the unit ball, for
    mu > 0, from the scalars gx = <g, x0>, gg = ||g||^2 and xx = ||x0||^2,
    and the divisor s >= 1 of its minimizer (x0 - g/mu) / s: the
    projection of c = x0 - g/mu onto the ball, s = max(1, ||c||)."""
    cc = xx - 2.0 * gx / mu + gg / (mu * mu)
    if cc <= 1.0:
        return gx - 0.5 * gg / mu, 1.0
    s = math.sqrt(cc)
    # <g, c/s> and ||c/s - x0||^2 = 1 - 2 <c, x0>/s + xx
    return (gx - gg / mu) / s + 0.5 * mu * (1.0 - 2.0 * (xx - gx / mu) / s + xx), s

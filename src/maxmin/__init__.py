"""maxmin: ball-oracle accelerated minimization of the maximum of convex
functions over a Euclidean ball or truncated simplex.

The package imports none of its modules; callers import the one they use,
e.g. ``from maxmin import apps``."""

__version__ = "0.1.0"

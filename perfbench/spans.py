"""Outside-in tracing: wrap maxmin functions from the benchmark's side.

Each wrapper records a span (calls, inclusive time, self time) under a
layer name.  A span's self time is its duration minus the durations of
the spans it caused, so the self times of properly nested spans add up
to the root span's duration.  Nothing under ``src/`` is changed: the
wrappers replace module and class attributes while a ``Tracer`` is
active and restore them on exit.

Wrappers go where the caller resolves the name.  ``li_md`` calls
``_prox_ball`` / ``_prox_simplex`` / ``_waterfill`` through the names
``ball_oracle`` imported from ``geometry``, so those are patched in
``ball_oracle``; ``_prox_simplex`` itself looks up ``_waterfill`` in
``geometry``.  ``accelerate`` binds its ``oracle=restricted_oracle``
default at import time, so the traced oracle is passed explicitly by a
wrapper around ``apps.accelerate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0  # work items reported by the ``units`` hook (evals, draws)
    durations: list[float] | None = field(default=None, repr=False)


class Tracer:
    """Span recorder plus the set of hooks it installs on ``enter``."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self._stack: list[list] = []  # [layer name, time covered by child spans]
        self._patched: list[tuple[object, str, object]] = []

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def wrap(
        self,
        name: str,
        fn: Callable,
        keep_durations: bool = False,
        units: Callable[[object], int] | None = None,
        only_under: str | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``only_under`` records the span only when the caller's span has that
        name; other calls run untraced and count toward the caller's self
        time.
        """
        layer = self.layer(name)
        if keep_durations and layer.durations is None:
            layer.durations = []
        stack = self._stack

        def traced(*args, **kwargs):
            if only_under is not None and (not stack or stack[-1][0] != only_under):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                layer.calls += 1
                layer.total_s += dur
                layer.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if layer.durations is not None:
                    layer.durations.append(dur)
            if units is not None:
                layer.units += units(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **opts) -> None:
        """Replace ``owner.attr`` with its span-wrapped version."""
        self.replace(owner, attr, self.wrap(name, vars(owner)[attr], **opts))

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until the tracer exits."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        install_hooks(self)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_total(self) -> float:
        return sum(layer.self_s for layer in self.layers.values())


def _rows(array) -> int:
    return array.shape[0]


def install_hooks(tracer: Tracer) -> None:
    from maxmin import (
        apps,
        ball_oracle,
        estimator,
        geometry,
        maintenance,
        problems,
        sketches,
        sumtree,
    )

    tracer.patch(sumtree.SumTree, "sample_batch", "sumtree.sample_batch", keep_durations=True)
    tracer.patch(sumtree.SumTree, "rebuild", "sumtree.rebuild")
    tracer.patch(sumtree.SumTree, "update", "sumtree.update")
    for family in (problems.LinearMaxProblem, problems.QuadraticMaxProblem):
        tracer.patch(family, "value", "problems.value")
        # the per-round anchor: n values plus n gradients at each rebuild;
        # f_max's own values_all calls stay with their caller
        for attr in ("values_all", "grad_matrix"):
            tracer.patch(family, attr, "problems.anchor", units=_rows, only_under="estimator.init")
    est = estimator.SoftmaxGradientEstimator
    tracer.patch(est, "__init__", "estimator.init")
    tracer.patch(est, "estimate", "estimator.estimate", keep_durations=True,
                 units=lambda res: res[2].draws)
    tracer.patch(maintenance.MatVecMaintainer, "__init__", "maintenance.init")
    tracer.patch(maintenance.MatVecMaintainer, "query", "maintenance.query")
    for backend in (sketches.ExactMve, sketches.CountSketchMve, sketches.SampleMve):
        tracer.patch(backend, "query", "sketches.query")
    tracer.patch(geometry, "_waterfill", "geometry.waterfill")
    tracer.patch(ball_oracle, "_waterfill", "geometry.waterfill")
    tracer.patch(ball_oracle, "_prox_ball", "geometry.prox")
    tracer.patch(ball_oracle, "_prox_simplex", "geometry.prox")
    tracer.patch(ball_oracle, "bregman", "geometry.bregman")
    tracer.patch(ball_oracle, "li_md", "ball_oracle.li_md")
    tracer.patch(apps, "dual_from_samples", "apps.certificate")
    tracer.patch(apps, "polish_dual", "apps.certificate")

    oracle = tracer.wrap("ball_oracle.oracle", ball_oracle.restricted_oracle)
    accelerate = tracer.wrap("accelerator", apps.accelerate)

    def accelerate_with_traced_oracle(*args, **kwargs):
        kwargs.setdefault("oracle", oracle)
        return accelerate(*args, **kwargs)

    tracer.replace(apps, "accelerate", accelerate_with_traced_oracle)

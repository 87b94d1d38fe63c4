"""The benchmark's outside-in tracer, ``perfbench/spans.py``, patches maxmin
functions and methods by name.  This test loads it as it stands and solves
under it, so a rename under ``src/`` fails here instead of crashing a traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from maxmin import apps
from maxmin.problems import MebInstance

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def evals(report):
    return report.func_evals + report.grad_evals


def test_tracer_binds_fires_and_restores(monkeypatch):
    spans = load_spans(monkeypatch)
    inst = MebInstance(np.random.default_rng(1).standard_normal((20, 3)))
    # at eps 0.001 this instance's finest levels run long enough to refresh
    # the maintainer's product (49 refreshes at seed 0); at the benchmark's
    # eps 0.01, and on many instances at 0.001, the certificate stops every
    # level before the query point leaves the refresh radius
    eps = 0.001
    _, _, plain = apps.solve_meb(inst, eps, seed=0)

    tracer = spans.Tracer()
    with tracer:
        patched = list(tracer._patched)
        _, _, traced = apps.solve_meb(inst, eps, seed=0)

    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    for layer in ("ball_oracle.li_md", "maintenance.query", "sketches.query"):
        assert tracer.layer(layer).calls > 0, layer
    assert evals(traced) == evals(plain)
    assert traced.outer_iterations == plain.outer_iterations

"""The benchmark's workloads, ``perfbench/workloads.py``, carry their own
copy of the kind dispatch: ``solve`` picks a front end and ``subgradient``
a family and domain.  This test loads the file as it stands and checks
that each copy gives, bit for bit, what the library's ``solve_instance``
and ``subgradient_control`` give on one pool instance per workload."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from maxmin import apps, io

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# the control runs max(1000, 4 / eps^2) steps; at 0.5 that is 1000
CONTROL_EPS = 0.5


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def hexes(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


def pool_instance(workload):
    return io.instance_from_payload(*workload.rows(0, 0))


@pytest.mark.parametrize("name", ["game-wide", "game-simplex-planted", "meb"])
def test_solve_copy_matches_solve_instance(workloads, name):
    w = workloads.WORKLOADS[name]
    inst = pool_instance(w)
    seed = w.solve_seed(0, 0)
    *point, copy = workloads.solve(inst, w.eps, seed)
    lib, result = apps.solve_instance(inst, w.eps, seed=seed)
    if "center" in result:
        assert hexes(point[0]) == hexes(result["center"])
        assert point[1].hex() == result["radius"].hex()
    else:
        assert hexes(point[0]) == hexes(result["point"])
    assert copy.f_max_value.hex() == lib.f_max_value.hex()
    assert copy.counters_dict() == lib.counters_dict()
    assert copy.stop_reason == lib.stop_reason


@pytest.mark.parametrize("name", ["game-wide", "game-simplex-planted", "meb"])
def test_subgradient_copy_matches_subgradient_control(workloads, name, monkeypatch):
    inst = pool_instance(workloads.WORKLOADS[name])
    runs = []
    real = apps.subgradient_baseline

    def keeping_baseline(*args):
        runs.append(real(*args))
        return runs[-1]

    monkeypatch.setattr(apps, "subgradient_baseline", keeping_baseline)
    # the reference only scales the copy's error, which is not compared
    baseline = workloads.subgradient(inst, CONTROL_EPS, 1.0)
    lib = apps.subgradient_control(inst, CONTROL_EPS)
    copy = runs[0]
    assert baseline.evals == copy.func_evals + copy.grad_evals
    assert (copy.func_evals, copy.grad_evals) == (lib.func_evals, lib.grad_evals)
    assert copy.f_max_value.hex() == lib.f_max_value.hex()
    assert hexes(copy.x) == hexes(lib.x)


@pytest.mark.parametrize("name", ["game-wide", "game-simplex-planted", "meb"])
def test_solve_copy_report_holds_no_array(workloads, name):
    # the harness keeps every report of a run, so a per-point array left
    # in one would be kept once per solve
    w = workloads.WORKLOADS[name]
    *_, report = workloads.solve(pool_instance(w), w.eps, w.solve_seed(0, 0))
    arrays = [key for key, val in report.extras.items() if isinstance(val, np.ndarray)]
    assert arrays == []

"""Tests of the benchmark itself: hook placement, self-time accounting,
the correctness gate, and that tracing leaves the solver's results
unchanged.

    python3 -m pytest perfbench/test_perfbench.py

The workload tests solve each workload's first instance twice, untraced
and traced (about a minute in all).
"""

import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from maxmin import apps, ball_oracle, geometry, io  # noqa: E402
from maxmin.errors import RejectionStall  # noqa: E402
from maxmin.problems import MatrixGameInstance  # noqa: E402

import harness  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# layers each workload must reach; the hook placement named in spans.py
# is what makes the oracle, prox and water-filling layers visible at all
FIRES = {
    "game-wide": ["accelerator", "ball_oracle.oracle", "ball_oracle.li_md", "geometry.prox",
                  "sumtree.sample_batch", "problems.anchor", "apps.certificate"],
    "game-simplex-planted": ["accelerator", "ball_oracle.oracle", "ball_oracle.li_md",
                             "geometry.prox", "geometry.waterfill", "apps.certificate"],
    "meb": ["accelerator", "ball_oracle.oracle", "ball_oracle.li_md", "geometry.prox",
            "maintenance.query", "sketches.query", "sumtree.rebuild"],
}
BALL_WORKLOADS = ("game-wide", "meb")


def _one_instance_pool(name: str) -> harness.Pool:
    wl = workloads.WORKLOADS[name]
    inst = io.instance_from_payload(*wl.rows(0, 0))
    return harness.Pool(wl, 0, [inst], [workloads.reference(inst)], setup=[])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_solve_reproduces_untraced_and_hooks_fire(name):
    pool = _one_instance_pool(name)
    originals = (apps.accelerate, ball_oracle.li_md, ball_oracle._prox_ball, geometry._waterfill)
    plain = pool.solve(0)
    tracer = spans.Tracer()
    with tracer:
        traced = pool.solve(0, tracer)
    assert (apps.accelerate, ball_oracle.li_md, ball_oracle._prox_ball,
            geometry._waterfill) == originals

    p, t = plain.outcome, traced.outcome
    assert (t.evals, t.rounds, t.err) == (p.evals, p.rounds, p.err)
    for layer in FIRES[name]:
        assert tracer.layer(layer).calls > 0, layer
    if name in BALL_WORKLOADS:
        assert tracer.layer("geometry.waterfill").calls == 0
    # accelerate's oracle default is bound at import; the traced oracle
    # must still see every round
    assert tracer.layer("ball_oracle.oracle").calls == t.rounds
    assert abs(tracer.self_total() / traced.wall_s - 1.0) <= harness.COVERAGE_TOL


def test_self_times_of_nested_spans_add_up():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.002))
    only_in_mid = tracer.wrap("guarded", lambda: None, only_under="mid")

    def mid_body():
        leaf()
        only_in_mid()

    mid = tracer.wrap("mid", mid_body)
    root = tracer.wrap("root", lambda: (mid(), leaf(), only_in_mid()))
    root()
    assert tracer.layer("leaf").calls == 2
    assert tracer.layer("guarded").calls == 1
    assert math.isclose(tracer.self_total(), tracer.layer("root").total_s, rel_tol=1e-9)
    assert tracer.layer("mid").self_s < tracer.layer("mid").total_s


def test_speed_probe_samples_during_the_body_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # about one kernel per INTERVAL_S, plus the one taken on exit
    assert len(probe.samples) >= 0.5 / hostspeed.INTERVAL_S / 2
    assert 0.0 < probe.busy_s < wall
    assert math.isclose(probe.ref_s(wall), (wall - probe.busy_s) * probe.factor())


def test_gate_flags_silent_errors_and_accuracy_misses():
    a = np.array([[1.0, -1.0], [0.0, 0.0]])  # v* = 0 on the ball, at x = 0
    inst = MatrixGameInstance(a, "l2l1")
    x = np.array([0.6, 0.0])  # true error 0.6
    honest = workloads.check(inst, 0.1, 0.0, (x, SimpleNamespace(extras={"gap": 0.6})))
    assert not honest.passed and not honest.silent_error
    lying = workloads.check(inst, 0.1, 0.0, (x, SimpleNamespace(extras={"gap": 0.5})))
    assert "certified gap" in lying.silent_error
    outside = workloads.check(inst, 1.0, 0.0, (np.array([2.0, 0.0]), None))
    assert outside.silent_error == "infeasible x"
    raised = workloads.check(inst, 0.1, 0.0, RejectionStall("stalled"))
    assert not raised.passed and not raised.silent_error


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "meb", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""One benchmark run: set up a workload's instance pool, solve it, check
every result, and print the metrics.

Every run starts with an untimed warm-up solve of the first instance at
``workloads.WARMUP_EPS``.  An untraced run (``trace=False``) then reports
the end-to-end metrics.  Its pool is solved once in order, inside a
window of ``seconds`` that starts after the warm-up.  Once the pool is
done, solves cycle through the pool again until the window has passed.
Counts and the pass rate come from the single pass over the pool, so they
depend only on the seed; the timings come from every solve after the
warm-up.  Each timed solve runs under ``hostspeed.Probe``, and
``solve_s`` is the median of the solves' wall times scaled to the
reference host speed; the raw wall median is printed beside it.

A traced run (``trace=True``) solves the pool untraced, then again under
the tracer, then runs the subgradient control; ``seconds`` does not
apply.  It reports the per-layer metrics, as means per solve of the
traced pass.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from maxmin import io
from maxmin.errors import MaxminError

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
COVERAGE_TOL = 0.01


@dataclass
class Solve:
    index: int
    outcome: workloads.Outcome
    wall_s: float
    ref_s: float | None = None  # wall at the reference host speed; probed solves only
    host_factor: float | None = None


@dataclass
class Pool:
    workload: workloads.Workload
    seed: int
    instances: list
    refs: list[float]
    setup: list[dict]  # one setup_probe result per fresh interpreter

    def solve(self, index: int, tracer: spans.Tracer | None = None,
              probe: bool = False) -> Solve:
        """Solve one instance and gate it.  With ``probe`` the host-speed
        probe runs during the solve and the result carries ``ref_s``."""
        inst, wl = self.instances[index], self.workload
        call = workloads.solve if tracer is None else tracer.wrap("solve", workloads.solve)
        with hostspeed.Probe() if probe else contextlib.nullcontext() as speed:
            t0 = perf_counter()
            try:
                result = call(inst, wl.eps, wl.solve_seed(self.seed, index))
            except MaxminError as exc:
                result = exc
            wall = perf_counter() - t0
        solve = Solve(index, workloads.check(inst, wl.eps, self.refs[index], result), wall)
        if speed is not None:
            solve.ref_s, solve.host_factor = speed.ref_s(wall), speed.factor()
        return solve

    def warm_up(self) -> None:
        with contextlib.suppress(MaxminError):
            workloads.solve(self.instances[0], workloads.WARMUP_EPS,
                            self.workload.solve_seed(self.seed, 0))


def prepare(wl: workloads.Workload, seed: int, root: Path) -> Pool:
    """Write the pool as text instances, time fresh-interpreter set-up on the
    first, read every instance back, and compute the exact references."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        paths = []
        for index in range(wl.pool):
            path = work / f"{index}.txt"
            io.save_instance_text(path, *wl.rows(seed, index))
            paths.append(path)
        setup = [_probe_setup(paths[0], root) for _ in range(SETUP_REPEATS)]
        instances = [io.instance_from_payload(*io.load_instance(p)) for p in paths]
    finally:
        shutil.rmtree(work)
    refs = [workloads.reference(inst) for inst in instances]
    return Pool(wl, seed, instances, refs, setup)


def _probe_setup(path: Path, root: Path) -> dict:
    """Set-up times of one fresh interpreter, scaled to the reference host
    speed measured just before and after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out, factor = hostspeed.bracketed(lambda: subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(path)],
        env=env, cwd=root, capture_output=True, text=True, timeout=120, check=True,
    ))
    times = json.loads(out.stdout.splitlines()[-1])
    return {key: value * factor for key, value in times.items()}


def _median_of(setup: list[dict], key: str) -> float:
    return statistics.median(probe[key] for probe in setup)


def _worst_err(solves: list[Solve]) -> float:
    errs = [s.outcome.err for s in solves if math.isfinite(s.outcome.err)]
    return max(errs) if errs else sys.float_info.max


def _silent_errors(solves: list[Solve]) -> list[str]:
    return [f"instance {s.index}: {s.outcome.silent_error}" for s in solves
            if s.outcome.silent_error]


def untraced(pool: Pool, seconds: float) -> tuple[dict, list[Solve], list[str], list[str]]:
    pool.warm_up()
    window = perf_counter()
    first = [pool.solve(i, probe=True) for i in range(len(pool.instances))]
    timed = list(first)
    problems = _silent_errors(first)
    k = 0
    while perf_counter() - window < seconds:
        again = pool.solve(k % len(first), probe=True)
        ref = first[again.index].outcome
        if (again.outcome.evals, again.outcome.rounds) != (ref.evals, ref.rounds):
            problems.append(f"instance {again.index}: a repeated solve changed its counts")
        timed.append(again)
        k += 1
    outcomes = [s.outcome for s in first]
    metrics = {
        "solve_s": (statistics.median(s.ref_s for s in timed), "s", len(timed)),
        "evals": (statistics.median(o.evals for o in outcomes), "count", len(first)),
        "rounds": (statistics.median(o.rounds for o in outcomes), "count", len(first)),
        "pass_rate": (sum(o.passed for o in outcomes) / len(first), "ratio", len(first)),
        "setup_s": (_median_of(pool.setup, "setup_s"), "s", len(pool.setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    notes = [f"raw solve wall median {statistics.median(s.wall_s for s in timed):.4f} s, "
             f"host speed factor median {statistics.median(s.host_factor for s in timed):.4f}"]
    return metrics, first, problems, notes


def _percentile_us(layer: spans.Layer, q: float) -> float:
    return float(np.percentile(layer.durations, q)) * 1e6 if layer.durations else 0.0


def layer_metrics(tracer: spans.Tracer, reports: list) -> dict:
    """Per-solve means of the traced pass, plus ratios measured at the layer."""
    k = len(reports)
    lay = tracer.layer
    rounds = sum(r.outer_iterations for r in reports)
    records = [rec for r in reports for rec in r.iterations]
    est = lay("estimator.estimate")
    metrics = {}
    for name, field in (
        ("sumtree.sample_batch", "calls"), ("sumtree.sample_batch", "self_s"),
        ("sumtree.rebuild", "calls"), ("sumtree.rebuild", "self_s"),
        ("sumtree.update", "calls"),
        ("problems.value", "calls"), ("problems.value", "self_s"),
        ("problems.anchor", "self_s"),
        ("estimator.init", "calls"), ("estimator.init", "self_s"),
        ("estimator.estimate", "calls"), ("estimator.estimate", "self_s"),
        ("maintenance.query", "calls"), ("maintenance.query", "self_s"),
        ("maintenance.init", "self_s"),
        ("sketches.query", "calls"), ("sketches.query", "self_s"),
        ("geometry.waterfill", "calls"), ("geometry.waterfill", "self_s"),
        ("geometry.prox", "self_s"), ("geometry.bregman", "self_s"),
        ("ball_oracle.li_md", "calls"), ("ball_oracle.li_md", "self_s"),
    ):
        unit = "count" if field == "calls" else "s"
        metrics[f"{name}.{field}"] = (getattr(lay(name), field) / k, unit)
    metrics.update({
        "sumtree.sample_batch.p99_us": (_percentile_us(lay("sumtree.sample_batch"), 99), "us"),
        "problems.anchor.evals": (lay("problems.anchor").units / k, "count"),
        "estimator.accept_rate": (est.calls / est.units if est.units else 0.0, "ratio"),
        "estimator.estimate.p50_us": (_percentile_us(est, 50), "us"),
        "estimator.estimate.p99_us": (_percentile_us(est, 99), "us"),
        "maintenance.rebuilds": (sum(r.mvm_rebuilds for r in reports) / k, "count"),
        "ball_oracle.li_md_per_oracle": (
            lay("ball_oracle.li_md").calls / max(lay("ball_oracle.oracle").calls, 1), "ratio"),
        "ball_oracle.bisection_rate": (
            sum(rec.rounds > 0 for rec in records) / max(len(records), 1), "ratio"),
        "ball_oracle.queries_per_round": (
            sum(rec.oracle_queries for rec in records) / max(len(records), 1), "count"),
        "accelerator.self_s": (lay("accelerator").self_s / k, "s"),
        "accelerator.round_us": (lay("accelerator").total_s / max(rounds, 1) * 1e6, "us"),
        "apps.certificate_s": (lay("apps.certificate").total_s / k, "s"),
    })
    return metrics


def traced(pool: Pool) -> tuple[dict, list[Solve], list[str], list[str]]:
    n = len(pool.instances)
    pool.warm_up()
    plain = [pool.solve(i) for i in range(n)]
    tracer = spans.Tracer()
    with tracer:
        solves = [pool.solve(i, tracer) for i in range(n)]
    control = [workloads.subgradient(inst, pool.workload.eps, ref)
               for inst, ref in zip(pool.instances, pool.refs)]

    problems = _silent_errors(plain) + _silent_errors(solves)
    for u, t in zip(plain, solves):
        mine, theirs = (u.outcome.evals, u.outcome.rounds, u.outcome.err), (
            t.outcome.evals, t.outcome.rounds, t.outcome.err)
        if mine != theirs:
            problems.append(f"instance {u.index}: traced {theirs} != untraced {mine}")
    coverage = tracer.self_total() / sum(s.wall_s for s in solves)
    if abs(coverage - 1.0) > COVERAGE_TOL:
        problems.append(f"span self times cover {coverage:.4f} of solve wall")
    overhead = statistics.median(t.wall_s / u.wall_s for u, t in zip(plain, solves)) - 1.0

    reports = [s.outcome.report for s in solves if s.outcome.report is not None]
    metrics = {name: (*vu, n) for name, vu in layer_metrics(tracer, reports).items()}
    metrics.update({
        "apps.solve_err": (_worst_err(solves), "objective", n),
        "apps.subgradient_s": (statistics.median(b.wall_s for b in control), "s", n),
        "apps.subgradient_evals": (statistics.median(b.evals for b in control), "count", n),
        "apps.subgradient_err": (max(b.err for b in control), "objective", n),
        "io.load_s": (_median_of(pool.setup, "load_s"), "s", len(pool.setup)),
        "import_s": (_median_of(pool.setup, "import_s"), "s", len(pool.setup)),
        "trace.overhead": (overhead, "ratio", n),
        "trace.coverage": (coverage, "ratio", n),
    })
    return metrics, solves, problems, []


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from reading repositories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(HERE.parent.parent))
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent, env=env,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
    }


def main(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    wl = workloads.WORKLOADS.get(name)
    if wl is None:
        print(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    pool = prepare(wl, seed, root)
    metrics, solves, problems, notes = traced(pool) if trace else untraced(pool, seconds)

    print(f"# workload {wl.name} seed {seed} eps {wl.eps} pool {len(pool.instances)} "
          f"trace {int(trace)}")
    for s in solves:
        o = s.outcome
        at_ref = "" if s.ref_s is None else f" ({s.ref_s:.3f} s at reference speed)"
        print(f"# solve {s.index}: wall {s.wall_s:.3f} s{at_ref}, evals {o.evals}, "
              f"rounds {o.rounds}, err {o.err:.6g}, {'pass' if o.passed else 'FAIL'} "
              f"{o.note or o.silent_error}")
    for note in notes:
        print(f"# {note}")
    for key, (value, unit, count) in metrics.items():
        print(f"{key:<34} {value:>16.6g} {unit:<9} n={count}")
    print("# machine " + json.dumps(machine()))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    failed = sum(not s.outcome.passed for s in solves)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0

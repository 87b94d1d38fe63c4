"""Batch command-line front end.

Subcommands: ``gen`` (instance generation), ``solve`` (single solve with
a JSON report; the instance file's header fixes the kind), ``selftest``
(statistical property suites), ``bench`` (method/radius/seed sweeps to
CSV, one cell at a time; ``--r-sweep`` sets the query radius of games
and quadratics, is rejected on MEB instances, and leaves the radius-free
subgradient control at one row per seed).  Human logs go to
stderr; ``solve`` prints nothing on stdout except the report path.  Exit
codes: 0 success, 1 a failed ``selftest`` check, 2 validation error,
3 solver failure or a non-finite result (``solve`` records the failing
seed in its report; ``bench`` logs the failing cell's method, r and seed
and writes no CSV).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import io as mio
from .apps import solve_instance, subgradient_control
from .errors import (
    GradientCallbackFailed,
    InvalidParams,
    IterationCapExceeded,
    MaxminError,
    RejectionStall,
)
from .selftests import run_selftests

log = logging.getLogger("maxmin")

_SOLVER_FAILURES = (RejectionStall, IterationCapExceeded, GradientCallbackFailed)
_NON_FINITE = "NonFinite: the result has a non-finite entry"


def _gen_payload(
    kind: str, n: int, d: int, setup: str | None, seed: int
) -> tuple[str, np.ndarray]:
    if setup is not None and kind != "game":
        raise InvalidParams(f"--setup picks a game's norms; it does not apply to {kind}")
    if n < 1 or d < 1:
        raise InvalidParams(f"--n and --d must be >= 1, got --n {n} --d {d}")
    rng = np.random.Generator(np.random.Philox(seed))
    if kind == "game":
        a = rng.standard_normal((d, n))
        if setup == "l1l1":
            a /= np.max(np.abs(a))
            file_kind = "game_l1l1"
        else:
            a /= np.linalg.norm(a, axis=0, keepdims=True)
            file_kind = "game_l2l1"
        return file_kind, a.T  # rows are the columns a_i
    if kind == "meb":
        pts = rng.standard_normal((n, d))
        pts -= pts[0]
        nrm = float(np.max(np.linalg.norm(pts, axis=1)))
        if nrm > 0.0:
            pts /= nrm
        return "meb", pts
    if kind == "quadratics":
        centers = rng.standard_normal((n, d))
        centers *= 0.9 / max(1.0, float(np.max(np.linalg.norm(centers, axis=1))))
        offsets = rng.random(n) * 0.1
        return "quadratics", np.column_stack([centers, offsets])
    raise InvalidParams(f"unknown generator kind {kind!r}")


def cmd_gen(args) -> int:
    file_kind, rows = _gen_payload(args.kind, args.n, args.d, args.setup, args.seed)
    if args.binary:
        mio.save_instance_binary(args.out, file_kind, rows)
    else:
        mio.save_instance_text(args.out, file_kind, rows)
    log.info("wrote %s instance (%d x %d) to %s", file_kind, *rows.shape, args.out)
    print(args.out)
    return 0


def _finite(result: dict) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in result.values())


def cmd_solve(args) -> int:
    inst = mio.instance_from_payload(*mio.load_instance(args.infile))
    doc = {
        "config": {
            "command": "solve",
            "in": str(args.infile),
            "eps": args.eps,
            "seed": args.seed,
        },
        "seed": args.seed,
    }
    t0 = time.perf_counter()
    try:
        report, result = solve_instance(inst, args.eps, seed=args.seed)
        error = "" if _finite(result) else _NON_FINITE
    except _SOLVER_FAILURES as exc:
        error = f"{type(exc).__name__}: {exc}"
    if error:
        doc["status"] = "failed"
        doc["error"] = error
        doc["wall_time"] = time.perf_counter() - t0
        mio.write_report(args.out, doc)
        log.error("solver failed (seed %d): %s", args.seed, error)
        print(args.out)
        return 3

    doc["result"] = result
    doc["status"] = "ok"
    doc["stop_reason"] = report.stop_reason
    doc["counters"] = report.counters_dict()
    doc["wall_time"] = time.perf_counter() - t0
    doc["t_eval"] = report.t_eval
    doc["t_md"] = report.t_md
    if "t_certificate" in report.extras:  # games: the post-hoc gap certificate
        doc["t_certificate"] = report.extras["t_certificate"]
    mio.write_report(args.out, doc)
    print(args.out)
    return 0


def cmd_selftest(args) -> int:
    rows = []
    ok = True
    names = [which.strip() for which in args.which.split(",")]
    for res in run_selftests(names, seed=args.seed, scale=args.scale):
        print(res.row(), file=sys.stderr)
        rows.append(
            {"name": res.name, "passed": res.passed, "observed": res.observed,
             "bound": res.bound}
        )
        ok = ok and res.passed
    if args.out:
        Path(args.out).write_text(json.dumps({"checks": rows, "seed": args.seed}, indent=1))
        print(args.out)
    return 0 if ok else 1


_BENCH_METHODS = ("proposed", "subgradient")


def _bench_cell(inst, method, eps, seed, r_value):
    """One CSV row, and whether the cell's result is finite."""
    t0 = time.perf_counter()
    if method == "proposed":
        rep, result = solve_instance(inst, eps, seed=seed, r=r_value)
    else:
        rep = subgradient_control(inst, eps, seed=seed)
        result = {"value": rep.f_max_value, "point": rep.x}
    wall = time.perf_counter() - t0
    return {
        "method": method,
        "r": "" if r_value is None else r_value,
        "seed": seed,
        "value": rep.f_max_value,
        "gap": rep.extras.get("gap", float("nan")),
        "evaluations": rep.evaluations,
        "iterations": rep.outer_iterations,
        "wall_time": wall,
    }, _finite(result)


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise InvalidParams(f"--repeats must be >= 1, got {args.repeats}")
    inst = mio.instance_from_payload(*mio.load_instance(args.infile))
    methods = [m.strip() for m in args.method.split(",")]
    for m in methods:
        if m not in _BENCH_METHODS:
            raise InvalidParams(f"unknown bench method {m!r}; choose from {_BENCH_METHODS}")
    sweep = [None]
    if args.r_sweep:
        try:
            sweep = [float(v) for v in args.r_sweep.split(",")]
        except ValueError:
            raise InvalidParams(
                f"--r-sweep takes comma-separated numbers, got {args.r_sweep!r}") from None
        # every radius is checked before the first cell is solved
        if not all(math.isfinite(r) and r > 0.0 for r in sweep):
            raise InvalidParams(f"--r-sweep radii must be finite and > 0, got {args.r_sweep!r}")
    seeds = [args.seed + i for i in range(args.repeats)]
    # the subgradient control has no query radius: one row per seed
    cells = [(m, r, s) for m in methods
             for r in (sweep if m == "proposed" else [None]) for s in seeds]
    results = []
    for m, r, s in cells:
        try:
            row, finite = _bench_cell(inst, m, args.eps, s, r)
            error = "" if finite else _NON_FINITE
        except _SOLVER_FAILURES as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error:
            log.error("solver failed (method %s, r %s, seed %d): %s",
                      m, "default" if r is None else r, s, error)
            return 3
        results.append(row)
    fields = ["instance", "method", "r", "seed", "value", "gap", "evaluations",
              "iterations", "wall_time"]
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in results:
            row["instance"] = str(args.infile)
            writer.writerow(row)
    log.info("wrote %d bench rows to %s", len(results), args.out)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maxmin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", choices=["game", "meb", "quadratics"], required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--setup", choices=["l2l1", "l1l1"],
                     help="game norms (default l2l1); games only")
    gen.add_argument("--out", required=True)
    gen.add_argument("--binary", action="store_true")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve one instance, write a JSON report")
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--eps", type=float, required=True)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", required=True)
    solve.set_defaults(func=cmd_solve)

    selftest = sub.add_parser("selftest", help="run statistical property suites")
    selftest.add_argument("--which", default="mve,mvm,sampler,geometry")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--scale", type=float, default=1.0)
    selftest.add_argument("--out", default="")
    selftest.set_defaults(func=cmd_selftest)

    bench = sub.add_parser("bench", help="sweep methods/radii over an instance")
    bench.add_argument("--in", dest="infile", required=True)
    bench.add_argument("--eps", type=float, required=True)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--repeats", type=int, default=1)
    bench.add_argument("--method", default="proposed,subgradient")
    bench.add_argument("--r-sweep", default="")
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise InvalidParams(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except MaxminError as exc:
        log.error("invalid input: %s", exc)
        return 2
    except OSError as exc:
        log.error("io error: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import csv
import json
import math
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from maxmin import accelerator
from maxmin import io as mio
from maxmin.cli import main
from maxmin.errors import InvalidParams, MaxminError
from maxmin.estimator import SoftmaxGradientEstimator


def run_cli(args):
    return main(args)


def read_report(path) -> dict:
    """A report written by ``maxmin solve``, checked for its schema key."""
    doc = json.loads(Path(path).read_text())
    assert doc.get("schema") == mio.REPORT_SCHEMA, doc.get("schema")
    return doc


# wall-clock entries, excluded from byte-identity comparisons
TIMING_KEYS = ("wall_time", "t_eval", "t_md", "t_certificate")


def strip_timing(doc: dict) -> dict:
    """Drop wall-time fields (recursively) for determinism comparisons."""
    out = {}
    for key, val in doc.items():
        if key in TIMING_KEYS:
            continue
        out[key] = strip_timing(val) if isinstance(val, dict) else val
    return out


@contextlib.contextmanager
def _warnings_as_errors():
    """Turn warnings into errors inside a Hypothesis test's body.  A
    ``filterwarnings("error")`` mark would also cover Hypothesis's report
    of a failing example, whose imports warn and end the pytest session."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


# value tokens of a text body: decimals that keep a game's norm bound, and
# non-finite, overflowing or rejected spellings
_VALUE = st.floats(-0.4, 0.4).map(repr)
_ODD = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["-0.0", "nan", "-inf", "1e999", "1_000", "\u0661", "#", '"0.5"',
                     "'0.5'", "0x1p-3", "0.5,", "\x00"]),
)


@st.composite
def _text_instances(draw):
    """A text file with a valid header and a random body: rows of the
    header's width or of one width that disagrees with it, odd tokens,
    ragged and blank rows, and too few or too many rows.  Returns
    ((n, d), the rows' tokens, the file's bytes)."""
    kind = draw(st.sampled_from(sorted(mio._KIND_CODES)))
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    width = draw(st.sampled_from([d, d, d, d - 1, d + 1]))
    row = st.one_of(
        st.lists(_VALUE, min_size=width, max_size=width),
        st.lists(st.one_of(_VALUE, _ODD), min_size=width, max_size=width),
        st.lists(st.one_of(_VALUE, _ODD), max_size=5),
    )
    count = draw(st.sampled_from([n, n, n, n - 1, n + 1, n + 2]))
    tokens = draw(st.lists(row, min_size=count, max_size=count))
    sep = draw(st.sampled_from([" ", " ", "\t", "  ", "\xa0", "\x0c"]))
    lines = [f"MAXMIN v1 {kind} {n} {d}"] + [sep.join(r) for r in tokens]
    return (n, d), tokens, ("\n".join(lines) + "\n").encode()


class TestInstanceFormats:
    def test_text_roundtrip_byte_identical(self, tmp_path):
        """Saving then loading returns the array byte for byte: random rows,
        a signed zero, subnormals, the largest finite values, 0.1 + 0.2, and
        a 10^4 x 20 array shaped like the benchmark's wide game."""
        rng = np.random.default_rng(0)
        awkward = np.array([[-0.0, 5e-324, 2.2250738585072014e-308],
                            [1.7976931348623157e308, 0.1 + 0.2, -1.7976931348623157e308]])
        wide = rng.standard_normal((10_000, 20))
        wide /= np.linalg.norm(wide, axis=1, keepdims=True)
        cases = [("meb", rng.standard_normal((4, 3))), ("meb", awkward), ("game_l2l1", wide)]
        for kind, rows in cases:
            p1 = tmp_path / "a.txt"
            p2 = tmp_path / "b.txt"
            mio.save_instance_text(p1, kind, rows)
            loaded_kind, loaded = mio.load_instance(p1)
            assert loaded_kind == kind
            assert loaded.dtype == np.float64 and loaded.shape == rows.shape
            assert loaded.tobytes() == rows.tobytes()
            mio.save_instance_text(p2, kind, loaded)
            assert p1.read_bytes() == p2.read_bytes()

    def test_text_header(self, tmp_path):
        path = tmp_path / "g.txt"
        mio.save_instance_text(path, "game_l2l1", np.zeros((5, 2)))
        assert path.read_text().splitlines()[0] == "MAXMIN v1 game_l2l1 5 2"

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((6, 4))
        path = tmp_path / "a.bin"
        mio.save_instance_binary(path, "game_l1l1", rows)
        blob = path.read_bytes()
        assert blob[:4] == b"MXMN"
        assert len(blob) == 16 + 6 * 4 * 8
        kind, loaded = mio.load_instance(path)
        assert kind == "game_l1l1"
        np.testing.assert_array_equal(loaded, rows)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOPE v9 game 1 1\n0.0\n")
        with pytest.raises(InvalidParams):
            mio.load_instance(path)

    @pytest.mark.parametrize("blob", [
        b"MXMN\x02\x00",  # binary header cut short
        b"MAXMIN v1 meb 1 2\n1.0 abc\n",  # non-numeric entry
        b"",  # empty file
        b"MAXMIN v1 meb 2 2\n0.0 0.0\n1.0 0.0\n0.0 5.0\n",  # a row past the header's n
        b"MAXMIN v1 meb 0 2\n",  # header n = 0
        b"MAXMIN v1 meb 1 0\n\n",  # header d = 0 with a blank row
        b"MAXMIN v1 meb 2 2\n0.0 0.0\n\n1.0 0.0\n",  # a blank line among the rows
        b"MAXMIN v1 meb 1 2\n1_000 0.0\n",  # a digit separator
        "MAXMIN v1 meb 1 2\n\u0661 0.0\n".encode(),  # a non-ASCII digit
        "MAXMIN v1 meb \u0661 2\n0.0 0.0\n".encode(),  # a non-ASCII digit in the header
        b"MAXMIN v1 meb +1 2\n0.0 0.0\n",  # a signed header size
        b"MAXMIN v1 meb 0_1 2\n0.0 0.0\n",  # a digit separator in the header
    ])
    @pytest.mark.filterwarnings("error")
    def test_malformed_file_rejected(self, tmp_path, blob):
        path = tmp_path / "bad"
        path.write_bytes(blob)
        with pytest.raises(InvalidParams):
            mio.load_instance(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.one_of(
        st.binary(max_size=64),
        st.builds(
            lambda head, tail: head + tail,
            st.sampled_from([b"MXMN", b"MAXMIN v1 meb ", b"MAXMIN v1 game_l1l1 2 ",
                             b"MAXMIN v1 quadratics 1 "]),
            st.binary(max_size=48),
        ),
        st.builds(
            lambda n, d, code, vals: struct.pack("<4sIII", b"MXMN", n, d, code)
            + struct.pack(f"<{len(vals)}d", *vals),
            st.integers(0, 3), st.integers(0, 3), st.integers(0, 4),
            st.lists(st.floats(), max_size=9),
        ),
    ))
    # a game_l2l1 column whose squared norm overflows float64
    @example(blob=struct.pack("<4sIII", b"MXMN", 1, 2, 0) + struct.pack("<2d", 1e200, 1e200))
    def test_any_bytes_load_to_an_instance_or_a_maxmin_error(self, tmp_path, blob):
        path = tmp_path / "fuzz"
        path.write_bytes(blob)
        try:
            with _warnings_as_errors():
                inst = mio.instance_from_payload(*mio.load_instance(path))
        except MaxminError:
            return
        assert inst.n >= 1

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_text_instances())
    def test_text_body_loads_to_the_header_shape_or_a_maxmin_error(self, tmp_path, case):
        """A loaded body has the header's shape and holds, in file order, the
        values float() reads from its tokens, bit for bit; anything else
        raises a MaxminError."""
        (n, d), tokens, blob = case
        path = tmp_path / "body.txt"
        path.write_bytes(blob)
        try:
            with _warnings_as_errors():
                kind, rows = mio.load_instance(path)
                mio.instance_from_payload(kind, rows)
        except MaxminError:
            return
        assert rows.shape == (n, d)
        expected = np.array([float(t) for row in tokens for t in row])
        assert rows.tobytes() == expected.tobytes()

    def test_report_roundtrip_and_schema(self, tmp_path):
        path = tmp_path / "rep.json"
        mio.write_report(path, {"result": {"value": 1.0}, "wall_time": 3.0})
        doc = read_report(path)
        assert doc["schema"] == "maxmin-report/1"
        assert "wall_time" not in strip_timing(doc)


class TestGen:
    def test_game_norms_verified_on_load(self, tmp_path):
        out = tmp_path / "g.txt"
        assert run_cli(["gen", "--kind", "game", "--n", "6", "--d", "4",
                        "--seed", "3", "--setup", "l2l1", "--out", str(out)]) == 0
        kind, rows = mio.load_instance(out)
        inst = mio.instance_from_payload(kind, rows)  # validates norm bound
        assert inst.n == 6 and inst.d == 4
        np.testing.assert_allclose(np.linalg.norm(inst.matrix, axis=0), 1.0, rtol=1e-9)

    def test_meb_single_point_is_zero(self, tmp_path):
        out = tmp_path / "m.txt"
        run_cli(["gen", "--kind", "meb", "--n", "1", "--d", "3", "--out", str(out)])
        _, rows = mio.load_instance(out)
        np.testing.assert_array_equal(rows, np.zeros((1, 3)))

    def test_gen_deterministic_roundtrip(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen", "--kind", "quadratics", "--n", "5", "--d", "3", "--seed", "11"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind", ["meb", "quadratics"])
    def test_setup_rejected_for_non_game_kinds(self, tmp_path, caplog, kind):
        out = tmp_path / "x.txt"
        code = run_cli(["gen", "--kind", kind, "--n", "4", "--d", "2",
                        "--setup", "l1l1", "--out", str(out)])
        assert code == 2
        assert "--setup" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("kind,n,d", [
        ("meb", 0, 3),  # crashed with an IndexError
        ("game", 0, 3),  # wrote a file that solve rejects
        ("game", 3, 0),
        ("quadratics", 3, 0),
    ])
    def test_empty_sizes_rejected(self, tmp_path, caplog, kind, n, d):
        out = tmp_path / "x.txt"
        code = run_cli(["gen", "--kind", kind, "--n", str(n), "--d", str(d),
                        "--out", str(out)])
        assert code == 2
        assert "--n and --d must be >= 1" in caplog.text
        assert not out.exists()


class TestSolve:
    def test_identity_game_exit_zero(self, tmp_path):
        inst = tmp_path / "i2.txt"
        mio.save_instance_text(inst, "game_l1l1", np.eye(2))
        out = tmp_path / "rep.json"
        code = run_cli(["solve", "--in", str(inst), "--eps", "0.1",
                        "--seed", "0", "--out", str(out)])
        assert code == 0
        doc = read_report(out)
        assert doc["status"] == "ok"
        assert doc["result"]["gap"] <= 0.1
        assert doc["counters"]["func_evals"] > 0

    def test_invalid_eps_exit_two(self, tmp_path, caplog):
        """A zero, NaN or schedule-overflowing eps is rejected with a message
        naming eps, on games and on quadratics."""
        game = tmp_path / "i2.txt"
        mio.save_instance_text(game, "game_l1l1", np.eye(2))
        quad = tmp_path / "q.txt"
        run_cli(["gen", "--kind", "quadratics", "--n", "5", "--d", "3", "--out", str(quad)])
        for inst in (game, quad):
            for eps in ("0", "nan", "1e-300"):
                caplog.clear()
                code = run_cli(["solve", "--in", str(inst), "--eps", eps,
                                "--out", str(tmp_path / "r.json")])
                assert code == 2, (inst.name, eps)
                assert "eps" in caplog.text, (inst.name, eps)

    def test_meb_eps_past_float_resolution_exit_two(self, tmp_path, caplog):
        """An eps whose halving levels shrink the radius below float64
        resolution is rejected before any level runs."""
        inst = tmp_path / "m.txt"
        run_cli(["gen", "--kind", "meb", "--n", "5", "--d", "3", "--out", str(inst)])
        out = tmp_path / "r.json"
        caplog.clear()
        assert run_cli(["solve", "--in", str(inst), "--eps", "1e-300", "--out", str(out)]) == 2
        assert "eps = 1e-300" in caplog.text
        assert not out.exists()

    def test_report_fields_and_determinism(self, tmp_path):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 8))
        a /= np.linalg.norm(a, axis=0, keepdims=True)
        inst = tmp_path / "g.txt"
        mio.save_instance_text(inst, "game_l2l1", a.T)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = run_cli(["solve", "--in", str(inst), "--eps", "0.2",
                            "--seed", "7", "--out", str(out)])
            assert code == 0
            outs.append(strip_timing(read_report(out)))
        assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)
        doc = read_report(tmp_path / "r1.json")
        for key in ("schema", "config", "result", "counters", "seed", "status"):
            assert key in doc
        # a game report times its post-hoc certificate beside t_eval and t_md
        assert doc["t_certificate"] > 0.0
        assert "t_certificate" not in outs[0]
        assert all(q > 0 for q in [doc["counters"]["func_evals"]])

    @pytest.mark.parametrize("kind,eps", [("game", "0.2"), ("meb", "0.25")])
    def test_report_counts_sampler_draws(self, tmp_path, kind, eps):
        inst = tmp_path / "i.txt"
        run_cli(["gen", "--kind", kind, "--n", "6", "--d", "3", "--seed", "3",
                 "--out", str(inst)])
        out = tmp_path / "rep.json"
        assert run_cli(["solve", "--in", str(inst), "--eps", eps, "--out", str(out)]) == 0
        counters = read_report(out)["counters"]
        # every oracle query takes exactly one accepted sample
        assert counters["accepted"] == sum(counters["oracle_queries"]) > 0
        assert counters["draws"] >= counters["accepted"]

    @pytest.mark.parametrize("kind,stop_reason", [("game", "certificate"),
                                                  ("quadratics", "threshold"),
                                                  ("quadratics", "certificate")])
    def test_report_names_the_stop_reason(self, tmp_path, monkeypatch, kind, stop_reason):
        if stop_reason == "threshold":
            # an anchor that certifies nothing leaves the weight threshold
            # as the only stop; gamma is planned for that threshold, as for
            # a solve with no certificate level
            monkeypatch.setattr(SoftmaxGradientEstimator, "anchor_gap",
                                lambda self, setup, dual=None: (math.inf, None))
            monkeypatch.setattr(accelerator, "CERTIFICATE_PLAN_FACTOR", math.inf)
        inst = tmp_path / "i.txt"
        run_cli(["gen", "--kind", kind, "--n", "40", "--d", "3", "--seed", "3",
                 "--out", str(inst)])
        out = tmp_path / "rep.json"
        assert run_cli(["solve", "--in", str(inst), "--eps", "0.5", "--out", str(out)]) == 0
        doc = read_report(out)
        assert doc["stop_reason"] == stop_reason
        if kind == "game":
            # the start's gap is below eps: one oracle round, then the
            # certified anchor
            assert doc["counters"]["outer_iterations"] == 1
        if stop_reason == "certificate":
            assert doc["result"]["gap"] <= 0.5
        else:
            # a threshold stop certifies nothing
            assert "gap" not in doc["result"]

    def test_one_point_domain(self, tmp_path):
        """The simplex at d = 1 is the point [1]: solve and bench return it
        after no round, with value max_i a_i."""
        inst = tmp_path / "d1.txt"
        run_cli(["gen", "--kind", "game", "--setup", "l1l1", "--n", "5", "--d", "1",
                 "--seed", "1", "--out", str(inst)])
        _, rows = mio.load_instance(inst)
        out = tmp_path / "rep.json"
        assert run_cli(["solve", "--in", str(inst), "--eps", "0.1", "--out", str(out)]) == 0
        doc = read_report(out)
        assert doc["stop_reason"] == "certificate"
        assert doc["counters"]["outer_iterations"] == 0
        assert doc["result"]["point"] == [1.0]
        assert doc["result"]["value"] == rows.max()
        assert 0.0 <= doc["result"]["gap"] <= 0.1
        csv_out = tmp_path / "bench.csv"
        assert run_cli(["bench", "--in", str(inst), "--eps", "0.1",
                        "--method", "proposed,subgradient", "--out", str(csv_out)]) == 0
        with open(csv_out) as fh:
            bench_rows = list(csv.DictReader(fh))
        assert [r["method"] for r in bench_rows] == ["proposed", "subgradient"]
        for r in bench_rows:
            assert float(r["value"]) == rows.max()
            assert int(r["iterations"]) == 0

    def test_non_finite_instance_exit_two(self, tmp_path, caplog):
        # a NaN entry, and finite entries that overflow once the points are
        # normalized or the centers' gradient bound is taken, each exit 2
        # with a message that names the field
        cases = [
            ("game_l2l1", [[0.5, np.nan], [0.0, 1.0]], "payoff matrix"),
            ("meb", [[1e308], [-1e308]], "points"),
            ("quadratics", [[1e300, 0.0]], "centers"),
        ]
        out = tmp_path / "rep.json"
        for kind, rows, name in cases:
            inst = tmp_path / f"{kind}.txt"
            mio.save_instance_text(inst, kind, np.array(rows))
            caplog.clear()
            assert run_cli(["solve", "--in", str(inst), "--eps", "0.1", "--out", str(out)]) == 2
            assert not out.exists()
            assert f"invalid input: {name} " in caplog.text

    def test_empty_header_exit_two_without_traceback_or_warning(self, tmp_path):
        inst = tmp_path / "empty.txt"
        inst.write_text("MAXMIN v1 game_l2l1 0 3\n")
        out = tmp_path / "rep.json"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "maxmin.cli", "solve", "--in", str(inst),
             "--eps", "0.1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "invalid input" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists()

    def test_profile_flag_removed(self, tmp_path):
        # the oracle has one set of constants: no flag selects another, and
        # the report does not record one
        inst = tmp_path / "i2.txt"
        mio.save_instance_text(inst, "game_l1l1", np.eye(2))
        out = tmp_path / "out"
        for command in ("solve", "bench"):
            with pytest.raises(SystemExit) as exc:
                run_cli([command, "--in", str(inst), "--eps", "0.2",
                         "--profile", "practical", "--out", str(out)])
            assert exc.value.code == 2
            assert not out.exists()
        assert run_cli(["solve", "--in", str(inst), "--eps", "0.2", "--out", str(out)]) == 0
        assert "profile" not in read_report(out)["config"]

    def test_stdout_carries_only_report_path(self, tmp_path, capsys):
        inst = tmp_path / "i2.txt"
        mio.save_instance_text(inst, "game_l1l1", np.eye(2))
        out = tmp_path / "rep.json"
        run_cli(["solve", "--in", str(inst), "--eps", "0.2", "--out", str(out)])
        captured = capsys.readouterr()
        assert captured.out.strip() == str(out)


class TestSelftestAndBench:
    def test_selftest_small_scale(self, tmp_path, capsys):
        out = tmp_path / "st.json"
        code = run_cli(["selftest", "--which", "geometry", "--scale", "0.1",
                        "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(row["passed"] for row in doc["checks"])

    def test_sampler_selftest_pinned(self, tmp_path):
        """The sampler check's observed TV distance and acceptance rate at
        seed 0, bit for bit: a change to its sampler stream's key
        (seed, (202,)) moves both, and so does a change to the sketch
        chain's answer at the check's query point, which carries a sketch
        error at the check's d = 100."""
        out = tmp_path / "st.json"
        code = run_cli(["selftest", "--which", "sampler", "--seed", "0", "--scale", "0.05",
                        "--out", str(out)])
        assert code == 0
        observed = [row["observed"].hex() for row in json.loads(out.read_text())["checks"]]
        assert observed == ["0x1.acb15253de91cp-6", "0x1.7a238b8882147p-2"]

    def test_bench_csv_rows(self, tmp_path):
        inst = tmp_path / "g.txt"
        run_cli(["gen", "--kind", "game", "--n", "6", "--d", "4", "--seed", "1",
                 "--out", str(inst)])
        out = tmp_path / "bench.csv"
        code = run_cli(["bench", "--in", str(inst), "--eps", "0.2", "--seed", "0",
                        "--repeats", "2", "--method", "proposed,subgradient",
                        "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 methods x 2 seeds
        assert {r["method"] for r in rows} == {"proposed", "subgradient"}
        for r in rows:
            assert float(r["evaluations"]) > 0
            assert float(r["wall_time"]) > 0
        # 1000 steps, each n = 6 values plus one gradient
        assert {int(r["evaluations"]) for r in rows if r["method"] == "subgradient"} == {7000}
        # the subgradient control draws no random numbers: both seeds'
        # rows are the same run
        control = [(r["value"], r["gap"], r["evaluations"]) for r in rows
                   if r["method"] == "subgradient"]
        assert len(control) == 2 and control[0] == control[1]

    def test_bench_r_sweep(self, tmp_path):
        inst = tmp_path / "g.txt"
        run_cli(["gen", "--kind", "game", "--n", "5", "--d", "3", "--seed", "2",
                 "--out", str(inst)])
        out = tmp_path / "sweep.csv"
        code = run_cli(["bench", "--in", str(inst), "--eps", "0.25", "--method",
                        "proposed", "--r-sweep", "0.4,0.2", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["r"] for r in rows] == ["0.4", "0.2"]
        assert all(math.isfinite(float(r["gap"])) for r in rows)

    def test_bench_r_sweep_runs_subgradient_once_per_seed(self, tmp_path):
        inst = tmp_path / "g.txt"
        run_cli(["gen", "--kind", "game", "--n", "5", "--d", "3", "--seed", "2",
                 "--out", str(inst)])
        out = tmp_path / "sweep.csv"
        code = run_cli(["bench", "--in", str(inst), "--eps", "0.25", "--repeats", "2",
                        "--method", "proposed,subgradient", "--r-sweep", "0.4,0.2",
                        "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for seed in ("0", "1"):
            cells = [(r["method"], r["r"]) for r in rows if r["seed"] == seed]
            assert sorted(cells) == [("proposed", "0.2"), ("proposed", "0.4"),
                                     ("subgradient", "")]

    def test_bench_r_sweep_applies_to_quadratics(self, tmp_path):
        inst = tmp_path / "q.txt"
        run_cli(["gen", "--kind", "quadratics", "--n", "5", "--d", "3", "--seed", "2",
                 "--out", str(inst)])
        out = tmp_path / "sweep.csv"
        code = run_cli(["bench", "--in", str(inst), "--eps", "0.25", "--method",
                        "proposed", "--r-sweep", "0.3,0.1", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["r"] for r in rows] == ["0.3", "0.1"]
        assert rows[0]["evaluations"] != rows[1]["evaluations"]

    @pytest.mark.parametrize("kind,flags", [
        ("meb", ["--r-sweep", "0.4,0.2"]),  # the MEB recursion sets its own radius
        ("game", ["--method", "bogus"]),
        ("game", ["--r-sweep", "abc"]),
        ("game", ["--r-sweep", "0.2,,0.1"]),
        ("game", ["--r-sweep", "0"]),
        ("game", ["--r-sweep", "-0.2"]),
        ("game", ["--r-sweep", "nan"]),
        ("quadratics", ["--r-sweep", "0"]),
        # a later --eps overrides the 0.25 below; the subgradient control
        # sizes its run from eps too
        ("quadratics", ["--eps", "nan"]),
        ("quadratics", ["--eps", "1e-300"]),
        ("quadratics", ["--method", "subgradient", "--eps", "0"]),
        ("quadratics", ["--method", "subgradient", "--eps", "nan"]),
        ("quadratics", ["--method", "subgradient", "--eps", "1e-300"]),
    ])
    def test_bench_rejects_flags_it_cannot_apply(self, tmp_path, kind, flags):
        inst = tmp_path / "i.txt"
        run_cli(["gen", "--kind", kind, "--n", "5", "--d", "3", "--out", str(inst)])
        out = tmp_path / "bench.csv"
        code = run_cli(["bench", "--in", str(inst), "--eps", "0.25", *flags,
                        "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "selftest"])
    def test_bad_last_value_runs_nothing(self, tmp_path, monkeypatch, command):
        import maxmin.cli as cli_mod
        import maxmin.selftests as selftests_mod

        runs = []

        def counting(real):
            def run(*args, **kwargs):
                runs.append(1)
                return real(*args, **kwargs)
            return run

        inst = tmp_path / "g.txt"
        run_cli(["gen", "--kind", "game", "--n", "5", "--d", "3", "--out", str(inst)])
        out = tmp_path / "out"
        if command == "bench":
            monkeypatch.setattr(cli_mod, "solve_instance", counting(cli_mod.solve_instance))
            args = ["bench", "--in", str(inst), "--eps", "0.25", "--method", "proposed",
                    "--r-sweep", "0.4,0"]
        else:
            monkeypatch.setattr(selftests_mod, "geometry_fuzz_check",
                                counting(selftests_mod.geometry_fuzz_check))
            args = ["selftest", "--which", "geometry,bogus", "--scale", "0.1"]
        assert run_cli([*args, "--out", str(out)]) == 2
        assert runs == []
        assert not out.exists()

    def test_selftest_rejects_unknown_suite(self, tmp_path, caplog):
        out = tmp_path / "st.json"
        code = run_cli(["selftest", "--which", "bogus", "--out", str(out)])
        assert code == 2
        assert "unknown selftest 'bogus'" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_selftest_rejects_non_finite_scale(self, tmp_path, caplog, scale):
        out = tmp_path / "st.json"
        code = run_cli(["selftest", "--which", "mve", "--scale", scale, "--out", str(out)])
        assert code == 2
        assert "scale must be finite and positive" in caplog.text
        assert not out.exists()

    def test_bench_rejects_zero_repeats(self, tmp_path, caplog):
        inst = tmp_path / "g.txt"
        run_cli(["gen", "--kind", "game", "--n", "5", "--d", "3", "--out", str(inst)])
        out = tmp_path / "bench.csv"
        code = run_cli(["bench", "--in", str(inst), "--eps", "0.25", "--repeats", "0",
                        "--out", str(out)])
        assert code == 2
        assert "--repeats must be >= 1" in caplog.text
        assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "solve", "selftest", "bench"])
def test_negative_seed_rejected(tmp_path, caplog, command):
    inst = tmp_path / "g.txt"
    run_cli(["gen", "--kind", "game", "--n", "4", "--d", "3", "--out", str(inst)])
    out = tmp_path / "out"
    args = {
        "gen": ["--kind", "game", "--n", "4", "--d", "3"],
        "solve": ["--in", str(inst), "--eps", "0.5"],
        "selftest": ["--which", "geometry", "--scale", "0.1"],
        "bench": ["--in", str(inst), "--eps", "0.5"],
    }[command]
    code = run_cli([command, *args, "--seed", "-1", "--out", str(out)])
    assert code == 2
    assert "--seed must be >= 0" in caplog.text
    assert not out.exists()


class TestFailurePath:
    def test_solver_failure_exit_three_with_seed(self, tmp_path, monkeypatch):
        import maxmin.apps as apps_mod
        from maxmin.errors import RejectionStall

        def exploding(*args, **kwargs):
            raise RejectionStall("good event failed")

        monkeypatch.setattr(apps_mod, "solve_matrix_game", exploding)
        inst = tmp_path / "g.txt"
        mio.save_instance_text(inst, "game_l1l1", np.eye(2))
        out = tmp_path / "rep.json"
        code = run_cli(["solve", "--in", str(inst), "--eps", "0.1", "--seed", "17",
                        "--out", str(out)])
        assert code == 3
        doc = read_report(out)
        assert doc["status"] == "failed"
        assert doc["seed"] == 17
        assert "RejectionStall" in doc["error"]

    def test_bench_solver_failure_exit_three_with_cell(self, tmp_path, monkeypatch, caplog):
        import maxmin.cli as cli_mod
        from maxmin.errors import RejectionStall

        def exploding(*args, **kwargs):
            raise RejectionStall("good event failed")

        monkeypatch.setattr(cli_mod, "solve_instance", exploding)
        inst = tmp_path / "g.txt"
        mio.save_instance_text(inst, "game_l1l1", np.eye(2))
        out = tmp_path / "bench.csv"
        code = run_cli(["bench", "--in", str(inst), "--eps", "0.1", "--seed", "17",
                        "--method", "proposed", "--r-sweep", "0.25", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert "RejectionStall" in caplog.text
        assert "method proposed, r 0.25, seed 17" in caplog.text

    def test_bench_non_finite_cell_exit_three(self, tmp_path, monkeypatch, caplog):
        import maxmin.cli as cli_mod

        def nan_solve(inst, eps, seed=0, r=None):
            rep = SimpleNamespace(f_max_value=float("nan"), extras={"gap": float("nan")},
                                  evaluations=0, outer_iterations=0)
            return rep, {"value": float("nan"), "gap": float("nan"), "point": [0.0, 0.0]}

        monkeypatch.setattr(cli_mod, "solve_instance", nan_solve)
        inst = tmp_path / "g.txt"
        mio.save_instance_text(inst, "game_l1l1", np.eye(2))
        out = tmp_path / "bench.csv"
        code = run_cli(["bench", "--in", str(inst), "--eps", "0.1", "--seed", "4",
                        "--repeats", "2", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert "NonFinite" in caplog.text
        assert "method proposed, r default, seed 4" in caplog.text

    def test_non_finite_result_exit_three(self, tmp_path, monkeypatch):
        import maxmin.apps as apps_mod

        def nan_game(inst, eps, **kwargs):
            rep = SimpleNamespace(f_max_value=float("nan"), extras={"gap": float("nan")})
            return np.full(inst.d, np.nan), rep

        monkeypatch.setattr(apps_mod, "solve_matrix_game", nan_game)
        inst = tmp_path / "g.txt"
        mio.save_instance_text(inst, "game_l1l1", np.eye(2))
        out = tmp_path / "rep.json"
        code = run_cli(["solve", "--in", str(inst), "--eps", "0.1", "--seed", "5",
                        "--out", str(out)])
        assert code == 3
        doc = read_report(out)
        assert doc["status"] == "failed"
        assert doc["seed"] == 5
        assert "NonFinite" in doc["error"]


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "maxmin.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "gen" in proc.stdout and "solve" in proc.stdout

    def test_import_loads_no_scipy(self):
        """The library runs on numpy alone; only the tests use scipy."""
        code = (
            "import sys, maxmin, maxmin.io, maxmin.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_import_loads_no_module(self):
        """``import maxmin`` runs no submodule; callers import the module they use."""
        code = (
            "import sys, maxmin; "
            "print(sorted(m for m in sys.modules if m.startswith('maxmin.')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

"""Instance file formats and the JSON report schema.

Text instances are diff-able: a header line ``MAXMIN v1 <kind> <n> <d>``
with n, d >= 1 written in ASCII digits alone (no sign, digit separator
or other digit), followed by exactly n rows of d values, one per line
(games store the columns a_i as rows; quadratics append the offset as a
trailing column).  A value is an ASCII decimal float as numpy's text
reader reads it (``-0.0``, ``1e-300``, ``nan``, ``inf``); values are
separated by whitespace; there are no comments, quotes, digit
separators (``1_000``) or non-ASCII digits.  Non-finite values parse,
and the instance checks reject them.  The binary format holds the same
payload as little-endian float64 after a 16-byte header: magic
``MXMN``, u32 n, u32 d, u32 kind code.

Reports are JSON documents with a declared ``schema`` key; numeric
arrays are kept flat.  Wall-time fields are the only nondeterministic
content for a fixed seed and config.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import InvalidParams
from .problems import MatrixGameInstance, MebInstance, QuadraticMaxProblem

REPORT_SCHEMA = "maxmin-report/1"
_MAGIC = b"MXMN"
_KIND_CODES = {"game_l2l1": 0, "game_l1l1": 1, "meb": 2, "quadratics": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


def _payload(kind: str, rows: np.ndarray) -> np.ndarray:
    """The rows to write as a float array, after checking kind and shape."""
    if kind not in _KIND_CODES:
        raise InvalidParams(f"unknown instance kind {kind!r}")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise InvalidParams("instance payload must be a 2-D array")
    return rows


def save_instance_text(path, kind: str, rows: np.ndarray) -> None:
    rows = _payload(kind, rows)
    n, d = rows.shape
    lines = [f"MAXMIN v1 {kind} {n} {d}"]
    for row in rows:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def save_instance_binary(path, kind: str, rows: np.ndarray) -> None:
    rows = _payload(kind, rows)
    n, d = rows.shape
    header = struct.pack("<4sIII", _MAGIC, n, d, _KIND_CODES[kind])
    Path(path).write_bytes(header + rows.astype("<f8").tobytes())


def load_instance(path) -> tuple[str, np.ndarray]:
    """Load either format, sniffing the binary magic; a malformed file
    raises InvalidParams."""
    blob = Path(path).read_bytes()
    try:
        return _parse_instance(blob)
    except (struct.error, ValueError, IndexError) as exc:
        raise InvalidParams(f"malformed instance file {str(path)!r}: {exc}") from exc


def _parse_instance(blob: bytes) -> tuple[str, np.ndarray]:
    if blob[:4] == _MAGIC:
        n, d, code = struct.unpack("<III", blob[4:16])
        if code not in _KIND_NAMES:
            raise InvalidParams(f"unknown binary kind code {code}")
        rows = np.frombuffer(blob[16:], dtype="<f8")
        if rows.size != n * d:
            raise InvalidParams(f"expected {n * d} values, found {rows.size}")
        return _KIND_NAMES[code], rows.reshape(n, d).astype(float)
    text = blob.decode("utf-8").strip().splitlines()
    head = text[0].split()
    if len(head) != 5 or head[0] != "MAXMIN" or head[1] != "v1":
        raise InvalidParams(f"bad instance header: {text[0]!r}")
    kind, sizes = head[2], head[3:]
    if not all(size.isascii() and size.isdigit() for size in sizes):
        raise InvalidParams(f"header sizes must be ASCII digits: {text[0]!r}")
    n, d = map(int, sizes)
    if kind not in _KIND_CODES:
        raise InvalidParams(f"unknown instance kind {kind!r}")
    if n < 1 or d < 1:
        raise InvalidParams(f"header sizes n = {n} and d = {d} must be >= 1")
    body = text[1 : n + 1]
    # the reader warns on a body with no data, so that case is caught here
    if not any(line.strip() for line in body):
        raise InvalidParams("no rows after the header")
    rows = np.loadtxt(body, comments=None, ndmin=2)
    if rows.shape != (n, d):
        raise InvalidParams(f"expected ({n}, {d}) payload, found {rows.shape}")
    if any(line.strip() for line in text[n + 1 :]):
        raise InvalidParams(f"more than the header's {n} rows")
    return kind, rows


def instance_from_payload(kind: str, rows: np.ndarray):
    """Materialize the typed instance (validating its norm bounds)."""
    if kind == "game_l2l1":
        return MatrixGameInstance(rows.T, "l2l1")
    if kind == "game_l1l1":
        return MatrixGameInstance(rows.T, "l1l1")
    if kind == "meb":
        return MebInstance(rows)
    if kind == "quadratics":
        if rows.shape[1] < 2:
            raise InvalidParams("quadratics rows need a center and an offset")
        return QuadraticMaxProblem(rows[:, :-1], rows[:, -1])
    raise InvalidParams(f"unknown instance kind {kind!r}")


def write_report(path, report: dict) -> None:
    doc = dict(report)
    doc["schema"] = REPORT_SCHEMA
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")

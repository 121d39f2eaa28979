"""CSV formats for datasets, test grids, and predictions.

Dataset files carry the header ``fidelity,x0,...,x{D-1},y`` with fidelity 1
(low) or 2 (high); values are written with 17 significant digits so that
doubles round-trip losslessly. Files are UTF-8 with LF line endings.
"""

import csv
import math
from io import StringIO

import numpy as np

from .mfgp import Dataset

__all__ = [
    "write_dataset",
    "read_dataset",
    "write_test_grid",
    "read_test_grid",
    "write_predictions",
    "read_queries",
]


def _inputs(d_in):
    return [f"x{d}" for d in range(d_in)]


def _header(d_in):
    return ["fidelity"] + _inputs(d_in) + ["y"]


def _check_header(path, header, expected):
    """Raise unless header is expected(D) for its own D >= 1, the input
    columns x0,...,x{D-1} in order; the message names the expected header."""
    d_in = len(header) - len(expected(0))
    if d_in < 1 or header != expected(d_in):
        want = ",".join(expected(max(d_in, 1)))
        raise ValueError(f"{path}: expected header '{want}', got '{','.join(header)}'")
    return d_in


def _write_csv(path, header, blocks):
    """Write the header and the column-stacked blocks (1-D blocks are single
    columns), one "%.17g" field per value ("%.17g" % 1.0 is "1", so the
    fidelity column is a float column), in one write."""
    rows = [len(b) for b in blocks]
    if len(set(rows)) > 1:
        raise ValueError(f"{path}: columns to write have differing row counts {rows}")
    table = np.column_stack(blocks)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n" + "".join(line % tuple(r) for r in table.tolist()))


def write_dataset(path, data):
    fid = np.repeat([1.0, 2.0], [data.n1, data.n2])
    _write_csv(path, _header(data.d_in), [fid, np.vstack([data.x1, data.x2]), data.f])


def _read(path):
    """The header row of a CSV file and the text after it."""
    with open(path, encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        body = fh.read()
    if header is None:
        raise ValueError(f"{path}: empty file")
    return header, body


def _fidelity_rows(path, header, body):
    """Check a dataset-format header and parse the body's rows; messages
    name the path and the line. StringIO splits the body on "\n" only, as
    iterating the newline-translated file does."""
    d_in = _check_header(path, header, _header)
    rows = []
    for lineno, row in enumerate(csv.reader(StringIO(body)), start=2):
        if not row:
            continue
        if len(row) != d_in + 2:
            raise ValueError(f"{path}:{lineno}: expected {d_in + 2} fields, got {len(row)}")
        try:
            fid = int(row[0])
            vals = [float(v) for v in row[1:]]
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        if fid not in (1, 2):
            raise ValueError(f"{path}:{lineno}: fidelity must be 1 or 2, got {fid}")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{path}:{lineno}: non-finite value")
        rows.append((fid, vals[:-1], vals[-1]))
    return rows, d_in


def read_dataset(path):
    rows, d_in = _fidelity_rows(path, *_read(path))
    x1 = np.array([x for f, x, _ in rows if f == 1]).reshape(-1, d_in)
    f1 = np.array([y for f, _, y in rows if f == 1])
    x2 = np.array([x for f, x, _ in rows if f == 2]).reshape(-1, d_in)
    f2 = np.array([y for f, _, y in rows if f == 2])
    if x1.shape[0] == 0 or x2.shape[0] == 0:
        raise ValueError(f"{path}: need rows at both fidelity levels")
    return Dataset(x1, f1, x2, f2)


def write_test_grid(path, X, truth):
    """Test grid: high-fidelity truth rows in the dataset CSV format."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    truth = np.asarray(truth, dtype=float).ravel()
    _write_csv(path, _header(X.shape[1]), [np.full_like(truth, 2.0), X, truth])


def read_test_grid(path):
    rows, d_in = _fidelity_rows(path, *_read(path))
    hi = [(x, y) for f, x, y in rows if f == 2]
    if not hi:
        raise ValueError(f"{path}: no high-fidelity rows")
    X = np.array([x for x, _ in hi]).reshape(-1, d_in)
    truth = np.array([y for _, y in hi])
    return X, truth


def read_queries(path):
    """Query file: either x0,...,x{D-1} columns or a dataset/test CSV, every
    row of which is a query, with at least one row, as many fields per row
    as the header names, and only finite values."""
    header, body = _read(path)
    if header[:1] != ["fidelity"]:
        _check_header(path, header, _inputs)
    if not body.strip():
        raise ValueError(f"{path}: no query rows")
    if header[0] == "fidelity":
        rows, d_in = _fidelity_rows(path, header, body)
        X = np.array([x for _, x, _ in rows]).reshape(-1, d_in)
    else:
        try:
            X = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
        except ValueError as e:  # unparsable values, or rows of differing widths
            raise ValueError(f"{path}: {e}") from None
        if X.shape[1] != len(header):
            raise ValueError(f"{path}: rows have {X.shape[1]} fields, the header names {len(header)}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{path}: queries contain non-finite values")
    return X


def write_predictions(path, X, mean, std, features):
    """Predictions CSV: inputs, posterior mean/std, learned features h(x)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    features = np.atleast_2d(np.asarray(features, dtype=float))
    cols = (
        _inputs(X.shape[1])
        + ["mean", "std"]
        + [f"h{d}" for d in range(features.shape[1])]
    )
    _write_csv(path, cols, [X, mean, std, features])

"""CSV formats for datasets, test grids, and predictions.

Dataset files carry the header ``fidelity,x0,...,x{D-1},y`` with fidelity 1
(low) or 2 (high); values are written with 17 significant digits so that
doubles round-trip losslessly. Files are UTF-8 with LF line endings.
"""

import csv

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


def _fmt(v):
    return f"{float(v):.17g}"


def _header(d_in):
    return ["fidelity"] + [f"x{d}" for d in range(d_in)] + ["y"]


def _open_writer(path):
    fh = open(path, "w", encoding="utf-8", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def write_dataset(path, data):
    fh, w = _open_writer(path)
    with fh:
        w.writerow(_header(data.d_in))
        for xi, yi in zip(data.x1, data.f1):
            w.writerow(["1"] + [_fmt(v) for v in xi] + [_fmt(yi)])
        for xi, yi in zip(data.x2, data.f2):
            w.writerow(["2"] + [_fmt(v) for v in xi] + [_fmt(yi)])


def _read_fidelity_rows(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "fidelity" or header[-1] != "y":
            raise ValueError(f"{path}: expected header 'fidelity,x0,...,y', got {header}")
        d_in = len(header) - 2
        for lineno, row in enumerate(reader, start=2):
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
            rows.append((fid, vals[:-1], vals[-1]))
    return rows, d_in


def read_dataset(path):
    rows, d_in = _read_fidelity_rows(path)
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
    fh, w = _open_writer(path)
    with fh:
        w.writerow(_header(X.shape[1]))
        for xi, yi in zip(X, np.asarray(truth, dtype=float).ravel()):
            w.writerow(["2"] + [_fmt(v) for v in xi] + [_fmt(yi)])


def read_test_grid(path):
    rows, d_in = _read_fidelity_rows(path)
    hi = [(x, y) for f, x, y in rows if f == 2]
    if not hi:
        raise ValueError(f"{path}: no high-fidelity rows")
    X = np.array([x for x, _ in hi]).reshape(-1, d_in)
    truth = np.array([y for _, y in hi])
    return X, truth


def read_queries(path):
    """Query file: either x0,...,x{D-1} columns or a dataset/test CSV."""
    with open(path, encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    if header[0] == "fidelity":
        X, _ = read_test_grid(path)
        return X
    if not all(h.startswith("x") for h in header):
        raise ValueError(f"{path}: expected columns x0,...,x{{D-1}}, got {header}")
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return body[:, : len(header)]


def write_predictions(path, X, mean, std, features):
    """Predictions CSV: inputs, posterior mean/std, learned features h(x)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    features = np.atleast_2d(np.asarray(features, dtype=float))
    cols = (
        [f"x{d}" for d in range(X.shape[1])]
        + ["mean", "std"]
        + [f"h{d}" for d in range(features.shape[1])]
    )
    fh, w = _open_writer(path)
    with fh:
        w.writerow(cols)
        for xi, m, s, hi in zip(X, mean, std, features):
            w.writerow([_fmt(v) for v in (*xi, m, s, *hi)])

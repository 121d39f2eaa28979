import csv
import dataclasses
import io as stdio
import re

import numpy as np
import pytest

from dmfgp import io, mfgp, model
from dmfgp.feature_map import LayerSpec, identity_map
from dmfgp.kernel import KernelParams
from dmfgp.mfgp import Dataset
from dmfgp.trainer import TrainConfig, train

from test_trainer import ARCH, prior_data


def trained_nll(fitted):
    """NLL of a fitted model's centred targets: the objective it was trained on."""
    return mfgp.nll(fitted.params, fitted.data.centered(fitted.center_mean, fitted.center_scale))


@pytest.fixture(scope="module")
def fitted():
    data = prior_data(0)
    report = train(data, ARCH, TrainConfig(seed=0, restarts=2, max_iterations=100))
    return model.from_report(report, data, {"note": "fixture"})


class TestDatasetCsv:
    def test_round_trip_identity(self, tmp_path):
        data = prior_data(1)
        path = tmp_path / "d.csv"
        io.write_dataset(path, data)
        back = io.read_dataset(path)
        np.testing.assert_array_equal(back.x1, data.x1)
        np.testing.assert_array_equal(back.f1, data.f1)
        np.testing.assert_array_equal(back.x2, data.x2)
        np.testing.assert_array_equal(back.f2, data.f2)

    def test_header_and_line_endings(self, tmp_path):
        data = prior_data(2)
        path = tmp_path / "d.csv"
        io.write_dataset(path, data)
        raw = path.read_bytes()
        assert raw.startswith(b"fidelity,x0,y\n")
        assert b"\r" not in raw

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,0,0\n")
        with pytest.raises(ValueError):
            io.read_dataset(path)

    @pytest.mark.parametrize(
        "header, expected",
        [
            ("fidelity,x1,x0,y", "fidelity,x0,x1,y"),
            ("fidelity,x0,x2,y", "fidelity,x0,x1,y"),
            ("fidelity,xylophone,y", "fidelity,x0,y"),
            ("fidelity,y", "fidelity,x0,y"),
            ("x0,fidelity,y", "fidelity,x0,y"),
        ],
        ids=["swapped", "gap", "misnamed", "no-input", "fidelity-not-first"],
    )
    def test_reads_input_columns_by_name(self, tmp_path, header, expected):
        path = tmp_path / "bad.csv"
        width = header.count(",") + 1
        path.write_text(header + "\n" + ",".join(["1"] * width) + "\n" + ",".join(["2"] * width) + "\n")
        with pytest.raises(ValueError, match=f"expected header '{expected}', got '{header}'"):
            io.read_dataset(path)

    def test_rejects_bad_fidelity(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("fidelity,x0,y\n3,0.0,0.0\n")
        with pytest.raises(ValueError):
            io.read_dataset(path)

    def test_error_cites_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("fidelity,x0,y\n1,0.0,0.0\n2,oops,0.0\n")
        with pytest.raises(ValueError, match=":3"):
            io.read_dataset(path)

    def test_requires_both_fidelities(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("fidelity,x0,y\n1,0.0,0.0\n")
        with pytest.raises(ValueError):
            io.read_dataset(path)


class TestTestGridCsv:
    def test_round_trip(self, tmp_path):
        X = np.linspace(0, 1, 7).reshape(-1, 1)
        truth = np.sin(X.ravel())
        path = tmp_path / "t.csv"
        io.write_test_grid(path, X, truth)
        Xb, tb = io.read_test_grid(path)
        np.testing.assert_array_equal(Xb, X)
        np.testing.assert_array_equal(tb, truth)


class TestQueriesCsv:
    def test_plain_query_columns(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("x0\n0.1\n0.2\n")
        X = io.read_queries(path)
        np.testing.assert_allclose(X, [[0.1], [0.2]])

    def test_test_grid_accepted_as_queries(self, tmp_path):
        path = tmp_path / "t.csv"
        io.write_test_grid(path, [[0.3], [0.4]], [0.0, 1.0])
        X = io.read_queries(path)
        np.testing.assert_allclose(X, [[0.3], [0.4]])

    @pytest.mark.parametrize(
        "body, message",
        [
            ("2,0.1,0\n\n2,oops,0\n", ":4: could not convert"),
            ("2,0.1,0\n2,0.2\n", ":3: expected 3 fields, got 2"),
            ("2,0.1,0\n3,0.2,0\n", ":3: fidelity must be 1 or 2, got 3"),
            ("2,0.1,0\r\n2,inf,0\r\n", ":3: non-finite value"),
        ],
        ids=["blank-line", "short-row", "bad-fidelity", "crlf"],
    )
    def test_fidelity_format_errors_cite_the_line(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_bytes(("fidelity,x0,y\n" + body).encode())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}"):
            io.read_queries(path)


class TestPredictionsCsv:
    def test_columns(self, tmp_path, fitted):
        X = np.array([[0.2], [0.8]])
        pred = fitted.predict(X)
        path = tmp_path / "p.csv"
        io.write_predictions(path, X, pred.mean, np.sqrt(pred.variance), fitted.features(X))
        header = path.read_text().splitlines()[0]
        assert header == "x0,mean,std,h0,h1"


# doubles whose "%.17g" form is easy to get wrong: signed zero, the smallest
# subnormal, the largest double, a non-dyadic fraction, 1e16 and whole numbers
EDGE = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16, 3.0, -7.0, 0.0]


def reference_csv(header, rows):
    """The csv.writer form with f"{float(v):.17g}" fields, row by row."""
    buf = stdio.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{float(v):.17g}" for v in row])
    return buf.getvalue().encode("utf-8")


class TestGoldenBytes:
    X = np.array(EDGE).reshape(-1, 2)  # D = 2 inputs, 4 rows
    y = np.array(EDGE[::-2])

    def test_dataset(self, tmp_path):
        data = Dataset(self.X[:3], self.y[:3], self.X[3:], self.y[3:])
        path = tmp_path / "d.csv"
        io.write_dataset(path, data)
        rows = [[1, *x, f] for x, f in zip(data.x1, data.f1)]
        rows += [[2, *x, f] for x, f in zip(data.x2, data.f2)]
        assert path.read_bytes() == reference_csv(["fidelity", "x0", "x1", "y"], rows)

    def test_test_grid(self, tmp_path):
        path = tmp_path / "t.csv"
        io.write_test_grid(path, self.X, self.y)
        rows = [[2, *x, f] for x, f in zip(self.X, self.y)]
        assert path.read_bytes() == reference_csv(["fidelity", "x0", "x1", "y"], rows)

    def test_predictions(self, tmp_path):
        mean, std, H = self.y, self.y[::-1], self.X[::-1]  # two feature columns
        path = tmp_path / "p.csv"
        io.write_predictions(path, self.X, mean, std, H)
        rows = [[*x, m, s, *h] for x, m, s, h in zip(self.X, mean, std, H)]
        header = ["x0", "x1", "mean", "std", "h0", "h1"]
        assert path.read_bytes() == reference_csv(header, rows)


class TestRowCounts:
    """Writers refuse inputs whose row counts differ, rather than dropping
    or folding rows."""

    def test_predictions_with_1d_inputs(self, tmp_path):
        v = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match=r"\[1, 5, 5, 5\]"):
            io.write_predictions(tmp_path / "p.csv", v, v, v, np.c_[v, v])

    def test_test_grid_with_short_truth(self, tmp_path):
        X = np.linspace(0, 1, 5).reshape(-1, 1)
        with pytest.raises(ValueError, match=r"\[3, 5, 3\]"):
            io.write_test_grid(tmp_path / "t.csv", X, np.zeros(3))


class TestFittedModel:
    def test_centres_its_data_once(self, fitted, monkeypatch):
        calls = []
        centered = Dataset.centered
        monkeypatch.setattr(Dataset, "centered", lambda *a: calls.append(1) or centered(*a))
        fresh = dataclasses.replace(fitted)
        X = np.linspace(0, 1, 5).reshape(-1, 1)
        first = fresh.predict(X)
        for _ in range(3):
            again = fresh.predict(X)
        assert len(calls) == 1
        np.testing.assert_array_equal(again.mean, first.mean)
        np.testing.assert_array_equal(again.mean, fitted.predict(X).mean)

    @pytest.mark.parametrize("name", ["params", "data", "center_mean", "center_scale", "meta"])
    def test_fields_cannot_be_reassigned(self, fitted, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fitted, name, getattr(fitted, name))

    def test_data_is_a_read_only_copy(self, fitted):
        data = prior_data(0)
        m = model.FittedModel(fitted.params, data, fitted.center_mean, fitted.center_scale)
        with pytest.raises(ValueError, match="read-only"):
            m.data.f2[0] = 0.0
        data.f2[0] = 0.0  # the caller's arrays stay the caller's
        assert m.data.f2[0] != 0.0

    @pytest.mark.parametrize("rows", [slice(None), slice(3, 4)], ids=["batch", "one-row"])
    @pytest.mark.parametrize("depth", ["deep", "zero-layer"])
    def test_predict_returns_the_query_features(self, fitted, depth, rows):
        m = fitted
        if depth == "zero-layer":
            k = KernelParams(0.0, np.zeros(1))
            params = mfgp.ModelParams(-0.8, k, k, *identity_map(1))
            m = model.FittedModel(params, fitted.data, fitted.center_mean, fitted.center_scale)
        X = np.linspace(0, 1, 7).reshape(-1, 1)[rows]
        got, want = m.predict(X).features, m.features(X)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_nll_matches_report(self, fitted):
        assert trained_nll(fitted) == pytest.approx(fitted.meta["best_nll"], rel=1e-10)

    def test_prediction_units_undo_centering(self, fitted):
        # shifting all targets by a constant shifts predictions by the same constant
        data = fitted.data
        shifted = Dataset(data.x1, data.f1 + 100.0, data.x2, data.f2 + 100.0)
        m2 = model.FittedModel(
            fitted.params, shifted, fitted.center_mean + 100.0, fitted.center_scale
        )
        X = np.array([[0.4]])
        np.testing.assert_allclose(
            m2.predict(X).mean, fitted.predict(X).mean + 100.0, rtol=1e-12
        )
        np.testing.assert_allclose(m2.predict(X).variance, fitted.predict(X).variance)


class TestModelJson:
    def test_round_trip_reproduces_nll(self, tmp_path, fitted):
        path = tmp_path / "m.json"
        model.save_model(fitted, path)
        back = model.load_model(path)
        assert trained_nll(back) == trained_nll(fitted)

    def test_round_trip_predictions_identical(self, tmp_path, fitted):
        path = tmp_path / "m.json"
        model.save_model(fitted, path)
        back = model.load_model(path)
        X = np.linspace(0, 1, 5).reshape(-1, 1)
        np.testing.assert_array_equal(back.predict(X).mean, fitted.predict(X).mean)

    def test_save_deterministic_bytes(self, tmp_path, fitted):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        model.save_model(fitted, p1)
        model.save_model(fitted, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_tag(self, tmp_path, fitted):
        import json

        path = tmp_path / "m.json"
        model.save_model(fitted, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "dmfgp-model-v1"
        assert doc["training"]["note"] == "fixture"

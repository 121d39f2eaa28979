import json

import numpy as np
import pytest

from dmfgp import io, model
from dmfgp.cli import main, parse_arch
from dmfgp.feature_map import LayerSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A fast generate + train pass shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "step.csv"
    mdl = root / "model.json"
    assert main([
        "generate", "--kind", "step", "--seed", "0",
        "--n1", "12", "--n2", "4", "--out", str(data),
    ]) == 0
    assert main([
        "train", "--data", str(data), "--restarts", "2",
        "--max-iterations", "60", "--seed", "0", "--out", str(mdl),
    ]) == 0
    return root, data, mdl


class TestParseArch:
    def test_paper_shape(self):
        layers = parse_arch("3-2", d_in=1)
        assert [(s.input_width, s.output_width, s.transfer) for s in layers] == [
            (1, 3, "sigmoid"),
            (3, 2, "identity"),
        ]

    def test_identity_keyword(self):
        assert parse_arch("identity", d_in=2) is None

    def test_single_layer(self):
        layers = parse_arch("4", d_in=2)
        assert [(s.input_width, s.output_width, s.transfer) for s in layers] == [
            (2, 4, "identity")
        ]

    def test_bad_text(self):
        from dmfgp.cli import UsageError

        with pytest.raises(UsageError):
            parse_arch("3--2", d_in=1)


class TestGenerate:
    def test_writes_dataset_and_test_grid(self, tmp_path, capsys):
        out = tmp_path / "step.csv"
        code, _, _ = run(capsys, "generate", "--kind", "step", "--seed", "1", "--out", str(out))
        assert code == 0
        data = io.read_dataset(out)
        assert data.n1 == 45 and data.n2 == 5
        X, truth = io.read_test_grid(tmp_path / "step_test.csv")
        assert X.shape == (200, 1) and truth.shape == (200,)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "generate", "--kind", "forrester", "--seed", "2", "--out", str(a))
        run(capsys, "generate", "--kind", "forrester", "--seed", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_test.csv").read_bytes() == (tmp_path / "b_test.csv").read_bytes()


class TestTrain:
    def test_model_and_report_written(self, small_pipeline):
        root, _, mdl = small_pipeline
        fitted = model.load_model(mdl)
        assert fitted.nll() == pytest.approx(fitted.meta["best_nll"], rel=1e-10)
        report = (root / "model.report.txt").read_text()
        assert "best nll" in report and "restart 1" in report

    def test_baseline_records_identity_arch(self, small_pipeline, capsys):
        root, data, _ = small_pipeline
        out = root / "ar1.json"
        code, _, _ = run(
            capsys, "train", "--data", str(data), "--baseline", "ar1",
            "--restarts", "1", "--max-iterations", "60", "--out", str(out),
        )
        assert code == 0
        fitted = model.load_model(out)
        assert fitted.meta["baseline"] == "ar1"
        assert [s.transfer for s in fitted.params.arch] == ["identity"]
        assert fitted.params.fmap.trainable is False

    def test_deterministic_model_file(self, small_pipeline, capsys):
        root, data, _ = small_pipeline
        a, b = root / "m1.json", root / "m2.json"
        args = ["train", "--data", str(data), "--restarts", "1",
                "--max-iterations", "40", "--seed", "3"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_data_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")
        )
        assert code == 2
        assert "error" in err


class TestPredict:
    def test_grid_mode(self, small_pipeline, capsys):
        root, _, mdl = small_pipeline
        out = root / "pred.csv"
        code, _, _ = run(capsys, "predict", "--model", str(mdl), "--grid", "50", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x0,mean,std,h0,h1"
        assert len(lines) == 51
        stds = [float(l.split(",")[2]) for l in lines[1:]]
        assert min(stds) >= 0.0

    def test_queries_mode(self, small_pipeline, capsys):
        root, _, mdl = small_pipeline
        q = root / "q.csv"
        q.write_text("x0\n0.5\n1.5\n")
        out = root / "pred_q.csv"
        code, _, _ = run(capsys, "predict", "--model", str(mdl), "--queries", str(q), "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_missing_model(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "predict", "--model", str(tmp_path / "no.json"),
            "--grid", "5", "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2


class TestEvaluate:
    def test_metrics_json(self, small_pipeline, capsys):
        root, _, mdl = small_pipeline
        out = root / "metrics.json"
        code, _, _ = run(
            capsys, "evaluate", "--model", str(mdl),
            "--test", str(root / "step_test.csv"), "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"rmse", "coverage", "mnlpd"}
        assert doc["rmse"] >= 0.0 and 0.0 <= doc["coverage"] <= 1.0

    def test_perfect_prediction_fixture(self, small_pipeline, capsys):
        # a test grid whose truth equals the model prediction gives rmse 0
        root, _, mdl = small_pipeline
        fitted = model.load_model(mdl)
        X = np.array([[0.5], [1.5]])
        truth = fitted.predict(X).mean
        tpath = root / "perfect.csv"
        io.write_test_grid(tpath, X, truth)
        out = root / "perfect_metrics.json"
        code, _, _ = run(capsys, "evaluate", "--model", str(mdl), "--test", str(tpath), "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["rmse"] == pytest.approx(0.0, abs=1e-12)

    def test_missing_test_file(self, small_pipeline, tmp_path, capsys):
        _, _, mdl = small_pipeline
        code, _, _ = run(
            capsys, "evaluate", "--model", str(mdl),
            "--test", str(tmp_path / "no.csv"), "--out", str(tmp_path / "m.json"),
        )
        assert code == 2


class TestUsageErrors:
    def test_unknown_kind(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--kind", "cubic", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "error" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "generate", "--kind", "step")
        assert code == 1

    @pytest.mark.parametrize(
        "flags", [["--restarts", "0"], ["--freeze-noise", "--noise-variance", "0"]]
    )
    def test_invalid_training_config(self, small_pipeline, capsys, flags):
        root, data, _ = small_pipeline
        code, _, err = run(capsys, "train", "--data", str(data), *flags, "--out", str(root / "m.json"))
        assert code == 1
        assert "error" in err

    def test_bad_arch(self, small_pipeline, capsys):
        root, data, _ = small_pipeline
        code, _, _ = run(
            capsys, "train", "--data", str(data), "--arch", "zero",
            "--out", str(root / "m.json"),
        )
        assert code == 1

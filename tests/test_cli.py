import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dmfgp
from dmfgp import cli, io, model
from dmfgp.cli import main, parse_arch
from dmfgp.feature_map import LayerSpec
from dmfgp.mfgp import NotPositiveDefiniteError, TrainingFailedError

from test_model_io import trained_nll


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
        assert trained_nll(fitted) == pytest.approx(fitted.meta["best_nll"], rel=1e-10)
        report = (root / "model.report.txt").read_text()
        assert "best nll" in report and "restart 1" in report

    def test_report_and_model_carry_each_restart_stop_reason(self, small_pipeline):
        root, _, mdl = small_pipeline
        restarts = model.load_model(mdl).meta["per_restart"]
        report = (root / "model.report.txt").read_text().splitlines()
        assert len(restarts) == 2
        for r in restarts:
            # L-BFGS-B's own message: factr, the iteration cap or a failed line search
            assert "converged" not in r
            assert r["stop"].startswith(("CONVERGENCE: ", "STOP: ", "ABNORMAL: "))
            assert f"({r['iterations']} iterations, {r['stop']})" in report[2 + r["restart"]]

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
        # the AR(1) baseline is the zero-layer map h(x) = x
        assert fitted.params.arch == []
        assert fitted.params.fmap.weights == [] and fitted.params.fmap.biases == []

    def test_identity_arch_is_the_baseline(self, small_pipeline, capsys):
        root, data, _ = small_pipeline
        a, b = root / "ar1_flag.json", root / "ar1_arch.json"
        args = ["train", "--data", str(data), "--restarts", "2", "--max-iterations", "40"]
        assert run(capsys, *args, "--baseline", "ar1", "--out", str(a))[0] == 0
        assert run(capsys, *args, "--arch", "identity", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_old_format_baseline_predicts_identically(self, small_pipeline, capsys):
        # model files once stored the baseline as one frozen affine identity layer
        root, data, _ = small_pipeline
        new = root / "ar1_new.json"
        assert run(
            capsys, "train", "--data", str(data), "--baseline", "ar1",
            "--restarts", "1", "--max-iterations", "60", "--out", str(new),
        )[0] == 0
        doc = json.loads(new.read_text())
        doc["arch"] = [{"input_width": 1, "output_width": 1, "transfer": "identity"}]
        doc["params"]["fmap"] = {"weights": [[[1.0]]], "biases": [[0.0]], "trainable": False}
        old = root / "ar1_old.json"
        old.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        q = root / "q_old_new.csv"
        q.write_text("x0\n-0.0\n0.25\n1.0\n1.75\n")
        for mode in (["--grid", "50"], ["--queries", str(q)]):
            outs = []
            for mdl in (new, old):
                out = root / f"pred_{mdl.stem}.csv"
                assert run(capsys, "predict", "--model", str(mdl), *mode, "--out", str(out))[0] == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]
        assert trained_nll(model.load_model(old)) == trained_nll(model.load_model(new))

    def test_deterministic_model_file(self, small_pipeline, capsys):
        root, data, _ = small_pipeline
        a, b = root / "m1.json", root / "m2.json"
        args = ["train", "--data", str(data), "--restarts", "1",
                "--max-iterations", "40", "--seed", "3"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_noise_variance_sets_only_the_frozen_nugget(self, small_pipeline, capsys):
        # without --freeze-noise the noise is trained and a nugget would be ignored
        root, data, _ = small_pipeline
        args = ["train", "--data", str(data), "--noise-variance", "1e-6",
                "--restarts", "1", "--max-iterations", "5"]
        trained = root / "nugget_trained.json"
        code, _, err = run(capsys, *args, "--out", str(trained))
        assert code == 1 and "--freeze-noise" in err
        assert not trained.exists()
        frozen = root / "nugget_frozen.json"
        assert run(capsys, *args, "--freeze-noise", "--out", str(frozen))[0] == 0
        p = model.load_model(frozen).params
        assert p.log_noise1 == p.log_noise2 == np.log(1e-6)

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

    @pytest.mark.parametrize(
        "text",
        ["x0\n", "x0\n0.5\nnan\n", "x0\n0.5\ninf\n", "fidelity,x0,y\n", "fidelity,x0,y\n2,nan,0.0\n"],
        ids=["header-only", "nan", "inf", "header-only-test-grid", "nan-test-grid"],
    )
    def test_rejects_empty_or_nonfinite_queries(self, small_pipeline, tmp_path, capsys, text):
        _, _, mdl = small_pipeline
        q = tmp_path / "bad_queries.csv"
        q.write_text(text)
        out = tmp_path / "pred_bad.csv"
        code, _, err = run(capsys, "predict", "--model", str(mdl), "--queries", str(q), "--out", str(out))
        assert code == 2
        assert str(q) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["x0\n0.5,7\n0.7,8\n", "x0,x1\n0.5\n0.7\n", "x0\n0.5\n0.7,8\n"],
        ids=["wider", "narrower", "ragged"],
    )
    def test_rejects_rows_not_as_wide_as_the_header(self, small_pipeline, tmp_path, capsys, text):
        _, _, mdl = small_pipeline
        q = tmp_path / "bad_width.csv"
        q.write_text(text)
        out = tmp_path / "pred_bad.csv"
        code, _, err = run(capsys, "predict", "--model", str(mdl), "--queries", str(q), "--out", str(out))
        assert code == 2
        assert str(q) in err
        assert not out.exists()

    def test_rejects_queries_wider_than_the_model(self, small_pipeline, tmp_path, capsys):
        _, _, mdl = small_pipeline
        q = tmp_path / "two_columns.csv"
        q.write_text("x0,x1\n0.5,0.1\n1.5,0.2\n")
        out = tmp_path / "pred_wide.csv"
        code, _, err = run(capsys, "predict", "--model", str(mdl), "--queries", str(q), "--out", str(out))
        assert code == 2
        assert "2 columns" in err and "expects 1" in err
        assert not out.exists()

    def test_dataset_csv_queries_every_row(self, small_pipeline, capsys):
        root, data, mdl = small_pipeline
        out = root / "pred_dataset.csv"
        code, _, _ = run(capsys, "predict", "--model", str(mdl), "--queries", str(data), "--out", str(out))
        assert code == 0
        d = io.read_dataset(data)
        X = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)[:, :1]
        np.testing.assert_array_equal(X, np.vstack([d.x1, d.x2]))  # 12 low- and 4 high-fidelity rows

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_nonfinite_test_grid(self, small_pipeline, tmp_path, capsys, value):
        # json.dump would write NaN, which is not JSON
        _, _, mdl = small_pipeline
        grid = tmp_path / "bad_grid.csv"
        grid.write_text(f"fidelity,x0,y\n2,0.5,{value}\n2,0.7,1.0\n")
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "evaluate", "--model", str(mdl), "--test", str(grid), "--out", str(out))
        assert code == 2
        assert f"{grid}:2" in err
        assert not out.exists()

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
        "flags",
        [
            ["--restarts", "0"],
            ["--freeze-noise", "--noise-variance", "0"],
            ["--max-iterations", "0"],
            ["--max-iterations", "-5"],
            ["--seed", "-3"],
        ],
    )
    def test_invalid_training_config(self, small_pipeline, capsys, flags):
        root, data, _ = small_pipeline
        code, _, err = run(capsys, "train", "--data", str(data), *flags, "--out", str(root / "m.json"))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--noise-sd", "-1"],
            ["--n1", "-5"],
            ["--n1", "0"],
            ["--n2", "0"],
            ["--n1", "300"],
            ["--seed", "-1"],
        ],
        ids=["negative-noise", "negative-n1", "zero-n1", "zero-n2", "too-many-points",
             "negative-seed"],
    )
    def test_invalid_generate_spec(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "generate", "--kind", "step", *flags, "--out", str(out))
        assert code == 1
        assert "error" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_invalid_grid(self, small_pipeline, capsys, grid):
        root, _, mdl = small_pipeline
        out = root / "bad_grid.csv"
        code, _, err = run(capsys, "predict", "--model", str(mdl), "--grid", grid, "--out", str(out))
        assert code == 1
        assert "error" in err
        assert not out.exists()

    def test_grid_needs_one_dimensional_inputs(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = tmp_path / "two_d.csv"
        io.write_dataset(data, dmfgp.Dataset(rng.uniform(size=(6, 2)), rng.normal(size=6),
                                             rng.uniform(size=(3, 2)), rng.normal(size=3)))
        mdl = tmp_path / "two_d.json"
        assert run(
            capsys, "train", "--data", str(data), "--baseline", "ar1",
            "--restarts", "1", "--max-iterations", "5", "--out", str(mdl),
        )[0] == 0
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--model", str(mdl), "--grid", "5", "--out", str(out))
        assert code == 1
        assert "--queries" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--baseline", "ar1", "--arch", "5-5-2"], ["--arch", "3-2", "--baseline", "ar1"]]
    )
    def test_baseline_and_arch_are_exclusive(self, small_pipeline, capsys, flags):
        root, data, _ = small_pipeline
        out = root / "both.json"
        code, _, err = run(capsys, "train", "--data", str(data), *flags, "--out", str(out))
        assert code == 1
        assert "not allowed with" in err
        assert not out.exists()

    def test_bad_arch(self, small_pipeline, capsys):
        root, data, _ = small_pipeline
        code, _, _ = run(
            capsys, "train", "--data", str(data), "--arch", "zero",
            "--out", str(root / "m.json"),
        )
        assert code == 1


class TestNumericalFailure:
    def test_training_failure_exits_3(self, small_pipeline, capsys, monkeypatch):
        root, data, _ = small_pipeline

        def failing_train(*args, **kwargs):
            raise TrainingFailedError("all 1 restarts failed")

        monkeypatch.setattr(dmfgp.trainer, "train", failing_train)
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(root / "failed.json"))
        assert code == 3
        assert "numerical failure" in err

    def test_prediction_failure_exits_3(self, small_pipeline, capsys, monkeypatch):
        root, _, mdl = small_pipeline

        def failing_predict(self, X):
            raise NotPositiveDefiniteError(1.0)

        monkeypatch.setattr(model.FittedModel, "predict", failing_predict)
        code, _, err = run(capsys, "predict", "--model", str(mdl), "--grid", "5", "--out", str(root / "p3.csv"))
        assert code == 3
        assert "numerical failure" in err


def _src_env():
    src = str(Path(dmfgp.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def test_one_parser_serves_every_command_in_a_process(small_pipeline, tmp_path, monkeypatch):
    root, _, mdl = small_pipeline
    queries = tmp_path / "q.csv"
    queries.write_text("x0\n0.25\n0.5\n0.75\n")
    model_args = ["--model", str(mdl)]
    commands = [
        # --grid and --queries share a mutually exclusive group: a usage error
        ["predict", *model_args, "--grid", "5", "--queries", str(queries), "--out", "bad.csv"],
        ["predict", *model_args, "--grid", "9", "--out", "grid.csv"],
        ["predict", *model_args, "--queries", str(queries), "--out", "queries.csv"],
        ["evaluate", *model_args, "--test", str(root / "step_test.csv"), "--out", "metrics.json"],
        ["generate", "--kind", "step", "--seed", "3", "--out", "gen.csv"],
    ]

    def in_dir(argv, d):
        return argv[:-1] + [str(d / argv[-1])]

    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli.build_parser.cache_clear()
    try:
        same, fresh = tmp_path / "same", tmp_path / "fresh"
        same.mkdir()
        fresh.mkdir()
        codes = [main(in_dir(commands[0], same))]
        first_build = list(built)
        codes += [main(in_dir(argv, same)) for argv in commands[1:]]
    finally:
        cli.build_parser.cache_clear()
    # one top-level parser and its four sub-parsers, built by the first call only
    assert first_build[0] == "dmfgp" and len(first_build) == 5
    assert built == first_build

    fresh_codes = [
        subprocess.run(
            [sys.executable, "-m", "dmfgp.cli", *in_dir(argv, fresh)],
            capture_output=True, env=_src_env(), timeout=120,
        ).returncode
        for argv in commands
    ]
    assert codes == fresh_codes == [1, 0, 0, 0, 0]
    names = sorted(p.name for p in same.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    assert names == ["gen.csv", "gen_test.csv", "grid.csv", "metrics.json", "queries.csv"]
    for name in names:
        assert (same / name).read_bytes() == (fresh / name).read_bytes(), name


def test_serving_commands_do_not_load_the_optimizer(small_pipeline):
    # A fresh interpreter, because this test session has imported the trainer.
    root, _, mdl = small_pipeline
    script = textwrap.dedent(
        """
        import sys
        import dmfgp, dmfgp.cli

        root, mdl = sys.argv[1], sys.argv[2]
        assert dmfgp.cli.main(["generate", "--kind", "step", "--seed", "1",
                               "--out", root + "/fresh.csv"]) == 0
        assert dmfgp.cli.main(["predict", "--model", mdl, "--grid", "7",
                               "--out", root + "/fresh_pred.csv"]) == 0
        assert dmfgp.cli.main(["evaluate", "--model", mdl, "--test", root + "/fresh_test.csv",
                               "--out", root + "/fresh_metrics.json"]) == 0
        assert "scipy.optimize" not in sys.modules, "serving loaded scipy.optimize"
        assert "dmfgp.trainer" not in sys.modules

        assert dmfgp.train is dmfgp.trainer.train
        assert dmfgp.TrainConfig is dmfgp.trainer.TrainConfig
        assert dmfgp.TrainReport is dmfgp.trainer.TrainReport
        assert dmfgp.trainer.TrainingFailedError is dmfgp.mfgp.TrainingFailedError
        assert dmfgp.TrainingFailedError is dmfgp.mfgp.TrainingFailedError
        try:
            dmfgp.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("dmfgp.no_such_name did not raise AttributeError")

        namespace = {}
        exec("from dmfgp import *", namespace)
        missing = [name for name in dmfgp.__all__ if name not in namespace]
        assert not missing, missing
        print("ok")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(root), str(mdl)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")

"""Each output check accepts the program's answer and rejects a perturbed one.

    python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src"), str(BENCH.parent / "tests")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

import dmfgp  # noqa: E402
import dmfgp.cli  # noqa: E402
from dmfgp.feature_map import LayerSpec, identity_map  # noqa: E402
from dmfgp.kernel import KernelParams  # noqa: E402
from dmfgp.mfgp import ModelParams, nll  # noqa: E402

ARCH = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]


@pytest.fixture(scope="module")
def fit():
    spec = dmfgp.benchmarks.BenchmarkSpec("step", seed=3, n1=12, n2=4)
    data, _, _ = dmfgp.benchmarks.generate(spec)
    cfg = dmfgp.trainer.TrainConfig(seed=3, restarts=2, max_iterations=30)
    report = dmfgp.trainer.train(data, ARCH, cfg)
    starts = [dmfgp.trainer.init_params(ARCH, cfg, r) for r in range(cfg.restarts)]
    fitted = dmfgp.model.from_report(report, data)
    H1, H2 = fitted.features(data.x1), fitted.features(data.x2)
    X = np.linspace(0.0, 2.0, 25).reshape(-1, 1)
    mean, var = checks.reference_posterior(fitted.params, data, H1, H2, fitted.features(X))
    scale = ref.center(data.f1, data.f2)[1]
    tol = checks.tolerances(fitted.params, data, H1, H2)
    # a well-conditioned fit: the conditioning term adds little to TOL
    assert tol[0] < 2 * checks.TOL * scale and tol[1] < 2 * checks.TOL * scale**2
    return {
        "report": report, "best": checks.reference_nll(report.best_params, data, H1, H2),
        "fitted": fitted, "X": X, "H1": H1, "H2": H2,
        "starts": checks.reference_starts(data, starts), "mean": mean, "var": var,
        "scale": scale, "tol": tol,
        "row_tol": checks.tolerances(fitted.params, data, H1, H2, checks.ROW_TOL),
        "features": ref.features(ref.plain_params(fitted.params)["layers"], X),
    }


def test_reference_matches_test_oracle_on_ar1():
    import oracles

    rng = np.random.default_rng(0)
    x1, x2 = rng.uniform(0, 1, (7, 1)), rng.uniform(0, 1, (3, 1))
    f1, f2 = rng.normal(size=7), rng.normal(size=3)
    arch, fmap = identity_map(1)
    mp = ModelParams(1.3, KernelParams(0.2, [-0.5]), KernelParams(-0.4, [0.1]), arch, fmap,
                     np.log(1e-3), np.log(2e-3))
    p = ref.plain_params(mp)
    jitter = ref.JITTER_SCALE * np.mean(np.diag(ref.joint_cov(p, x1, x2)))
    want = oracles.ar1_nll(x1, f1, x2, f2, p["rho"], p["sf2_1"], p["ls1"], p["sf2_2"], p["ls2"],
                           p["s1"], p["s2"], jitter)
    assert abs(ref.nll(p, x1, f1, x2, f2) - want) < 1e-6
    assert abs(ref.nll(p, x1, f1, x2, f2) - nll(mp, dmfgp.mfgp.Dataset(x1, f1, x2, f2))) < 1e-10


def test_feature_check(fit):
    f, X = fit["fitted"], fit["X"]
    assert checks.feature_problems(f.features(X), X, f.params) == []
    H = f.features(X)
    H[4, 1] *= 1 + 1e-10
    assert checks.feature_problems(H, X, f.params)
    assert checks.feature_problems(f.features(X)[:-1], X, f.params)


def test_fit_check(fit):
    r = fit["report"]
    ends = [x.final_nll for x in r.per_restart]
    assert checks.fit_problems(r.best_nll, ends, fit["best"], fit["starts"]) == []
    off = r.best_nll + 1e-4 * (1 + abs(r.best_nll))
    assert checks.fit_problems(off, [off, ends[1] + 1.0], fit["best"], fit["starts"])
    assert checks.fit_problems(r.best_nll, [e - 1.0 for e in ends], fit["best"], fit["starts"])
    above = [s + 1.0 for s in fit["starts"]]
    assert checks.fit_problems(min(above), above, min(above), fit["starts"])
    assert checks.fit_problems(r.best_nll, ends[:1], fit["best"], fit["starts"])


def test_prediction_check(fit):
    pred = fit["fitted"].predict(fit["X"])
    args = (fit["mean"], fit["var"], fit["tol"])
    assert checks.prediction_problems(pred.mean, pred.variance, *args) == []
    bump = np.zeros_like(pred.mean)
    bump[7] = 1e-4 * fit["scale"]
    assert checks.prediction_problems(pred.mean + bump, pred.variance, *args)
    assert checks.prediction_problems(pred.mean, pred.variance + bump * fit["scale"], *args)
    neg = pred.variance.copy()
    neg[3] = -1e-12
    assert checks.prediction_problems(pred.mean, neg, fit["mean"], neg, fit["tol"])


def test_degenerate_fit_checked_to_the_bare_tolerance(fit):
    """A collapsed lengthscale makes the answer turn on one-ulp changes of the
    features; on the program's own features the reference still agrees."""
    d = fit["fitted"].data
    arch, fmap = identity_map(1)
    mp = ModelParams(1.0, KernelParams(0.0, [np.log(1e-13)]), KernelParams(0.0, [np.log(0.3)]),
                     arch, fmap, np.log(1e-4), np.log(1e-4))
    m, s = ref.center(d.f1, d.f2)
    model = dmfgp.model.FittedModel(mp, d, m, s)
    X = d.x2 + 2.5e-13  # 2.5 lengthscales from a training input
    pred = model.predict(X)
    H1, H2 = model.features(d.x1), model.features(d.x2)
    mean, var = checks.reference_posterior(mp, d, H1, H2, model.features(X))
    tol = checks.tolerances(mp, d, H1, H2)
    assert checks.prediction_problems(pred.mean, pred.variance, mean, var, tol) == []
    moved, _ = checks.reference_posterior(mp, d, d.x1, d.x2, X * (1 + 4e-16))
    assert np.max(np.abs(moved - mean)) > 10 * tol[0]  # an ulp moves the answer
    assert checks.prediction_problems(pred.mean, pred.variance, moved, var, tol)


def test_tolerance_grows_with_the_condition_number(fit):
    d, H1, H2 = fit["fitted"].data, fit["H1"], fit["H2"]
    arch, fmap = identity_map(1)

    def tol(log_noise):
        mp = ModelParams(1.0, KernelParams(0.0, [np.log(3.0)]), KernelParams(-2.0, [np.log(3.0)]),
                         arch, fmap, log_noise, log_noise)
        return checks.tolerances(mp, d, d.x1, d.x2)

    well, ill = tol(np.log(1e-1)), tol(-40.0)
    assert well[0] < 1.01 * checks.TOL * fit["scale"] < 3 * checks.TOL * fit["scale"] < ill[0]
    assert ill[0] < 1e-3 * fit["scale"]  # the jitter caps cond(K)


def test_row_check(fit):
    f, s, r = fit["fitted"], fit["scale"], slice(5, 6)
    batch, one = f.predict(fit["X"]), f.predict(fit["X"][r])
    ref_one = checks.reference_posterior(f.params, f.data, fit["H1"], fit["H2"],
                                         f.features(fit["X"][r]))
    ref_batch = (fit["mean"][r], fit["var"][r])
    tols = (fit["tol"], fit["row_tol"])
    args = (*ref_one, batch.mean[r], batch.variance[r], *ref_batch, *tols)
    assert checks.row_problems(one.mean, one.variance, *args) == []
    # within TOL of the reference, but not the batched row
    assert checks.row_problems(one.mean + 1e-7 * s, one.variance, *args)
    assert checks.row_problems(one.mean, one.variance + 1e-7 * s**2, *args)
    # where the model itself answers differently at the two roundings of the
    # features, the single point is held to the reference at its own features
    apart = (*ref_one, batch.mean[r] + 0.3 * s, batch.variance[r], ref_batch[0] + 0.3 * s,
             ref_batch[1], *tols)
    assert checks.row_problems(one.mean, one.variance, *apart) == []
    assert checks.row_problems(one.mean + 1e-4 * s, one.variance, *apart)


def _rewrite(text, row, col, fn):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_cli_check(fit, tmp_path):
    mpath, qpath, out = tmp_path / "m.json", tmp_path / "q.csv", tmp_path / "p.csv"
    dmfgp.model.save_model(fit["fitted"], mpath)
    qpath.write_text("x0\n" + "".join(f"{x:.17g}\n" for x in fit["X"][:, 0]))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = dmfgp.cli.main(["predict", "--model", str(mpath), "--queries", str(qpath),
                               "--out", str(out)])
    assert code == 0
    text = out.read_text()
    args = (fit["X"], fit["mean"], fit["var"], fit["features"], fit["tol"])
    assert checks.cli_problems(text, *args) == []
    big = 1e-4 * fit["scale"]
    for col in (1, 2):  # mean, std
        assert checks.cli_problems(_rewrite(text, 9, col, lambda v: v + big), *args), col
    for col in (3, 4):  # h0, h1
        assert checks.cli_problems(_rewrite(text, 9, col, lambda v: v * (1 + 1e-10)), *args), col
    assert checks.cli_problems(_rewrite(text, 9, 0, lambda v: v + 1e-9), *args)
    assert checks.cli_problems(text.replace("mean", "mu", 1), *args)
    assert checks.cli_problems("\n".join(text.splitlines()[:-1]) + "\n", *args)


def test_tracer_restores_and_counts(fit):
    before = (dmfgp.mfgp.assemble, dmfgp.model.FittedModel.predict)
    tr = Tracer()
    tr.install(dmfgp)
    tr.active = True
    tr.span("op.grid", fit["fitted"].predict, fit["X"])
    tr.active = False
    tr.uninstall()
    assert (dmfgp.mfgp.assemble, dmfgp.model.FittedModel.predict) == before
    m = layer_metrics(tr, 1)
    assert m["mfgp.assemble_per_predict"][0] == 1.0
    assert m["feature_map.rows"][0] == 16 + 25  # training rows, then the queries
    summary = tr.summary()
    assert all(0 <= a["self_s"] <= a["total_s"] for a in summary.values())

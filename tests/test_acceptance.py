"""Acceptance suite: one test per criterion, named so the verbose pytest
output gives one pass/fail line each. Each test also prints a summary line
with the measured numbers (visible with -s or on failure).

Benchmark protocol: the step generator adds observation noise, so its models
train the noise variances; the other two generators are noise-free, so their
models (and their identity-map baselines) train with a fixed 1e-4 nugget.
"""

import time
import warnings

import numpy as np
import pytest

from dmfgp import benchmarks, io, model, trainer
from dmfgp import feature_map as fm
from dmfgp.benchmarks import BenchmarkSpec
from dmfgp.cli import main as cli_main
from dmfgp.feature_map import LayerSpec
from dmfgp.kernel import KernelParams
from dmfgp.mfgp import (
    Dataset,
    ModelParams,
    assemble,
    nll,
    nll_gradient,
    noise_variance,
    predict,
    sample_prior,
)
from dmfgp.trainer import TrainConfig, init_params, train

import oracles

warnings.filterwarnings("ignore")

ARCH = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]


def small_instance(seed, n1=8, n2=4):
    """A random instance with separated inputs and prior-drawn targets.

    A jittered grid keeps the covariance well conditioned, so the central
    finite-difference oracle resolves every gradient component.
    """
    rng = np.random.default_rng(seed)
    n = n1 + n2
    x = ((np.arange(n) + rng.uniform(0.2, 0.8, n)) / n).reshape(-1, 1)
    gen = init_params(ARCH, TrainConfig(seed=seed + 500), 0)
    f1, f2 = sample_prior(gen, x, seed=seed)
    idx = rng.permutation(n)
    return Dataset(x[idx[:n1]], f1[idx[:n1]], x[idx[n1:]], f2[idx[n1:]])


def run_benchmark(kind, seed, restarts=10):
    """Train the deep model and the identity-map baseline; return metrics."""
    data, grid, truth = benchmarks.generate(BenchmarkSpec(kind, seed=seed))
    freeze = kind != "step"
    m = {}
    for label, baseline in (("dmf", False), ("ar1", True)):
        cfg = TrainConfig(
            seed=seed, restarts=restarts, freeze_noise=freeze, freeze_feature_map=baseline
        )
        report = train(data, ARCH, cfg)
        fitted = model.from_report(report, data)
        m[label] = benchmarks.metrics(fitted.predict(grid), truth)
    return m["dmf"], m["ar1"]


def packed_gradient_errors(data, cfg):
    """(error, tolerance) per packed component of the analytic NLL gradient
    against finite differences, at restart 0's start point on the centred
    targets, with the program's own (automatic) jitter."""
    centered, _, _ = trainer.center_targets(data)
    params = init_params(ARCH, cfg, 0)
    a = trainer.pack_gradient(nll_gradient(params, centered), cfg)

    def value(vec):
        return nll(trainer.unpack_params(vec, params, cfg), centered)

    # a fourth-order stencil keeps truncation negligible at a step wide
    # enough to stay above the Cholesky roundoff floor of the objective
    fd = oracles.central_difference4(value, trainer.pack_params(params, cfg), 2e-4)
    return np.abs(a - fd), 1e-5 * np.maximum(np.abs(a), np.abs(fd)) + 1e-7


def test_c1_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        data = small_instance(seed)
        # evaluate at the instance's generating parameters, where the
        # likelihood is moderate and the finite-difference oracle is sharp
        cfg = TrainConfig(seed=seed + 500, restarts=1)
        err, tol = packed_gradient_errors(data, cfg)
        worst = max(worst, float(np.max(err / tol)))
        assert np.all(err <= tol), f"instance {seed}: worst component error {np.max(err):.3e}"
    elapsed = time.time() - t0
    print(f"criterion 1 gradient correctness: PASS (worst err/tol {worst:.3f}, {elapsed:.1f}s)")
    assert elapsed < 5.0


def test_zero_layer_gradient_at_automatic_jitter():
    # c1's check on the AR(1) baseline's zero-layer map, whose packed
    # gradient holds only rho, the kernels and (unless frozen) the noise pair
    worst = 0.0
    for seed in range(20):
        data = small_instance(seed)
        for freeze_noise in (False, True):
            cfg = TrainConfig(
                seed=seed + 500, restarts=1, freeze_feature_map=True, freeze_noise=freeze_noise
            )
            err, tol = packed_gradient_errors(data, cfg)
            worst = max(worst, float(np.max(err / tol)))
            assert np.all(err <= tol), (
                f"instance {seed}, frozen noise {freeze_noise}: "
                f"worst component error {np.max(err):.3e}"
            )
    print(f"zero-layer gradient correctness: PASS (worst err/tol {worst:.3f})")


def test_c2_identity_map_reduction():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng([90, seed])
        data = small_instance(seed + 100, n1=7, n2=3)
        arch, fmap = fm.identity_map(1)
        params = ModelParams(
            rng.uniform(0.5, 2.0),
            KernelParams(rng.normal(0, 0.3), rng.normal(0, 0.3, 1)),
            KernelParams(rng.normal(0, 0.3), rng.normal(0, 0.3, 1)),
            arch,
            fmap,
            np.log(10 ** rng.uniform(-5, -3)),
            np.log(10 ** rng.uniform(-5, -3)),
        )
        args = dict(
            x1=data.x1, f1=data.f1, x2=data.x2, f2=data.f2,
            rho=params.rho,
            sf2_1=params.k1.signal_variance, ls1=params.k1.lengthscales,
            sf2_2=params.k2.signal_variance, ls2=params.k2.lengthscales,
            n1var=noise_variance(params.log_noise1),
            n2var=noise_variance(params.log_noise2),
            # the oracle factors with the jitter the program itself added
            jitter=assemble(params, data).jitter,
        )
        d_nll = abs(nll(params, data) - oracles.ar1_nll(**args))
        xs = np.linspace(-0.2, 1.2, 7).reshape(-1, 1)
        pred = predict(params, data, xs)
        mean, var = oracles.ar1_predict(xs=xs, **args)
        d_pred = max(np.max(np.abs(pred.mean - mean)), np.max(np.abs(pred.variance - var)))
        worst = max(worst, d_nll, float(d_pred))
        assert d_nll < 1e-10 and d_pred < 1e-10, f"instance {seed}: nll {d_nll:.2e} pred {d_pred:.2e}"
    print(f"criterion 2 identity-map reduction: PASS (worst discrepancy {worst:.2e})")


@pytest.mark.slow
def test_c3_step_benchmark():
    hits = 0
    lines = []
    for seed in range(5):
        t0 = time.time()
        dmf, ar1 = run_benchmark("step", seed)
        elapsed = time.time() - t0
        hits += dmf.rmse < 0.15
        lines.append(f"seed {seed}: dmf {dmf.rmse:.3f} ar1 {ar1.rmse:.3f} ({elapsed:.0f}s)")
        assert dmf.rmse < ar1.rmse, f"seed {seed}: deep model did not beat baseline; {lines[-1]}"
        assert elapsed < 120.0
    ok = hits >= 4
    print(f"criterion 3 step benchmark: {'PASS' if ok else 'FAIL'} "
          f"({hits}/5 seeds under 0.15; " + "; ".join(lines) + ")")
    assert ok, f"only {hits}/5 seeds reached rmse < 0.15: " + "; ".join(lines)


@pytest.mark.slow
def test_c4_forrester_benchmark():
    wins = 0
    coverages = []
    lines = []
    for seed in range(5):
        dmf, ar1 = run_benchmark("forrester_jump", seed)
        wins += dmf.rmse < ar1.rmse
        coverages.append(dmf.coverage)
        lines.append(
            f"seed {seed}: dmf {dmf.rmse:.3f} (cov {dmf.coverage:.2f}) ar1 {ar1.rmse:.3f}"
        )
    mean_cov = float(np.mean(coverages))
    ok = wins == 5 and mean_cov >= 0.80
    print(f"criterion 4 forrester benchmark: {'PASS' if ok else 'FAIL'} "
          f"({wins}/5 rmse wins, mean coverage {mean_cov:.2f}; " + "; ".join(lines) + ")")
    assert ok, (
        f"needed rmse wins on 5/5 seeds (got {wins}) and coverage >= 0.80 "
        f"(got {mean_cov:.2f}): " + "; ".join(lines)
    )


@pytest.mark.slow
def test_c5_prior_sample_benchmark():
    wins = 0
    coverages = []
    lines = []
    for seed in range(5):
        dmf, ar1 = run_benchmark("prior_sample", seed)
        wins += dmf.rmse < ar1.rmse
        coverages.append(dmf.coverage)
        lines.append(
            f"seed {seed}: dmf {dmf.rmse:.4f} (cov {dmf.coverage:.2f}) ar1 {ar1.rmse:.4f}"
        )
    mean_cov = float(np.mean(coverages))
    ok = wins >= 4 and mean_cov >= 0.90
    print(f"criterion 5 prior-sample benchmark: {'PASS' if ok else 'FAIL'} "
          f"({wins}/5 rmse wins, mean coverage {mean_cov:.2f}; " + "; ".join(lines) + ")")
    assert ok, (
        f"needed rmse wins on >= 4/5 seeds (got {wins}) and coverage >= 0.90 "
        f"(got {mean_cov:.2f}): " + "; ".join(lines)
    )


@pytest.mark.slow
def test_c6_interpolation():
    worst_err = 0.0
    worst_std = 0.0
    for kind in ("prior_sample", "forrester_jump"):
        data, _, _ = benchmarks.generate(BenchmarkSpec(kind, seed=0))
        cfg = TrainConfig(seed=0, freeze_noise=True, frozen_noise_variance=1e-8)
        fitted = model.from_report(train(data, ARCH, cfg), data)
        pred = fitted.predict(data.x2)
        worst_err = max(worst_err, float(np.max(np.abs(pred.mean - data.f2))))
        worst_std = max(worst_std, float(np.max(np.sqrt(pred.variance))))
    ok = worst_err <= 1e-3 and worst_std <= 1e-3
    print(f"criterion 6 interpolation: {'PASS' if ok else 'FAIL'} "
          f"(max target error {worst_err:.1e}, max std {worst_std:.1e})")
    assert ok


def test_c7_prior_sampling_statistics():
    params = init_params(ARCH, TrainConfig(seed=77), 0)
    X = np.array([[0.15], [0.5], [0.85]])
    n = X.shape[0]
    H = fm.forward(params.arch, params.fmap, X)
    g1 = oracles.se_kernel_matrix(params.k1.signal_variance, params.k1.lengthscales, H, H)
    g2 = oracles.se_kernel_matrix(params.k2.signal_variance, params.k2.lengthscales, H, H)
    rho = params.rho
    K = np.block([[g1, rho * g1], [rho * g1, rho**2 * g1 + g2]])

    draws = 10_000
    S = np.empty((draws, 2 * n))
    for i in range(draws):
        f1, f2 = sample_prior(params, X, seed=[77, i])
        S[i] = np.concatenate([f1, f2])
    emp = S.T @ S / draws  # the prior mean is zero by construction
    se = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K**2) / draws)
    ratio = np.abs(emp - K) / se
    ok = bool(np.all(ratio <= 3.0))
    print(f"criterion 7 prior-sampling statistics: {'PASS' if ok else 'FAIL'} "
          f"(max |error|/SE {np.max(ratio):.2f} over {draws} draws)")
    assert ok, f"worst entry off by {np.max(ratio):.2f} Monte-Carlo standard errors"


def test_c8_cli_determinism(tmp_path):
    kinds = ("step", "forrester", "sample")
    outputs = []
    for run in ("a", "b"):
        artifacts = []
        for kind in kinds:
            d = tmp_path / run / kind
            d.mkdir(parents=True)
            data, mdl = d / "data.csv", d / "model.json"
            pred, met = d / "pred.csv", d / "metrics.json"
            assert cli_main(["generate", "--kind", kind, "--seed", "0",
                             "--n1", "12", "--n2", "4", "--out", str(data)]) == 0
            assert cli_main(["train", "--data", str(data), "--restarts", "2",
                             "--max-iterations", "60", "--seed", "0", "--out", str(mdl)]) == 0
            assert cli_main(["predict", "--model", str(mdl), "--grid", "50",
                             "--out", str(pred)]) == 0
            assert cli_main(["evaluate", "--model", str(mdl),
                             "--test", str(d / "data_test.csv"), "--out", str(met)]) == 0
            artifacts += [p.read_bytes() for p in (data, d / "data_test.csv", mdl, pred, met)]
        outputs.append(artifacts)
    ok = outputs[0] == outputs[1]
    print(f"criterion 8 cli determinism: {'PASS' if ok else 'FAIL'} "
          f"({len(outputs[0])} pipeline artifacts of {', '.join(kinds)} compared byte for byte)")
    assert ok

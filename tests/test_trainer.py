import numpy as np
import pytest

from dmfgp import mfgp, trainer
from dmfgp.feature_map import FeatureMapGrad, LayerSpec
from dmfgp.kernel import KernelParams
from dmfgp.mfgp import Dataset, ModelGradient, ModelParams, nll, nll_gradient, sample_prior
from dmfgp.trainer import (
    _PENALTY,
    INFEASIBLE_START,
    TrainConfig,
    _minimize_restart,
    center_targets,
    init_params,
    pack_gradient,
    pack_params,
    train,
    unpack_params,
)

from oracles import central_difference

ARCH = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]


def prior_data(seed, n1=8, n2=4):
    """Self-consistent data: drawn from the model's own prior at random params."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, 1, n1 + n2)).reshape(-1, 1)
    gen = init_params(ARCH, TrainConfig(seed=seed + 1000), 0)
    f1, f2 = sample_prior(gen, x, seed=seed)
    idx2 = rng.choice(n1 + n2, size=n2, replace=False)
    idx1 = np.setdiff1d(np.arange(n1 + n2), idx2)
    return Dataset(x[idx1], f1[idx1], x[idx2], f2[idx2])


class TestTrainConfig:
    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError):
            TrainConfig(restarts=0)

    @pytest.mark.parametrize("iterations", [0, -5])
    def test_rejects_nonpositive_max_iterations(self, iterations):
        with pytest.raises(ValueError):
            TrainConfig(max_iterations=iterations)


class TestInitParams:
    def test_deterministic(self):
        cfg = TrainConfig(seed=7)
        a = init_params(ARCH, cfg, 3)
        b = init_params(ARCH, cfg, 3)
        for wa, wb in zip(a.fmap.weights, b.fmap.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_restart_indices_differ(self):
        cfg = TrainConfig(seed=7)
        a = init_params(ARCH, cfg, 0)
        b = init_params(ARCH, cfg, 1)
        assert not np.allclose(a.fmap.weights[0], b.fmap.weights[0])

    def test_defaults(self):
        p = init_params(ARCH, TrainConfig(seed=0), 0)
        assert p.rho == 1.0
        assert p.k1.log_signal_variance == 0.0
        assert np.all(p.k1.log_lengthscales == 0.0)
        assert p.log_noise1 == pytest.approx(np.log(1e-4))
        for b in p.fmap.biases:
            assert not b.any()

    def test_weight_scale_tracks_input_width(self):
        # weights drawn from N(0, 1/input_width): wider layers get smaller weights
        wide = [LayerSpec(100, 200, "sigmoid")]
        p = init_params(wide, TrainConfig(seed=0), 0)
        assert np.std(p.fmap.weights[0]) == pytest.approx(0.1, rel=0.1)

    def test_identity_mode_frozen(self):
        # the baseline is the zero-layer map on ARCH's input width
        p = init_params(ARCH, TrainConfig(seed=0, freeze_feature_map=True), 0)
        assert p.arch == []
        assert p.fmap.weights == [] and p.fmap.biases == []
        assert p.k1.dim == p.k2.dim == ARCH[0].input_width


class TestPacking:
    def test_round_trip(self):
        cfg = TrainConfig(seed=1)
        p = init_params(ARCH, cfg, 2)
        vec = pack_params(p, cfg)
        q = unpack_params(vec, p, cfg)
        np.testing.assert_array_equal(pack_params(q, cfg), vec)

    def test_frozen_noise_excluded(self):
        p = init_params(ARCH, TrainConfig(seed=1), 0)
        full = pack_params(p, TrainConfig(seed=1))
        frozen = pack_params(p, TrainConfig(seed=1, freeze_noise=True))
        assert full.size == frozen.size + 2

    def test_frozen_map_excluded(self):
        cfg = TrainConfig(seed=1, freeze_feature_map=True)
        p = init_params(ARCH, cfg, 0)
        # rho + two kernels (1 + D each, D = 1 for the identity map) + noise
        assert pack_params(p, cfg).size == 1 + 2 * 2 + 2

    def test_gradient_layout_matches_params(self):
        # a gradient holding the parameters' own values packs to the same
        # vector; random values make any two parts out of order differ
        rng = np.random.default_rng(2)
        for freeze_map in (False, True):
            for freeze_noise in (False, True):
                cfg = TrainConfig(freeze_feature_map=freeze_map, freeze_noise=freeze_noise)
                p0 = init_params(ARCH, cfg, 0)
                vec = pack_params(p0, cfg)
                p = unpack_params(vec + rng.normal(size=vec.size), p0, cfg)
                p.log_noise1, p.log_noise2 = rng.normal(size=2)
                g = ModelGradient(
                    p.rho, p.k1.to_vector(), p.k2.to_vector(),
                    FeatureMapGrad(p.fmap.weights, p.fmap.biases),
                    p.log_noise1, p.log_noise2, nll=0.0,
                )
                np.testing.assert_array_equal(pack_gradient(g, cfg), pack_params(p, cfg))

    def test_wrong_length_rejected(self):
        cfg = TrainConfig(seed=1)
        p = init_params(ARCH, cfg, 0)
        with pytest.raises(ValueError):
            unpack_params(np.zeros(3), p, cfg)


class TestCenterTargets:
    def test_centered_stats(self):
        data = prior_data(1)
        centered, mean, scale = center_targets(data)
        assert np.mean(centered.f) == pytest.approx(0.0, abs=1e-12)
        assert np.std(centered.f) == pytest.approx(1.0, rel=1e-12)
        assert mean == pytest.approx(np.mean(data.f))

    def test_constant_targets_use_unit_scale(self):
        data = Dataset([[0.0], [1.0]], [3.0, 3.0], [[0.5]], [3.0])
        centered, mean, scale = center_targets(data)
        assert scale == 1.0
        np.testing.assert_array_equal(centered.f, np.zeros(3))


class TestTrain:
    def test_descent_from_generating_params(self):
        data = prior_data(3)
        cfg = TrainConfig(seed=3, restarts=2, max_iterations=50)
        report = train(data, ARCH, cfg)
        centered, _, _ = center_targets(data)
        init_nll = nll(init_params(ARCH, cfg, 0), centered)
        assert report.best_nll <= init_nll

    def test_best_nll_reproducible_from_params(self):
        data = prior_data(4)
        cfg = TrainConfig(seed=4, restarts=2, max_iterations=100)
        report = train(data, ARCH, cfg)
        centered, _, _ = center_targets(data)
        assert nll(report.best_params, centered) == pytest.approx(report.best_nll, rel=1e-10)

    def test_best_is_minimum_over_restarts(self):
        data = prior_data(5)
        report = train(data, ARCH, TrainConfig(seed=5, restarts=3, max_iterations=50))
        finals = [r.final_nll for r in report.per_restart]
        assert report.best_nll == min(finals)

    def test_reproducible(self):
        data = prior_data(6)
        cfg = TrainConfig(seed=6, restarts=2, max_iterations=50)
        a = train(data, ARCH, cfg)
        b = train(data, ARCH, cfg)
        assert a.best_nll == b.best_nll
        np.testing.assert_array_equal(
            pack_params(a.best_params, cfg), pack_params(b.best_params, cfg)
        )

    @pytest.mark.parametrize(
        "cap, reason",
        [
            (3, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"),
            (1000, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"),
        ],
        ids=["iteration-cap", "factr"],
    )
    def test_each_restart_reports_the_optimizer_message(self, monkeypatch, cap, reason):
        messages, real_minimize = [], trainer.minimize

        def recording_minimize(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            messages.append(res.message)
            return res

        monkeypatch.setattr(trainer, "minimize", recording_minimize)
        cfg = TrainConfig(seed=0, restarts=2, max_iterations=cap, freeze_feature_map=True)
        report = train(prior_data(0), ARCH, cfg)
        assert [r.stop for r in report.per_restart] == messages == [reason, reason]

    def test_infeasible_start_reports_the_fixed_reason(self, monkeypatch):
        real_init = trainer.init_params

        def init_params_nan_rho_first(arch, config, restart_index):
            params = real_init(arch, config, restart_index)
            if restart_index == 0:
                params.rho = np.nan
            return params

        monkeypatch.setattr(trainer, "init_params", init_params_nan_rho_first)
        cfg = TrainConfig(seed=0, restarts=2, max_iterations=3, freeze_feature_map=True)
        first, second = train(prior_data(0), ARCH, cfg).per_restart
        assert (first.final_nll, first.iterations, first.stop) == (np.inf, 0, INFEASIBLE_START)
        assert second.stop == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"

    def test_identity_baseline_equals_frozen_map_training(self):
        data = prior_data(8)
        cfg = TrainConfig(seed=8, restarts=2, max_iterations=200, freeze_feature_map=True)
        report = train(data, ARCH, cfg)
        assert report.best_params.arch == []
        # one feature dimension: the identity map on 1-d inputs
        assert report.best_params.k1.dim == 1

    def test_arch_width_mismatch(self):
        data = prior_data(9)
        bad = [LayerSpec(2, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
        with pytest.raises(ValueError):
            train(data, bad, TrainConfig(seed=0, restarts=1))


class TestMinimizeRestart:
    def test_objective_runs_once_per_scipy_evaluation(self, monkeypatch):
        calls, nfev = [], []
        real_gradient, real_minimize = mfgp.nll_gradient, trainer.minimize

        def counting_gradient(*args, **kwargs):
            calls.append(None)
            return real_gradient(*args, **kwargs)

        def recording_minimize(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(mfgp, "nll_gradient", counting_gradient)
        monkeypatch.setattr(trainer, "minimize", recording_minimize)
        train(prior_data(12), ARCH, TrainConfig(seed=12, restarts=2, max_iterations=30))
        assert len(nfev) == 2
        assert len(calls) == sum(nfev)

    def test_infeasible_start_is_reported(self):
        calls = []

        def penalised(x):
            calls.append(None)
            return _PENALTY, np.zeros(x.size)

        assert _minimize_restart(penalised, np.zeros(3), 100) is None
        assert len(calls) == 1


def max_gradient_error(data, arch, config):
    """Largest error of the packed analytic NLL gradient against central
    finite differences, at restart 0's start point on the centred targets.

    Each component's error is scaled by max(|analytic|, |fd|, 1e-2), so
    near-zero components are judged on an absolute scale. The step 1e-4
    balances truncation against the Cholesky roundoff floor of the NLL.
    """
    centered, _, _ = center_targets(data)
    params = init_params(arch, config, 0)
    analytic = pack_gradient(nll_gradient(params, centered), config)
    fd = central_difference(
        lambda vec: nll(unpack_params(vec, params, config), centered),
        pack_params(params, config),
        1e-4,
    )
    return np.max(np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-2))


class TestGradientCheck:
    def test_deep_architecture(self):
        cfg = TrainConfig(seed=10, restarts=1)
        assert max_gradient_error(prior_data(10), ARCH, cfg) < 1e-5

    def test_identity_map(self):
        cfg = TrainConfig(seed=11, restarts=1, freeze_feature_map=True)
        assert max_gradient_error(prior_data(11), ARCH, cfg) < 1e-7

    def test_zero_targets_keep_logdet_gradient(self):
        # with f = 0 the quadratic term vanishes; only log-det remains, and its
        # noise gradient trace(K^-1) * noise is strictly positive
        data = Dataset([[0.1], [0.5], [0.9]], np.zeros(3), [[0.3]], [0.0])
        p = init_params(ARCH, TrainConfig(seed=0), 0)
        g = nll_gradient(p, data)
        assert g.log_noise1 > 0.0
        assert g.log_noise2 > 0.0

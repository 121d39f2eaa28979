import copy
from dataclasses import replace

import numpy as np
import pytest

from dmfgp import mfgp, trainer
from dmfgp.feature_map import FeatureMapParams, LayerSpec
from dmfgp.kernel import KernelParams
from dmfgp.mfgp import Dataset, ModelGradient, ModelParams, nll, nll_gradient, sample_prior
from dmfgp.trainer import (
    _PENALTY,
    INFEASIBLE_START,
    TrainConfig,
    TrainingFailedError,
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


class TestParamsEquality:
    """ModelParams and FeatureMapParams compare by value, as KernelParams does."""

    def test_equal_starts_compare_equal(self):
        cfg = TrainConfig(seed=7)
        a, b = init_params(ARCH, cfg, 0), init_params(ARCH, cfg, 0)
        assert a.fmap.weights[0] is not b.fmap.weights[0]
        assert a == b and not a != b
        assert a.fmap == b.fmap and not a.fmap != b.fmap
        # the zero-layer map draws nothing: every restart starts at one point
        frozen = TrainConfig(seed=7, freeze_feature_map=True)
        assert init_params(ARCH, frozen, 0) == init_params(ARCH, frozen, 1)

    def test_restarts_compare_unequal(self):
        cfg = TrainConfig(seed=7)
        a, b = init_params(ARCH, cfg, 0), init_params(ARCH, cfg, 1)
        assert a != b and a.fmap != b.fmap
        assert replace(a, fmap=b.fmap) == b  # only the drawn weights differ

    def test_every_part_counts(self):
        a = init_params(ARCH, TrainConfig(seed=7), 0)
        other_kernel = KernelParams(0.5, np.zeros(2))
        bias = [b + 1.0 for b in a.fmap.biases]
        arch = [LayerSpec(1, 3, "identity"), ARCH[1]]
        for changed in (
            replace(a, rho=-1.0),
            replace(a, k1=other_kernel),
            replace(a, k2=other_kernel),
            replace(a, arch=arch),
            replace(a, fmap=FeatureMapParams(a.fmap.weights, bias)),
            replace(a, log_noise1=0.0),
            replace(a, log_noise2=0.0),
        ):
            assert a != changed and changed != a
        assert a != (a.rho, a.k1, a.k2, a.arch, a.fmap, a.log_noise1, a.log_noise2)
        # a map with fewer layers is unequal, not truncated by zip
        short = FeatureMapParams(a.fmap.weights[:1], a.fmap.biases[:1])
        assert a.fmap != short and short != a.fmap

    def test_nan_is_unequal(self):
        a = init_params(ARCH, TrainConfig(seed=7), 0)
        b = copy.deepcopy(a)
        b.fmap.weights[1][0, 1] = np.nan
        assert b != copy.deepcopy(b) and b.fmap != copy.deepcopy(b.fmap)
        assert b != a
        assert replace(a, rho=np.nan) != replace(a, rho=np.nan)

    def test_unhashable(self):
        a = init_params(ARCH, TrainConfig(seed=7), 0)
        for value in (a, a.fmap):
            with pytest.raises(TypeError):
                hash(value)


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
                    FeatureMapParams(p.fmap.weights, p.fmap.biases),
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


def record_minimize(monkeypatch):
    """Route trainer's minimize through a wrapper; returns the list to which
    each call's (x0, result) pair is appended."""
    calls, real_minimize = [], trainer.minimize

    def recording_minimize(fun, x0, *args, **kwargs):
        res = real_minimize(fun, x0, *args, **kwargs)
        res.x0 = np.array(x0)
        calls.append(res)
        return res

    monkeypatch.setattr(trainer, "minimize", recording_minimize)
    return calls


def record(r):
    """A restart's record, its index aside."""
    return (r.final_nll, r.iterations, r.stop)


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
        # the two AR(1) restarts share their start point, so one call serves both
        calls = record_minimize(monkeypatch)
        cfg = TrainConfig(seed=0, restarts=2, max_iterations=cap, freeze_feature_map=True)
        report = train(prior_data(0), ARCH, cfg)
        assert [res.message for res in calls] == [reason]
        assert [r.stop for r in report.per_restart] == [reason, reason]

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

    @pytest.mark.parametrize("freeze", [False, True], ids=["deep", "frozen"])
    def test_every_start_infeasible_fails_training(self, monkeypatch, freeze):
        real_init = trainer.init_params

        def init_params_nan_rho(arch, config, restart_index):
            params = real_init(arch, config, restart_index)
            params.rho = np.nan
            return params

        monkeypatch.setattr(trainer, "init_params", init_params_nan_rho)
        cfg = TrainConfig(seed=0, restarts=3, max_iterations=3, freeze_feature_map=freeze)
        with pytest.raises(TrainingFailedError, match="all 3 restarts failed"):
            train(prior_data(0), ARCH, cfg)

    def test_equal_nlls_keep_the_first_start(self, monkeypatch):
        # every run ends at its own start with the same NLL; the best is
        # restart 0's, and its parameters are unpacked once, after the loop
        unpacked = []
        real_unpack = trainer.unpack_params

        def recording_unpack(*args, **kwargs):
            unpacked.append(None)
            return real_unpack(*args, **kwargs)

        monkeypatch.setattr(trainer, "unpack_params", recording_unpack)
        monkeypatch.setattr(
            trainer, "_minimize_restart", lambda fun, x0, cap: (x0, -1.5, 4, "fixed")
        )
        cfg = TrainConfig(seed=0, restarts=3)
        report = train(prior_data(0), ARCH, cfg)
        starts = [pack_params(init_params(ARCH, cfg, r), cfg) for r in range(3)]
        assert len({x.tobytes() for x in starts}) == 3
        assert report.best_nll == -1.5
        np.testing.assert_array_equal(pack_params(report.best_params, cfg), starts[0])
        assert len(unpacked) == 1
        assert [record(r) for r in report.per_restart] == [(-1.5, 4, "fixed")] * 3

    def test_factor_failure_mid_fit_is_penalised(self, monkeypatch):
        # the third factorization of an AR(1) fit fails: that evaluation
        # gets the penalty, and the line search steps back from it
        factorizations, raised = [], []
        real_cholesky, real_gradient = mfgp.cholesky, mfgp.nll_gradient

        def failing_third_cholesky(A):
            factorizations.append(None)
            if len(factorizations) == 3:
                raise np.linalg.LinAlgError("injected")
            return real_cholesky(A)

        def recording_gradient(*args, **kwargs):
            try:
                return real_gradient(*args, **kwargs)
            except mfgp.NotPositiveDefiniteError as e:
                raised.append(e)
                raise

        data = prior_data(0)  # drawn before the patch: sample_prior factors too
        monkeypatch.setattr(mfgp, "cholesky", failing_third_cholesky)
        monkeypatch.setattr(mfgp, "nll_gradient", recording_gradient)
        cfg = TrainConfig(seed=0, restarts=1, freeze_feature_map=True)
        (result,) = train(data, ARCH, cfg).per_restart
        assert len(factorizations) > 3
        assert len(raised) == 1 and np.isfinite(raised[0].jitter)
        assert np.isfinite(result.final_nll)
        assert result.stop == "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"

    def test_identity_baseline_equals_frozen_map_training(self):
        data = prior_data(8)
        cfg = TrainConfig(seed=8, restarts=2, max_iterations=200, freeze_feature_map=True)
        report = train(data, ARCH, cfg)
        assert report.best_params.arch == []
        # one feature dimension: the identity map on 1-d inputs
        assert report.best_params.k1.dim == 1

    @pytest.mark.parametrize("freeze", [False, True], ids=["deep", "frozen"])
    def test_empty_arch_names_the_baseline_switch(self, freeze):
        # the zero-layer map is chosen by freeze_feature_map, not by an empty arch
        config = TrainConfig(seed=0, restarts=1, freeze_feature_map=freeze)
        for call in (lambda: train(prior_data(9), [], config), lambda: init_params([], config, 0)):
            with pytest.raises(ValueError, match="freeze_feature_map"):
                call()

    def test_arch_width_mismatch(self):
        data = prior_data(9)
        bad = [LayerSpec(2, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
        with pytest.raises(ValueError):
            train(data, bad, TrainConfig(seed=0, restarts=1))


class TestDistinctStarts:
    """train minimizes each distinct start point once and copies that run's
    record to the restarts that repeat it."""

    AR1 = TrainConfig(seed=0, restarts=10, freeze_feature_map=True)

    def test_ar1_restarts_minimize_once(self, monkeypatch):
        calls = record_minimize(monkeypatch)
        report = train(prior_data(0), ARCH, self.AR1)
        assert len(calls) == 1
        first = (calls[0].fun, calls[0].nit, calls[0].message)
        assert [r.restart for r in report.per_restart] == list(range(10))
        assert [record(r) for r in report.per_restart] == [first] * 10

    def test_ar1_fit_equals_a_single_restart(self):
        data = prior_data(0)
        single = TrainConfig(seed=0, restarts=1, freeze_feature_map=True)
        ten, one = train(data, ARCH, self.AR1), train(data, ARCH, single)
        assert ten.best_nll == one.best_nll
        packed = [pack_params(r.best_params, r.config).tobytes() for r in (ten, one)]
        assert packed[0] == packed[1]

    def test_shared_start_copies_the_first_run(self, monkeypatch):
        real_init = trainer.init_params

        def init_params_2_as_0(arch, config, restart_index):
            return real_init(arch, config, 0 if restart_index == 2 else restart_index)

        monkeypatch.setattr(trainer, "init_params", init_params_2_as_0)
        calls = record_minimize(monkeypatch)
        cfg = TrainConfig(seed=0, restarts=3, max_iterations=20)
        first, second, third = train(prior_data(0), ARCH, cfg).per_restart
        assert len(calls) == 2
        assert calls[0].x0.tobytes() != calls[1].x0.tobytes()
        assert third.restart == 2
        assert record(third) == record(first) == (calls[0].fun, calls[0].nit, calls[0].message)
        assert record(second) == (calls[1].fun, calls[1].nit, calls[1].message)

    def test_shared_infeasible_start_is_minimized_once(self, monkeypatch):
        real_init = trainer.init_params

        def init_params_nan_rho_even(arch, config, restart_index):
            params = real_init(arch, config, restart_index)
            if restart_index % 2 == 0:
                params.rho = np.nan
            return params

        # restarts 0 and 2 share an infeasible start; the AR(1) start of
        # restarts 1 and 3 is feasible
        monkeypatch.setattr(trainer, "init_params", init_params_nan_rho_even)
        calls = record_minimize(monkeypatch)
        cfg = TrainConfig(seed=0, restarts=4, max_iterations=3, freeze_feature_map=True)
        report = train(prior_data(0), ARCH, cfg)
        assert len(calls) == 2
        assert [res.fun >= _PENALTY for res in calls] == [True, False]
        infeasible = (np.inf, 0, INFEASIBLE_START)
        assert [record(r) for r in report.per_restart[0::2]] == [infeasible, infeasible]
        assert [r.stop for r in report.per_restart[1::2]] == [calls[1].message] * 2

    def test_deep_restarts_each_minimize(self, monkeypatch):
        calls = record_minimize(monkeypatch)
        train(prior_data(0), ARCH, TrainConfig(seed=0, restarts=3, max_iterations=20))
        assert len(calls) == 3


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

        x0 = np.array([0.5, -1.0, 2.0])
        x, f, iterations, stop = _minimize_restart(penalised, x0, 100)
        np.testing.assert_array_equal(x, x0)
        assert (f, iterations, stop) == (np.inf, 0, INFEASIBLE_START)
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

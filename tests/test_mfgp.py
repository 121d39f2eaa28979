import numpy as np
import pytest

from dmfgp import feature_map as fm
from dmfgp.feature_map import LayerSpec
from dmfgp.kernel import KernelParams
from dmfgp.mfgp import (
    NOISE_FLOOR,
    Dataset,
    ModelParams,
    NotPositiveDefiniteError,
    assemble,
    nll,
    nll_gradient,
    noise_variance,
    predict,
    sample_prior,
)

from oracles import ar1_joint_cov, ar1_nll, ar1_predict

JITTER = 1e-10  # fixed explicit jitter so package and oracle factor the same matrix


def ar1_model(D=1, rho=1.3, sv1=1.5, ls1=0.7, sv2=0.4, ls2=1.2, n1=1e-4, n2=1e-5):
    arch, fmap = fm.identity_map(D)
    k1 = KernelParams(np.log(sv1), np.full(D, np.log(ls1)))
    k2 = KernelParams(np.log(sv2), np.full(D, np.log(ls2)))
    return ModelParams(rho, k1, k2, arch, fmap, np.log(n1), np.log(n2))


def random_data(seed, n1=7, n2=3, D=1):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.uniform(0, 2, (n1, D)), rng.normal(size=n1),
        rng.uniform(0, 2, (n2, D)), rng.normal(size=n2),
    )


def oracle_args(params, data):
    return dict(
        x1=data.x1, f1=data.f1, x2=data.x2, f2=data.f2,
        rho=params.rho,
        sf2_1=params.k1.signal_variance, ls1=params.k1.lengthscales,
        sf2_2=params.k2.signal_variance, ls2=params.k2.lengthscales,
        n1var=noise_variance(params.log_noise1),
        n2var=noise_variance(params.log_noise2),
    )


class TestDataset:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 1)), np.zeros(2), np.zeros((1, 1)), np.zeros(1))

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(3), np.zeros((1, 1)), np.zeros(1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[0.0], [np.nan]], [0.0, 1.0], [[0.0]], [0.0])

    def test_shapes_and_concatenation(self):
        d = random_data(0)
        assert d.n1 == 7 and d.n2 == 3 and d.d_in == 1
        np.testing.assert_array_equal(d.f, np.concatenate([d.f1, d.f2]))


class TestNoiseVariance:
    def test_floor(self):
        assert noise_variance(-1000.0) == pytest.approx(NOISE_FLOOR)

    def test_value(self):
        assert noise_variance(np.log(1e-4)) == pytest.approx(1e-4 + NOISE_FLOOR)


class TestJointCovariance:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle_with_identity_map(self, seed):
        params = ar1_model(D=2, rho=0.8)
        data = random_data(seed, D=2)
        b = assemble(params, data, jitter=JITTER)
        expected = ar1_joint_cov(
            data.x1, data.x2, params.rho,
            params.k1.signal_variance, params.k1.lengthscales,
            params.k2.signal_variance, params.k2.lengthscales,
            noise_variance(params.log_noise1), noise_variance(params.log_noise2),
        )
        np.testing.assert_allclose(b.K, expected, rtol=1e-13)

    def test_features_pass_through_map(self):
        arch = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
        rng = np.random.default_rng(0)
        fmap = fm.FeatureMapParams(
            [rng.normal(size=(3, 1)), rng.normal(size=(2, 3))],
            [rng.normal(size=3), rng.normal(size=2)],
        )
        params = ModelParams(
            1.0, KernelParams(0.0, np.zeros(2)), KernelParams(0.0, np.zeros(2)), arch, fmap
        )
        data = random_data(1)
        b = assemble(params, data, jitter=JITTER)
        np.testing.assert_array_equal(b.H[: data.n1], fm.forward(arch, fmap, data.x1))
        np.testing.assert_array_equal(b.H[data.n1 :], fm.forward(arch, fmap, data.x2))

    def test_raises_on_overflowing_parameters(self):
        params = ar1_model()
        params = ModelParams(
            params.rho, KernelParams(1e4, np.zeros(1)), params.k2,
            params.arch, params.fmap, params.log_noise1, params.log_noise2,
        )
        with pytest.raises(NotPositiveDefiniteError):
            with np.errstate(over="ignore"):
                assemble(params, random_data(2), jitter=JITTER)


class TestNll:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        params = ar1_model(rho=0.6 + 0.3 * seed)
        data = random_data(seed)
        expected = ar1_nll(jitter=JITTER, **oracle_args(params, data))
        assert nll(params, data, jitter=JITTER) == pytest.approx(expected, rel=1e-10)

    def test_single_observation_closed_form(self):
        # one low-fidelity point: a univariate Gaussian likelihood
        params = ar1_model()
        data = Dataset([[0.3]], [0.7], np.zeros((0, 1)), np.zeros(0))
        v = params.k1.signal_variance + noise_variance(params.log_noise1) + JITTER
        expected = 0.5 * 0.7**2 / v + 0.5 * np.log(v) + 0.5 * np.log(2 * np.pi)
        assert nll(params, data, jitter=JITTER) == pytest.approx(expected, rel=1e-12)


class TestNllGradient:
    def fd(self, mutate, params, data, step=1e-6):
        def at(eps):
            return nll(mutate(params, eps), data, jitter=JITTER)

        return (at(step) - at(-step)) / (2 * step)

    @pytest.mark.parametrize("seed", range(3))
    def test_scalar_params_identity_map(self, seed):
        params = ar1_model(rho=0.9)
        data = random_data(seed)
        g = nll_gradient(params, data, jitter=JITTER)

        def with_rho(p, eps):
            return ModelParams(p.rho + eps, p.k1, p.k2, p.arch, p.fmap, p.log_noise1, p.log_noise2)

        def with_n1(p, eps):
            return ModelParams(p.rho, p.k1, p.k2, p.arch, p.fmap, p.log_noise1 + eps, p.log_noise2)

        def with_sv1(p, eps):
            k1 = KernelParams(p.k1.log_signal_variance + eps, p.k1.log_lengthscales)
            return ModelParams(p.rho, k1, p.k2, p.arch, p.fmap, p.log_noise1, p.log_noise2)

        def with_ls2(p, eps):
            k2 = KernelParams(p.k2.log_signal_variance, p.k2.log_lengthscales + eps)
            return ModelParams(p.rho, p.k1, k2, p.arch, p.fmap, p.log_noise1, p.log_noise2)

        assert g.rho == pytest.approx(self.fd(with_rho, params, data), rel=1e-5, abs=1e-7)
        assert g.log_noise1 == pytest.approx(self.fd(with_n1, params, data), rel=1e-5, abs=1e-7)
        assert g.k1[0] == pytest.approx(self.fd(with_sv1, params, data), rel=1e-5, abs=1e-7)
        assert g.k2[1] == pytest.approx(self.fd(with_ls2, params, data), rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("jitter", [JITTER, None])
    def test_carries_the_nll_it_was_taken_at(self, jitter):
        params = ar1_model(rho=0.9)
        data = random_data(8)
        assert nll_gradient(params, data, jitter=jitter).nll == nll(params, data, jitter=jitter)

    def test_frozen_map_gradient_is_zero(self):
        params = ar1_model()
        g = nll_gradient(params, random_data(0), jitter=JITTER)
        for w, b in zip(g.fmap.weights, g.fmap.biases):
            assert not w.any() and not b.any()

    def test_feature_map_weights_match_finite_differences(self):
        arch = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
        rng = np.random.default_rng(5)
        fmap = fm.FeatureMapParams(
            [rng.normal(0, 0.7, size=(3, 1)), rng.normal(0, 0.7, size=(2, 3))],
            [rng.normal(size=3), rng.normal(size=2)],
        )
        params = ModelParams(
            0.8, KernelParams(0.1, 0.2 * np.ones(2)), KernelParams(-0.3, np.zeros(2)),
            arch, fmap, np.log(1e-3), np.log(1e-3),
        )
        data = random_data(6)
        g = nll_gradient(params, data, jitter=JITTER)
        step = 1e-5
        for ell in range(2):
            w = fmap.weights[ell]
            for idx in np.ndindex(w.shape):
                def at(eps, ell=ell, idx=idx):
                    p = params.copy()
                    p.fmap.weights[ell][idx] += eps
                    return nll(p, data, jitter=JITTER)

                fd = (at(step) - at(-step)) / (2 * step)
                assert g.fmap.weights[ell][idx] == pytest.approx(fd, rel=2e-5, abs=1e-6)
            b = fmap.biases[ell]
            for j in range(b.size):
                def at(eps, ell=ell, j=j):
                    p = params.copy()
                    p.fmap.biases[ell][j] += eps
                    return nll(p, data, jitter=JITTER)

                fd = (at(step) - at(-step)) / (2 * step)
                assert g.fmap.biases[ell][j] == pytest.approx(fd, rel=2e-5, abs=1e-6)

    def test_automatic_jitter_chain_term(self):
        # with jitter=None the added diagonal tracks mean(diag K); the gradient
        # of the signal variances must include that dependence
        params = ar1_model(rho=0.9)
        data = random_data(7)
        g = nll_gradient(params, data, jitter=None)
        step = 1e-5

        def at(eps):
            k1 = KernelParams(params.k1.log_signal_variance + eps, params.k1.log_lengthscales)
            p = ModelParams(params.rho, k1, params.k2, params.arch, params.fmap,
                            params.log_noise1, params.log_noise2)
            return nll(p, data, jitter=None)

        fd = (at(step) - at(-step)) / (2 * step)
        assert g.k1[0] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestPredict:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle(self, seed):
        params = ar1_model(rho=1.1)
        data = random_data(seed)
        xs = np.linspace(-0.5, 2.5, 9).reshape(-1, 1)
        out = predict(params, data, xs, jitter=JITTER)
        mean, var = ar1_predict(xs=xs, jitter=JITTER, **oracle_args(params, data))
        np.testing.assert_allclose(out.mean, mean, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(out.variance, var, rtol=1e-8, atol=1e-11)

    def test_interpolates_high_fidelity_with_tiny_noise(self):
        params = ar1_model(n1=1e-10, n2=1e-10)
        rng = np.random.default_rng(3)
        x2 = rng.uniform(0, 1, (3, 1))
        data = Dataset(rng.uniform(0, 1, (6, 1)), rng.normal(size=6), x2, rng.normal(size=3))
        out = predict(params, data, x2, jitter=1e-12)
        np.testing.assert_allclose(out.mean, data.f2, atol=1e-4)
        assert np.all(out.variance < 1e-4)

    def test_reverts_to_prior_far_from_data(self):
        params = ar1_model(rho=0.7)
        data = random_data(4)
        out = predict(params, data, [[50.0]], jitter=JITTER)
        prior = params.rho**2 * params.k1.signal_variance + params.k2.signal_variance
        assert out.mean[0] == pytest.approx(0.0, abs=1e-8)
        assert out.variance[0] == pytest.approx(prior, rel=1e-8)

    def test_variance_nonnegative(self):
        params = ar1_model(n1=1e-8, n2=1e-8)
        data = random_data(5)
        out = predict(params, data, data.x2, jitter=None)
        assert np.all(out.variance >= 0.0)

    def test_rejects_wrong_query_width(self):
        with pytest.raises(ValueError):
            predict(ar1_model(), random_data(0), np.zeros((2, 3)))


class TestSamplePrior:
    def test_deterministic(self):
        params = ar1_model()
        X = np.linspace(0, 1, 8).reshape(-1, 1)
        a1, a2 = sample_prior(params, X, seed=42)
        b1, b2 = sample_prior(params, X, seed=42)
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)

    def test_seed_changes_draw(self):
        params = ar1_model()
        X = np.linspace(0, 1, 8).reshape(-1, 1)
        a1, _ = sample_prior(params, X, seed=0)
        b1, _ = sample_prior(params, X, seed=1)
        assert not np.allclose(a1, b1)

    def test_high_fidelity_tracks_rho_when_discrepancy_vanishes(self):
        # with a negligible discrepancy kernel, f2 = rho * f1 almost exactly
        params = ar1_model(rho=1.7, sv2=1e-16)
        X = np.linspace(0, 1, 10).reshape(-1, 1)
        f1, f2 = sample_prior(params, X, seed=3, jitter=1e-12)
        np.testing.assert_allclose(f2, 1.7 * f1, atol=1e-4)

    def test_shapes(self):
        f1, f2 = sample_prior(ar1_model(D=2), np.zeros((5, 2)), seed=0)
        assert f1.shape == (5,) and f2.shape == (5,)

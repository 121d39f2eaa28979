import copy
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from dmfgp import benchmarks, mfgp
from dmfgp import feature_map as fm
from dmfgp import kernel as kern
from dmfgp.feature_map import LayerSpec
from dmfgp.kernel import KernelParams
from dmfgp.mfgp import (
    NOISE_FLOOR,
    Dataset,
    ModelParams,
    NotPositiveDefiniteError,
    _chol,
    assemble,
    nll,
    nll_gradient,
    noise_variance,
    predict,
    sample_prior,
)

from oracles import ar1_joint_cov, ar1_nll, ar1_predict, gp_nll, se_kernel_matrix
from test_cli import _src_env


def ar1_model(D=1, rho=1.3, sv1=1.5, ls1=0.7, sv2=0.4, ls2=1.2, n1=1e-4, n2=1e-5):
    arch, fmap = fm.identity_map(D)
    k1 = KernelParams(np.log(sv1), np.full(D, np.log(ls1)))
    k2 = KernelParams(np.log(sv2), np.full(D, np.log(ls2)))
    return ModelParams(rho, k1, k2, arch, fmap, np.log(n1), np.log(n2))


def deep_model():
    arch = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
    rng = np.random.default_rng(5)
    fmap = fm.FeatureMapParams(
        [rng.normal(0, 0.7, size=(3, 1)), rng.normal(0, 0.7, size=(2, 3))],
        [rng.normal(size=3), rng.normal(size=2)],
    )
    return ModelParams(
        0.8, KernelParams(0.1, 0.2 * np.ones(2)), KernelParams(-0.3, np.zeros(2)),
        arch, fmap, np.log(1e-3), np.log(1e-3),
    )


def random_data(seed, n1=7, n2=3, D=1):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.uniform(0, 2, (n1, D)), rng.normal(size=n1),
        rng.uniform(0, 2, (n2, D)), rng.normal(size=n2),
    )


def assembled_with_k(params, data):
    """assemble's bundle, and a copy of the joint covariance K that it
    factored, taken as _chol receives it: the factor overwrites K."""
    seen, chol = [], mfgp._chol
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mfgp, "_chol", lambda K: seen.append(K.copy()) or chol(K))
        b = assemble(params, data)
    (K,) = seen
    return b, K


def oracle_args(params, data):
    """The oracles' arguments, with the jitter the program itself added, so
    package and oracle factor the same matrix."""
    return dict(
        jitter=assemble(params, data).jitter,
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


class TestChol:
    def test_raises_at_the_base_jitter(self):
        # eigenvalue -1: the one jitter, 1e-8 of mean(diag K) = 1, cannot help
        with pytest.raises(NotPositiveDefiniteError) as e:
            _chol(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert e.value.jitter == 1e-8

    def test_factors_once(self, monkeypatch):
        # indefinite by 1e-7, which a jitter of 1e-6 would mend
        calls, real_cholesky = [], mfgp.cholesky

        def counting_cholesky(A):
            calls.append(None)
            return real_cholesky(A)

        monkeypatch.setattr(mfgp, "cholesky", counting_cholesky)
        with pytest.raises(NotPositiveDefiniteError) as e:
            _chol(np.array([[1.0, 1.0 + 1e-7], [1.0 + 1e-7, 1.0]]))
        assert len(calls) == 1
        assert e.value.jitter == 1e-8

    def test_raises_on_non_finite_entries(self):
        with pytest.raises(NotPositiveDefiniteError) as e:
            _chol(np.array([[1.0, np.inf], [np.inf, 1.0]]))
        assert e.value.jitter == np.inf

    def test_well_conditioned_jitter_is_the_starting_rule(self):
        b, K = assembled_with_k(ar1_model(), random_data(0))
        assert b.jitter == 1e-8 * np.mean(np.diag(K))
        assert b.mean_diag == np.mean(np.diag(K))

    def test_factors_in_the_memory_of_k(self):
        X = np.random.default_rng(0).uniform(0, 2, (40, 2))
        K = kern.gram(KernelParams(0.3, [-0.2, 0.1]), X, X)
        A = K + 1e-8 * np.mean(np.diag(K)) * np.eye(40)
        expected = scipy.linalg.cholesky(A, lower=True, check_finite=False)
        L = _chol(K)[0]
        assert np.shares_memory(L, K)
        assert L.tobytes() == expected.tobytes()

    def test_negative_zero_is_factored_as_zero(self):
        # a negative rho times an underflowed Gram entry gives -0.0; K + j*I
        # reads it as +0.0, and so does the factor
        L = _chol(np.array([[1.0, -0.0], [-0.0, 2.0]]))[0]
        assert not np.signbit(L).any()


class TestLapackHelpers:
    """mfgp's direct LAPACK calls return scipy.linalg's bits."""

    @pytest.fixture(scope="class")
    def factored(self):
        # a joint covariance at benchmark size: 50 + 15 rows on a deep map
        return assembled_with_k(deep_model(), random_data(2, n1=50, n2=15))

    @pytest.fixture(scope="class")
    def bundle(self, factored):
        return factored[0]

    @staticmethod
    def same_bits(a, b):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_cholesky(self, factored):
        bundle, K = factored
        A = K + bundle.jitter * np.eye(K.shape[0])
        expected = scipy.linalg.cholesky(A, lower=True, check_finite=False)
        L = mfgp.cholesky(np.asfortranarray(A))
        assert self.same_bits(L, expected) and L.flags.f_contiguous
        assert self.same_bits(L, bundle.chol)

    @pytest.mark.parametrize("rhs", ["vector", "identity"])
    def test_cho_solve(self, bundle, rhs):
        n = bundle.chol.shape[0]
        b = np.random.default_rng(0).normal(size=n) if rhs == "vector" else np.eye(n)
        expected = scipy.linalg.cho_solve((bundle.chol, True), b, check_finite=False)
        assert self.same_bits(mfgp.cho_solve(bundle.chol, b), expected)

    @pytest.mark.parametrize("m", [1, 200])
    def test_solve_triangular_on_a_transposed_cross_covariance(self, bundle, m):
        Ks = np.random.default_rng(1).normal(size=(m, bundle.chol.shape[0]))
        assert Ks.T.flags.f_contiguous
        expected = scipy.linalg.solve_triangular(bundle.chol, Ks.T, lower=True)
        assert self.same_bits(mfgp.solve_triangular(bundle.chol, Ks.T), expected)

    def test_cholesky_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            mfgp.cholesky(np.asfortranarray([[1.0, 2.0], [2.0, 1.0]]))


class TestJointCovariance:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle_with_identity_map(self, seed):
        params = ar1_model(D=2, rho=0.8)
        data = random_data(seed, D=2)
        K = assembled_with_k(params, data)[1]
        expected = ar1_joint_cov(
            data.x1, data.x2, params.rho,
            params.k1.signal_variance, params.k1.lengthscales,
            params.k2.signal_variance, params.k2.lengthscales,
            noise_variance(params.log_noise1), noise_variance(params.log_noise2),
        )
        np.testing.assert_allclose(K, expected, rtol=1e-13)

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
        b = assemble(params, data)
        np.testing.assert_array_equal(b.H[: data.n1], fm.forward(arch, fmap, data.x1)[-1])
        np.testing.assert_array_equal(b.H[data.n1 :], fm.forward(arch, fmap, data.x2)[-1])

    def test_raises_on_overflowing_parameters(self):
        params = ar1_model()
        params = ModelParams(
            params.rho, KernelParams(1e4, np.zeros(1)), params.k2,
            params.arch, params.fmap, params.log_noise1, params.log_noise2,
        )
        with pytest.raises(NotPositiveDefiniteError):
            with np.errstate(over="ignore"):
                assemble(params, random_data(2))


class TestNll:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        params = ar1_model(rho=0.6 + 0.3 * seed)
        data = random_data(seed)
        expected = ar1_nll(**oracle_args(params, data))
        assert nll(params, data) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_splits_on_a_nested_design(self, seed):
        # Kennedy & O'Hagan (2000, sec. 2.3): with x2 a subset of x1 and no
        # low-fidelity noise, d = f2 - rho * f1(x2) is independent of f1, and
        # nll is the sum of two GP NLLs, of f1 under K1 = k1 + e*I and of d
        # under K2 = k2 + (s2 + j)*I; e = s1 + j, j the bundle's jitter.
        # With e > 0, d given f1 has mean -rho*u, u = e P K1^-1 f1 (P picks
        # x2's rows of x1), and covariance M = K2 + S, 0 <= S <= rho^2 e I.
        # Since M^-1 <= K2^-1, nll - split is bounded by
        #   0.5 log det(M K2^-1)               <= 0.5 rho^2 e tr K2^-1
        #   0.5 d^T (K2^-1 - M^-1) d           <= 0.5 rho^2 e |K2^-1 d|^2
        #   0.5 |(d + rho u)^T M^-1 (d + rho u) - d^T M^-1 d|
        #       <= |rho| sqrt(u^T K2^-1 u d^T K2^-1 d) + 0.5 rho^2 u^T K2^-1 u
        rng = np.random.default_rng(seed)
        D, n1, n2 = 1 + seed % 2, 12, 5
        rho = (0.7, 1.3, -0.9, 0.4, 1.8)[seed]
        params = ar1_model(D=D, rho=rho, n1=1e-30, n2=1e-4)  # s1 at NOISE_FLOOR
        x1 = rng.uniform(0, 2, (n1, D))
        idx = rng.choice(n1, n2, replace=False)
        f1 = np.sin(3 * x1).sum(axis=1)
        delta = 0.3 * np.cos(2 * x1[idx]).sum(axis=1)
        data = Dataset(x1, f1, x1[idx], rho * f1[idx] + delta)
        j = assemble(params, data).jitter
        k1, k2 = params.k1, params.k2
        e = noise_variance(params.log_noise1) + j
        K1 = se_kernel_matrix(k1.signal_variance, k1.lengthscales, x1, x1) + e * np.eye(n1)
        K2 = se_kernel_matrix(k2.signal_variance, k2.lengthscales, x1[idx], x1[idx])
        K2 += (noise_variance(params.log_noise2) + j) * np.eye(n2)
        d = data.f2 - rho * f1[idx]
        split = gp_nll(K1, f1) + gp_nll(K2, d)

        K2inv = np.linalg.inv(K2)
        u = e * (np.linalg.inv(K1) @ f1)[idx]
        uKu, dKd, Kd = u @ K2inv @ u, d @ K2inv @ d, K2inv @ d
        bound = 0.5 * rho**2 * e * (np.trace(K2inv) + Kd @ Kd)
        bound += abs(rho) * np.sqrt(uKu * dKd) + 0.5 * rho**2 * uKu
        # a cross block with rho off by 0.1% moves nll by 1e-2 or more here
        assert bound < 5e-3
        assert abs(nll(params, data) - split) <= bound

    def test_single_observation_closed_form(self):
        # one low-fidelity point: a univariate Gaussian likelihood
        params = ar1_model()
        data = Dataset([[0.3]], [0.7], np.zeros((0, 1)), np.zeros(0))
        v = params.k1.signal_variance + noise_variance(params.log_noise1)
        v += assemble(params, data).jitter
        expected = 0.5 * 0.7**2 / v + 0.5 * np.log(v) + 0.5 * np.log(2 * np.pi)
        assert nll(params, data) == pytest.approx(expected, rel=1e-12)


class TestNllGradient:
    def fd(self, mutate, params, data, step=1e-4):
        # the jitter follows mean(diag K), and so moves the low-fidelity
        # diagonal in ulp steps as rho does; a step this wide keeps that
        # roundoff staircase below the tolerance, and truncation too
        def at(eps):
            return nll(mutate(params, eps), data)

        return (at(step) - at(-step)) / (2 * step)

    @pytest.mark.parametrize("seed", range(3))
    def test_scalar_params_identity_map(self, seed):
        params = ar1_model(rho=0.9)
        data = random_data(seed)
        g = nll_gradient(params, data)

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

    def test_carries_the_nll_it_was_taken_at(self):
        params = ar1_model(rho=0.9)
        data = random_data(8)
        assert nll_gradient(params, data).nll == nll(params, data)

    def test_frozen_map_gradient_is_zero(self):
        params = ar1_model()
        g = nll_gradient(params, random_data(0))
        for w, b in zip(g.fmap.weights, g.fmap.biases):
            assert not w.any() and not b.any()

    def test_feature_map_weights_match_finite_differences(self):
        params = deep_model()
        fmap = params.fmap
        data = random_data(6)
        g = nll_gradient(params, data)
        step = 1e-5
        for ell in range(2):
            w = fmap.weights[ell]
            for idx in np.ndindex(w.shape):
                def at(eps, ell=ell, idx=idx):
                    p = copy.deepcopy(params)
                    p.fmap.weights[ell][idx] += eps
                    return nll(p, data)

                fd = (at(step) - at(-step)) / (2 * step)
                assert g.fmap.weights[ell][idx] == pytest.approx(fd, rel=2e-5, abs=1e-6)
            b = fmap.biases[ell]
            for j in range(b.size):
                def at(eps, ell=ell, j=j):
                    p = copy.deepcopy(params)
                    p.fmap.biases[ell][j] += eps
                    return nll(p, data)

                fd = (at(step) - at(-step)) / (2 * step)
                assert g.fmap.biases[ell][j] == pytest.approx(fd, rel=2e-5, abs=1e-6)

    def test_automatic_jitter_chain_term(self):
        # the added diagonal tracks mean(diag K); the gradient of the signal
        # variances must include that dependence
        params = ar1_model(rho=0.9)
        data = random_data(7)
        g = nll_gradient(params, data)
        step = 1e-5

        def at(eps):
            k1 = KernelParams(params.k1.log_signal_variance + eps, params.k1.log_lengthscales)
            p = ModelParams(params.rho, k1, params.k2, params.arch, params.fmap,
                            params.log_noise1, params.log_noise2)
            return nll(p, data)

        fd = (at(step) - at(-step)) / (2 * step)
        assert g.k1[0] == pytest.approx(fd, rel=1e-5, abs=1e-7)


    @pytest.mark.parametrize("deep", [True, False], ids=["deep", "zero-layer"])
    def test_one_gram_per_kernel(self, monkeypatch, deep):
        # the Gram comes out of gram_grad_hyper, and builds K and the input
        # derivatives too
        calls = Counter()
        for name in ("gram", "gram_grad_hyper", "gram_grad_inputs"):
            def counted(*args, _fn=getattr(kern, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(kern, name, counted)
        nll_gradient(deep_model() if deep else ar1_model(), random_data(6))
        expected = {"gram_grad_hyper": 2}
        if deep:
            expected["gram_grad_inputs"] = 2
        assert calls == expected

    def test_one_feature_map_pass(self, monkeypatch):
        # the backward passes take the activations of the pass that built H:
        # deep_model's one sigmoid layer runs once per pass over the map
        calls = Counter()
        for name in ("forward", "_sigmoid"):
            def counted(*args, _fn=getattr(fm, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(fm, name, counted)
        nll_gradient(deep_model(), random_data(6))
        assert calls == {"forward": 1, "_sigmoid": 1}


class TestPredict:
    @pytest.mark.parametrize(
        "seed, rho",
        [(0, 1.1), (1, 1.1), (2, 1.1), (0, -0.8), (1, -0.8), (2, -0.8)],
        ids=["0", "1", "2", "0-negative-rho", "1-negative-rho", "2-negative-rho"],
    )
    def test_matches_oracle(self, seed, rho):
        # a negative rho flips the sign of K_*'s low-fidelity columns only
        params = ar1_model(rho=rho)
        data = random_data(seed)
        xs = np.linspace(-0.5, 2.5, 9).reshape(-1, 1)
        out = predict(params, data, xs)
        mean, var = ar1_predict(xs=xs, **oracle_args(params, data))
        np.testing.assert_allclose(out.mean, mean, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(out.variance, var, rtol=1e-8, atol=1e-11)

    def test_interpolates_high_fidelity_with_tiny_noise(self):
        params = ar1_model(n1=1e-10, n2=1e-10)
        rng = np.random.default_rng(3)
        x2 = rng.uniform(0, 1, (3, 1))
        data = Dataset(rng.uniform(0, 1, (6, 1)), rng.normal(size=6), x2, rng.normal(size=3))
        out = predict(params, data, x2)
        np.testing.assert_allclose(out.mean, data.f2, atol=1e-4)
        assert np.all(out.variance < 1e-4)

    def test_reverts_to_prior_far_from_data(self):
        params = ar1_model(rho=0.7)
        data = random_data(4)
        out = predict(params, data, [[50.0]])
        prior = params.rho**2 * params.k1.signal_variance + params.k2.signal_variance
        assert out.mean[0] == pytest.approx(0.0, abs=1e-8)
        assert out.variance[0] == pytest.approx(prior, rel=1e-8)

    def test_variance_nonnegative(self):
        params = ar1_model(n1=1e-8, n2=1e-8)
        data = random_data(5)
        out = predict(params, data, data.x2)
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
        f1, f2 = sample_prior(params, X, seed=3)
        np.testing.assert_allclose(f2, 1.7 * f1, atol=1e-4)

    def test_shapes(self):
        f1, f2 = sample_prior(ar1_model(D=2), np.zeros((5, 2)), seed=0)
        assert f1.shape == (5,) and f2.shape == (5,)

    @pytest.mark.parametrize("make", [ar1_model, deep_model], ids=["zero-layer", "deep"])
    def test_draws_by_the_ar1_recursion(self, make):
        # f1 = g1 depends on k1 alone, and f2 - rho * f1 = g2 on k2 alone
        params = make()
        X = np.linspace(0, 1, 12).reshape(-1, 1)
        f1, f2 = sample_prior(params, X, seed=7)
        other = KernelParams(0.5, np.full(params.k1.dim, -0.4))
        for changed in (replace(params, rho=-0.6), replace(params, k2=other)):
            np.testing.assert_array_equal(sample_prior(changed, X, seed=7)[0], f1)
        scale = np.max(np.abs(f2))
        for changed in (replace(params, rho=-0.6), replace(params, k1=other)):
            g1, g2 = sample_prior(changed, X, seed=7)
            np.testing.assert_allclose(
                g2 - changed.rho * g1, f2 - params.rho * f1, rtol=0, atol=1e-12 * scale
            )

    @pytest.mark.parametrize("k2", [KernelParams(0.0, [0.0]), KernelParams(-0.5, [0.2])],
                             ids=["equal", "distinct"])
    def test_one_factor_when_the_kernels_are_equal(self, monkeypatch, k2):
        # k1 and k2 are distinct objects either way: equal values share a factor
        arch, fmap = fm.identity_map(1)
        params = ModelParams(1.3, KernelParams(0.0, np.zeros(1)), k2, arch, fmap)
        X = np.linspace(0, 1, 30).reshape(-1, 1)
        # the two-factor draw, written out
        z = np.random.default_rng(4).standard_normal(60)
        g1 = _chol(kern.gram(params.k1, X, X))[0] @ z[:30]
        g2 = _chol(kern.gram(params.k2, X, X))[0] @ z[30:]
        calls = []
        cholesky = mfgp.cholesky
        monkeypatch.setattr(mfgp, "cholesky", lambda A: calls.append(A.shape) or cholesky(A))
        f1, f2 = sample_prior(params, X, seed=4)
        assert len(calls) == (1 if k2 == params.k1 else 2)
        assert f1.tobytes() == g1.tobytes()
        assert f2.tobytes() == (1.3 * g1 + g2).tobytes()

    @pytest.mark.parametrize("k2", [KernelParams(0.0, np.zeros(2)), KernelParams(0.0, np.full(2, -0.5))],
                             ids=["equal", "distinct"])
    def test_benchmark_draw_needs_less_than_the_joint_factor(self, k2):
        # the prior_sample generator's draw: 200 candidates and a 200-point grid
        arch, fmap = fm.identity_map(2)
        unit = KernelParams(0.0, np.zeros(2))
        params = ModelParams(benchmarks.RHO_TRUE, unit, k2, arch, fmap)
        x = np.concatenate(
            [benchmarks.candidate_points("prior_sample", 0), np.linspace(0, 1, benchmarks.N_GRID)]
        )
        H = benchmarks.true_h_sample(x)
        n = H.shape[0]
        sample_prior(params, H[:5], seed=0)  # lazy set-up outside the traced call
        tracemalloc.start()
        try:
            sample_prior(params, H, seed=[0, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 2n x 2n joint K and its factor alone take 8 n^2 doubles; the draw
        # peaks in the Gram, at its D = 2 planes of squares and their sum
        assert peak < 3.5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n^2 doubles"


_OBJECTIVE_DIGEST = textwrap.dedent(
    """
    import hashlib

    import numpy as np

    from dmfgp import benchmarks, mfgp, trainer
    from dmfgp.feature_map import LayerSpec

    arch = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
    digest = hashlib.sha256()
    for kind in ("step", "forrester_jump"):
        data = benchmarks.generate(benchmarks.BenchmarkSpec(kind, seed=0))[0]
        centered = trainer.center_targets(data)[0]
        for freeze in (False, True):
            config = trainer.TrainConfig(seed=0, freeze_feature_map=freeze)
            for r in range(3):
                p0 = trainer.init_params(arch, config, r)
                x0 = trainer.pack_params(p0, config)
                rng = np.random.default_rng([r, 7])
                for _ in range(3):
                    x = x0 + 0.3 * rng.standard_normal(x0.size)
                    g = mfgp.nll_gradient(trainer.unpack_params(x, p0, config), centered)
                    digest.update(np.float64(g.nll).tobytes())
                    digest.update(trainer.pack_gradient(g, config).tobytes())
    print(digest.hexdigest())
    """
)


def test_objective_does_not_depend_on_blas_threads():
    # prior_sample is left out: its data depend on the thread count
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _OBJECTIVE_DIGEST],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(_src_env(), OPENBLAS_NUM_THREADS=threads),
        )
        for threads in ("1", "2")
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    for p, (_, err) in zip(procs, outs):
        assert p.returncode == 0, err
    one, two = (out.strip() for out, _ in outs)
    assert len(one) == 64 and one == two

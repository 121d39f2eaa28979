import numpy as np
import pytest

from dmfgp.kernel import KernelParams, gram, gram_grad_hyper, gram_grad_inputs

from oracles import central_difference, se_kernel_matrix


def unit_params(D=1):
    return KernelParams(0.0, np.zeros(D))


def random_params(rng, D):
    return KernelParams(rng.normal(0, 0.5), rng.normal(0, 0.5, D))


class TestGram:
    def test_single_point(self):
        np.testing.assert_allclose(gram(unit_params(), [[0.0]], [[0.0]]), [[1.0]])

    def test_two_points(self):
        K = gram(unit_params(), [[0.0], [1.0]], [[0.0], [1.0]])
        e = np.exp(-0.5)
        np.testing.assert_allclose(K, [[1.0, e], [e, 1.0]])

    def test_two_dimensional_value(self):
        p = KernelParams(np.log(4.0), np.log([1.0, 2.0]))
        # sigma_f = 2, ell = (1, 2): 4 * exp(-0.5 * (1 + 1)) = 4 e^-1
        assert gram(p, [[0.0, 0.0]], [[1.0, 2.0]])[0, 0] == pytest.approx(4 * np.exp(-1.0))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        U = rng.normal(size=(5, 2))
        K = gram(random_params(rng, 2), U, U)
        assert (K == K.T).all()

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(2)
        p = random_params(rng, 3)
        U, V = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        expected = se_kernel_matrix(p.signal_variance, p.lengthscales, U, V)
        np.testing.assert_allclose(gram(p, U, V), expected, rtol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_psd_with_tiny_jitter(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 20)
        U = rng.normal(size=(n, 2))
        K = gram(random_params(rng, 2), U, U)
        np.linalg.cholesky(K + 1e-10 * np.eye(n))

    def test_signal_variance_scaling(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, 2)
        U = rng.normal(size=(4, 2))
        scaled = KernelParams(p.log_signal_variance + np.log(3.7), p.log_lengthscales)
        np.testing.assert_allclose(gram(scaled, U, U), 3.7 * gram(p, U, U), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gram(unit_params(1), np.zeros((3, 2)), np.zeros((3, 2)))


class TestGramGradHyper:
    def test_signal_variance_grad_equals_gram(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, 2)
        U, V = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        np.testing.assert_array_equal(gram_grad_hyper(p, U, V)[0], gram(p, U, V))

    def test_lengthscale_grad_zero_at_zero_distance(self):
        grads = gram_grad_hyper(unit_params(2), [[0.3, -0.1]], [[0.3, -0.1]])
        assert grads[1][0, 0] == 0.0
        assert grads[2][0, 0] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = random_params(rng, 2)
        U, V = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        grads = gram_grad_hyper(p, U, V)
        vec0 = p.to_vector()
        for k in range(vec0.size):
            for i in range(3):
                for j in range(3):
                    fd = central_difference(
                        lambda w: gram(KernelParams.from_vector(w), U, V)[i, j], vec0, 1e-6
                    )[k]
                    assert grads[k][i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestGramGradInputs:
    def test_zero_at_coincident_points(self):
        T = gram_grad_inputs(unit_params(2), [[0.5, 0.5]], [[0.5, 0.5]])
        np.testing.assert_array_equal(T, np.zeros((1, 1, 2)))

    def test_hand_value_1d(self):
        T = gram_grad_inputs(unit_params(), [[0.0]], [[1.0]])
        assert T[0, 0, 0] == pytest.approx(np.exp(-0.5))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 10)
        p = random_params(rng, 2)
        U, V = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        T = gram_grad_inputs(p, U, V)
        for i in range(3):
            for d in range(2):
                def f(t, i=i, d=d):
                    Ut = U.copy()
                    Ut[i, d] = t
                    return gram(p, Ut, V)

                for j in range(4):
                    fd = central_difference(lambda t: f(t[0])[i, j], [U[i, d]], 1e-6)[0]
                    assert T[i, j, d] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_antisymmetric_pairing(self):
        # derivative w.r.t. V mirrors the U derivative with opposite sign
        rng = np.random.default_rng(11)
        p = random_params(rng, 2)
        U, V = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        T_uv = gram_grad_inputs(p, U, V)
        T_vu = gram_grad_inputs(p, V, U)
        np.testing.assert_allclose(T_uv, -np.swapaxes(T_vu, 0, 1), rtol=1e-13)

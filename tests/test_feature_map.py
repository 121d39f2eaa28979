import copy

import numpy as np
import pytest

from dmfgp.feature_map import (
    FeatureMapParams,
    LayerSpec,
    _sigmoid,
    backward,
    forward,
    identity_map,
)

from oracles import central_difference


def random_map(rng, arch):
    weights = [rng.normal(size=(s.output_width, s.input_width)) for s in arch]
    biases = [rng.normal(size=s.output_width) for s in arch]
    return FeatureMapParams(weights, biases)


def pack(params):
    return np.concatenate(
        [np.concatenate([w.ravel(), b]) for w, b in zip(params.weights, params.biases)]
    )


def unpack(vec, template):
    out = copy.deepcopy(template)
    i = 0
    for ell, (w, b) in enumerate(zip(out.weights, out.biases)):
        out.weights[ell] = vec[i : i + w.size].reshape(w.shape); i += w.size
        out.biases[ell] = vec[i : i + b.size].copy(); i += b.size
    return out


class TestLayerSpec:
    def test_rejects_unknown_transfer(self):
        with pytest.raises(ValueError):
            LayerSpec(1, 1, "relu")

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            LayerSpec(0, 1, "identity")


class TestSigmoid:
    def test_midpoint(self):
        assert _sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_known_value(self):
        assert _sigmoid(np.array([1.0]))[0] == pytest.approx(1 / (1 + np.exp(-1)))

    def test_saturation_is_finite(self):
        out = _sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_symmetry(self):
        z = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(_sigmoid(z) + _sigmoid(-z), np.ones_like(z), rtol=1e-14)


class TestForward:
    def test_identity_map_is_identity(self):
        arch, params = identity_map(3)
        X = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_array_equal(forward(arch, params, X)[-1], X)

    def test_identity_map_frozen(self):
        # the identity is the zero-layer map: nothing to train
        arch, params = identity_map(2)
        assert arch == []
        assert params.weights == [] and params.biases == []

    def test_identity_map_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            identity_map(0)

    def test_zero_layers_match_one_affine_identity_layer(self):
        # bit for bit, -0.0 -> +0.0 included, and never the caller's array
        X = np.random.default_rng(5).normal(size=(6, 3))
        X[0, 1], X[2, 0] = -0.0, 0.0
        arch, params = identity_map(3)
        out = forward(arch, params, X)[-1]
        one = forward([LayerSpec(3, 3, "identity")], FeatureMapParams([np.eye(3)], [np.zeros(3)]), X)[-1]
        assert out.tobytes() == one.tobytes()
        assert not np.signbit(out[0, 1])
        assert out is not X and not np.shares_memory(out, X)

    def test_single_sigmoid_layer_hand_value(self):
        arch = [LayerSpec(1, 1, "sigmoid")]
        params = FeatureMapParams([np.array([[2.0]])], [np.array([-1.0])])
        out = forward(arch, params, [[1.5]])[-1]
        assert out[0, 0] == pytest.approx(1 / (1 + np.exp(-2.0)))

    def test_affine_layer_hand_value(self):
        arch = [LayerSpec(2, 1, "identity")]
        params = FeatureMapParams([np.array([[1.0, -1.0]])], [np.array([0.5])])
        out = forward(arch, params, [[3.0, 1.0]])[-1]
        assert out[0, 0] == pytest.approx(2.5)

    def test_two_layer_composition(self):
        arch = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
        rng = np.random.default_rng(1)
        params = random_map(rng, arch)
        X = rng.normal(size=(4, 1))
        hidden = _sigmoid(X @ params.weights[0].T + params.biases[0])
        expected = hidden @ params.weights[1].T + params.biases[1]
        np.testing.assert_allclose(forward(arch, params, X)[-1], expected, rtol=1e-14)

    def test_output_shape(self):
        arch = [LayerSpec(2, 5, "sigmoid"), LayerSpec(5, 3, "identity")]
        params = random_map(np.random.default_rng(2), arch)
        assert forward(arch, params, np.zeros((7, 2)))[-1].shape == (7, 3)

    def test_rowwise(self):
        arch = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
        rng = np.random.default_rng(3)
        params = random_map(rng, arch)
        X = rng.normal(size=(6, 1))
        full = forward(arch, params, X)[-1]
        for i in range(6):
            np.testing.assert_array_equal(forward(arch, params, X[i : i + 1])[-1], full[i : i + 1])

    def test_rejects_mismatched_widths(self):
        arch = [LayerSpec(1, 3, "sigmoid"), LayerSpec(4, 2, "identity")]
        params = random_map(np.random.default_rng(4), arch)
        with pytest.raises(ValueError):
            forward(arch, params, np.zeros((2, 1)))

    def test_rejects_wrong_input_width(self):
        arch = [LayerSpec(2, 2, "identity")]
        params = FeatureMapParams([np.eye(2)], [np.zeros(2)])
        with pytest.raises(ValueError):
            forward(arch, params, np.zeros((2, 3)))


class TestBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_vjp_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        arch = [LayerSpec(2, 3, "sigmoid"), LayerSpec(3, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
        params = random_map(rng, arch)
        X = rng.normal(size=(4, 2))
        W = rng.normal(size=(4, 2))  # arbitrary adjoint

        def scalar(vec):
            return float(np.sum(W * forward(arch, unpack(vec, params), X)[-1]))

        grad = backward(arch, params, forward(arch, params, X), W)
        fd = central_difference(scalar, pack(params), 1e-6)
        analytic = pack(FeatureMapParams(grad.weights, grad.biases))
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)

        # each block of rows of one stacked pass gives the bits of its own
        # pass: nll_gradient backpropagates each fidelity on its rows of one
        X2, W2 = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        stacked = forward(arch, params, np.vstack([X, X2]))
        for rows, Xb, Wb in ((slice(None, 4), X, W), (slice(4, None), X2, W2)):
            own = backward(arch, params, forward(arch, params, Xb), Wb)
            part = backward(arch, params, [a[rows] for a in stacked], Wb)
            for u, v in zip(own.weights + own.biases, part.weights + part.biases):
                assert u.tobytes() == v.tobytes()

    def test_zero_adjoint_gives_zero_gradient(self):
        arch = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
        params = random_map(np.random.default_rng(6), arch)
        grad = backward(arch, params, forward(arch, params, np.zeros((3, 1))), np.zeros((3, 2)))
        for w, b in zip(grad.weights, grad.biases):
            assert not w.any() and not b.any()

    def test_linearity_in_adjoint(self):
        arch = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
        rng = np.random.default_rng(7)
        params = random_map(rng, arch)
        X = rng.normal(size=(3, 1))
        W1, W2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        acts = forward(arch, params, X)
        g1 = backward(arch, params, acts, W1)
        g2 = backward(arch, params, acts, W2)
        g12 = backward(arch, params, acts, W1 + W2)
        for a, b, c in zip(g1.weights, g2.weights, g12.weights):
            np.testing.assert_allclose(a + b, c, rtol=1e-12)
        for a, b, c in zip(g1.biases, g2.biases, g12.biases):
            np.testing.assert_allclose(a + b, c, rtol=1e-12)

    def test_rejects_wrong_adjoint_shape(self):
        arch, params = identity_map(2)
        with pytest.raises(ValueError):
            backward(arch, params, forward(arch, params, np.zeros((3, 2))), np.zeros((3, 1)))

    def test_affine_layer_gradient_closed_form(self):
        # for h(x) = Wx + b: dL/dW = adjoint^T X, dL/db = column sums of adjoint
        arch = [LayerSpec(2, 2, "identity")]
        rng = np.random.default_rng(8)
        params = random_map(rng, arch)
        X = rng.normal(size=(5, 2))
        W = rng.normal(size=(5, 2))
        grad = backward(arch, params, forward(arch, params, X), W)
        np.testing.assert_allclose(grad.weights[0], W.T @ X, rtol=1e-13)
        np.testing.assert_allclose(grad.biases[0], W.sum(axis=0), rtol=1e-13)

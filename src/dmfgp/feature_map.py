"""Multilayer feature map h(x) = (h^L o ... o h^1)(x) with exact backprop.

Each layer computes sigma(W z + b) where sigma is either the logistic
sigmoid or the identity. forward returns every layer's activations, and
backward takes them, so one objective evaluation runs the map once.

The composition of no layers is h(x) = x, with nothing to train: the
zero-layer map is the AR(1) co-kriging baseline (see identity_map).
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LayerSpec",
    "FeatureMapParams",
    "forward",
    "backward",
    "identity_map",
]

TRANSFERS = ("sigmoid", "identity")


@dataclass(frozen=True)
class LayerSpec:
    input_width: int
    output_width: int
    transfer: str  # "sigmoid" or "identity"

    def __post_init__(self):
        if self.transfer not in TRANSFERS:
            raise ValueError(f"unknown transfer {self.transfer!r}; expected one of {TRANSFERS}")
        if self.input_width < 1 or self.output_width < 1:
            raise ValueError("layer widths must be positive")


@dataclass(eq=False)
class FeatureMapParams:
    """Per-layer weights (output_width x input_width) and biases (output_width,);
    also the gradient with respect to them, which has the same shapes.

    Two FeatureMapParams are equal when their values are: the same number
    of layers, and equal arrays layer by layer, NaN equal to nothing. The
    class is unhashable, as the arrays stay mutable.
    """

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)

    def __eq__(self, other):
        if not isinstance(other, FeatureMapParams):
            return NotImplemented
        pairs = (self.weights, other.weights), (self.biases, other.biases)
        return all(len(a) == len(b) and all(map(np.array_equal, a, b)) for a, b in pairs)

    __hash__ = None


def _validate(arch, params, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    for a, b in zip(arch[:-1], arch[1:]):
        if a.output_width != b.input_width:
            raise ValueError(f"layer widths do not chain: {a.output_width} -> {b.input_width}")
    if arch and X.shape[1] != arch[0].input_width:
        raise ValueError(
            f"input has {X.shape[1]} columns, first layer expects {arch[0].input_width}"
        )
    if len(params.weights) != len(arch) or len(params.biases) != len(arch):
        raise ValueError("parameter count does not match architecture depth")
    for spec, w, b in zip(arch, params.weights, params.biases):
        if w.shape != (spec.output_width, spec.input_width) or b.shape != (spec.output_width,):
            raise ValueError(f"parameter shapes {w.shape}, {b.shape} do not match layer {spec}")
    return X


def _sigmoid(z):
    # split formulas avoid overflow in exp for large |z|
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(arch, params, X):
    """Apply the feature map rowwise: returns the activations
    [X, A^1, ..., A^L], whose last entry is h(X) with shape (n, D_out)."""
    X = _validate(arch, params, X)
    if not arch:
        # a new array, never the caller's, with -0.0 read as +0.0: the bits
        # of the one-layer affine identity map, X @ I + 0
        return [X + 0.0]
    acts = [X]
    for spec, w, b in zip(arch, params.weights, params.biases):
        z = acts[-1] @ w.T + b
        acts.append(_sigmoid(z) if spec.transfer == "sigmoid" else z)
    return acts


def backward(arch, params, acts, H_adjoint):
    """Vector-Jacobian product: sum_{i,k} H_adjoint[i,k] * d h_k(X_i) / d theta_h.

    Parameters
    ----------
    acts : list of ndarray
        The activations forward returned for X (or the same rows of each).
    H_adjoint : ndarray, shape (n, D_out)
        Adjoint of the forward output.

    Returns
    -------
    FeatureMapParams
    """
    H_adjoint = np.asarray(H_adjoint, dtype=float)
    if H_adjoint.shape != acts[-1].shape:
        raise ValueError(
            f"adjoint shape {H_adjoint.shape} does not match output shape {acts[-1].shape}"
        )
    dW = [None] * len(arch)
    db = [None] * len(arch)
    dA = H_adjoint
    for ell in range(len(arch) - 1, -1, -1):
        a_out = acts[ell + 1]
        if arch[ell].transfer == "sigmoid":
            dZ = dA * a_out * (1.0 - a_out)
        else:
            dZ = dA
        dW[ell] = dZ.T @ acts[ell]
        db[ell] = dZ.sum(axis=0)
        dA = dZ @ params.weights[ell]
    return FeatureMapParams(dW, db)


def identity_map(D):
    """Architecture and parameters realizing h(x) = x on R^D: the zero-layer
    map, which has nothing to train."""
    if D < 1:
        raise ValueError("D must be >= 1")
    return [], FeatureMapParams()

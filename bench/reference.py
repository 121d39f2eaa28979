"""Dense reference for the benchmark's output checks.

Written from the model's definition and shares no code with ``dmfgp``: an
explicit SE-ARD Gram matrix, a plain sigmoid/affine feature map, the joint
AR(1) covariance assembled block by block, ``slogdet`` for the determinant
and dense ``solve`` in place of a Cholesky factor.

Parameters are plain dictionaries (see ``plain_params``) so that the checks
can be fed perturbed values in the benchmark's own tests. The covariance,
NLL and posterior take feature rows H = h(X) rather than inputs: the checks
pass the program's own features (checked separately against ``features``),
so that the rest of the computation is compared on the same operands. On a
degenerate fit a one-ulp change of a feature can move the posterior by a
large share of the target scale, and comparing through two roundings of the
features would then say nothing about the GP arithmetic.
"""

import numpy as np

# documented by dmfgp: noise variance = NOISE_FLOOR + exp(log_noise), and the
# default jitter added to the training covariance is 1e-8 * mean(diag K)
NOISE_FLOOR = 1e-8
JITTER_SCALE = 1e-8


def plain_params(mp):
    """Read a dmfgp ModelParams into plain floats and arrays."""
    return {
        "rho": float(mp.rho),
        "sf2_1": float(np.exp(mp.k1.log_signal_variance)),
        "ls1": np.exp(np.asarray(mp.k1.log_lengthscales, dtype=float)),
        "sf2_2": float(np.exp(mp.k2.log_signal_variance)),
        "ls2": np.exp(np.asarray(mp.k2.log_lengthscales, dtype=float)),
        "s1": NOISE_FLOOR + float(np.exp(mp.log_noise1)),
        "s2": NOISE_FLOOR + float(np.exp(mp.log_noise2)),
        "layers": [
            (np.asarray(w, dtype=float), np.asarray(b, dtype=float), spec.transfer)
            for spec, w, b in zip(mp.arch, mp.fmap.weights, mp.fmap.biases)
        ],
    }


def center(f1, f2):
    """Target centring used by training: combined mean and population std."""
    f = np.concatenate([f1, f2])
    scale = float(np.std(f))
    return float(np.mean(f)), (scale if scale >= 1e-12 else 1.0)


def features(layers, X):
    """Feature map: each layer is sigmoid(W z + b) or the affine W z + b."""
    Z = np.atleast_2d(np.asarray(X, dtype=float))
    for W, b, transfer in layers:
        A = Z @ W.T + b
        if transfer == "sigmoid":
            with np.errstate(over="ignore"):
                A = 1.0 / (1.0 + np.exp(-A))
        elif transfer != "identity":
            raise ValueError(f"unknown transfer {transfer!r}")
        Z = A
    return Z


def se_gram(sf2, ls, U, V):
    """K[i, j] = sf2 * exp(-0.5 * sum_d ((U[i, d] - V[j, d]) / ls[d])^2)."""
    K = np.empty((U.shape[0], V.shape[0]))
    for i in range(U.shape[0]):
        r = (V - U[i]) / ls
        K[i] = sf2 * np.exp(-0.5 * np.sum(r * r, axis=1))
    return K


def joint_cov(p, H1, H2):
    """Training covariance of (f1, f2) at features H1, H2, with noise and the
    default jitter."""
    n1, n2 = len(H1), len(H2)
    K = np.zeros((n1 + n2, n1 + n2))
    K[:n1, :n1] = se_gram(p["sf2_1"], p["ls1"], H1, H1) + p["s1"] * np.eye(n1)
    K[:n1, n1:] = p["rho"] * se_gram(p["sf2_1"], p["ls1"], H1, H2)
    K[n1:, :n1] = K[:n1, n1:].T
    K[n1:, n1:] = (
        p["rho"] ** 2 * se_gram(p["sf2_1"], p["ls1"], H2, H2)
        + se_gram(p["sf2_2"], p["ls2"], H2, H2)
        + p["s2"] * np.eye(n2)
    )
    K += JITTER_SCALE * np.mean(np.diag(K)) * np.eye(n1 + n2)
    return K


def nll(p, H1, f1, H2, f2):
    """Negative log marginal likelihood of (f1, f2), already centred."""
    K = joint_cov(p, H1, H2)
    f = np.concatenate([f1, f2])
    sign, logdet = np.linalg.slogdet(K)
    if sign <= 0:
        return np.inf
    return float(0.5 * f @ np.linalg.solve(K, f) + 0.5 * logdet + 0.5 * f.size * np.log(2 * np.pi))


def posterior(p, H1, f1, H2, f2, Hs):
    """Latent high-fidelity posterior mean and variance at feature rows Hs.

    Targets are raw; centring is applied here and undone on the output.
    """
    mean0, scale = center(f1, f2)
    f = (np.concatenate([f1, f2]) - mean0) / scale
    K = joint_cov(p, H1, H2)
    Ks = np.hstack([
        p["rho"] * se_gram(p["sf2_1"], p["ls1"], Hs, H1),
        p["rho"] ** 2 * se_gram(p["sf2_1"], p["ls1"], Hs, H2)
        + se_gram(p["sf2_2"], p["ls2"], Hs, H2),
    ])
    W = np.linalg.solve(K, Ks.T)
    mean = Ks @ np.linalg.solve(K, f)
    var = p["rho"] ** 2 * p["sf2_1"] + p["sf2_2"] - np.sum(Ks * W.T, axis=1)
    return mean * scale + mean0, var * scale**2

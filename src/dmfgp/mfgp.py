"""Deep multi-fidelity Gaussian process: joint covariance, exact negative
log marginal likelihood with full analytic gradient, posterior prediction
for the high-fidelity output, and joint-prior sampling.

With H = h([x1; x2]) the learned features of all training inputs, the
joint prior over (f1, f2) has covariance

    K = diag(r) k1(H, H) diag(r) + blockdiag(0, k2(H2, H2))

where r is 1 on the low-fidelity rows and rho on the high-fidelity rows,
and H2 holds the high-fidelity rows of H. Observation-noise variances are
added to the diagonal; prediction targets the latent (noise-free)
high-fidelity function.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from . import feature_map as fm
from . import kernel as kern
from .kernel import KernelParams

__all__ = [
    "Dataset",
    "ModelParams",
    "ModelGradient",
    "GramBundle",
    "PosteriorPrediction",
    "NotPositiveDefiniteError",
    "NOISE_FLOOR",
    "noise_variance",
    "assemble",
    "nll",
    "nll_gradient",
    "predict",
    "sample_prior",
    "sample_prior_features",
]

# smooth floor keeps the noise variance >= 1e-8 while remaining differentiable
NOISE_FLOOR = 1e-8


class NotPositiveDefiniteError(RuntimeError):
    """Cholesky failed even after jitter escalation."""

    def __init__(self, final_jitter):
        super().__init__(
            f"covariance matrix is not positive definite (final jitter tried: {final_jitter:g})"
        )
        self.final_jitter = final_jitter


@dataclass
class Dataset:
    """Two-fidelity observations {(x1, f1), (x2, f2)} with f2 high fidelity."""

    x1: np.ndarray
    f1: np.ndarray
    x2: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        self.x1 = np.atleast_2d(np.asarray(self.x1, dtype=float))
        self.x2 = np.atleast_2d(np.asarray(self.x2, dtype=float))
        self.f1 = np.asarray(self.f1, dtype=float).ravel()
        self.f2 = np.asarray(self.f2, dtype=float).ravel()
        if self.x1.shape[0] != self.f1.shape[0] or self.x2.shape[0] != self.f2.shape[0]:
            raise ValueError("input/target row counts disagree")
        if self.x1.shape[1] != self.x2.shape[1]:
            raise ValueError("x1 and x2 must have the same number of columns")
        for arr in (self.x1, self.f1, self.x2, self.f2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("dataset contains non-finite entries")

    @property
    def n1(self):
        return self.x1.shape[0]

    @property
    def n2(self):
        return self.x2.shape[0]

    @property
    def d_in(self):
        return self.x1.shape[1]

    @property
    def f(self):
        return np.concatenate([self.f1, self.f2])


@dataclass
class ModelParams:
    """The full parameter set theta = [rho, theta1, theta2, theta_h, noise]."""

    rho: float
    k1: KernelParams
    k2: KernelParams
    arch: list
    fmap: fm.FeatureMapParams
    log_noise1: float = np.log(1e-4)
    log_noise2: float = np.log(1e-4)

    def __post_init__(self):
        d_out = self.arch[-1].output_width
        if self.k1.dim != d_out or self.k2.dim != d_out:
            raise ValueError(
                f"kernel dimension ({self.k1.dim}, {self.k2.dim}) must equal "
                f"feature-map output width ({d_out})"
            )

    def copy(self):
        return ModelParams(
            self.rho, self.k1, self.k2, list(self.arch), self.fmap.copy(),
            self.log_noise1, self.log_noise2,
        )


@dataclass
class ModelGradient:
    """Gradient of the NLL with the same structure as ModelParams, and the
    NLL it was taken at."""

    rho: float
    k1: np.ndarray  # (1 + D,) ordered as KernelParams.to_vector
    k2: np.ndarray
    fmap: fm.FeatureMapGrad
    log_noise1: float
    log_noise2: float
    nll: float


@dataclass
class GramBundle:
    """Assembled joint covariance with its Cholesky factorization."""

    K: np.ndarray
    chol: np.ndarray  # lower triangular factor of K + jitter * I
    alpha: np.ndarray  # (K + jitter I)^{-1} f
    H: np.ndarray  # features of [x1; x2]
    jitter: float


@dataclass
class PosteriorPrediction:
    """Posterior mean and variance of the latent high-fidelity output."""

    mean: np.ndarray
    variance: np.ndarray


def noise_variance(log_noise):
    return NOISE_FLOOR + float(np.exp(log_noise))


def _chol_with_escalation(K, jitter):
    """Cholesky of K + jitter*I, escalating jitter x10 on failure.

    The learned feature map can collapse distinct inputs onto nearly the
    same feature, making K numerically singular; escalation caps at
    1e-2 * mean(diag K).
    """
    if not np.all(np.isfinite(K)):
        # overflowed hyperparameters; certainly not factorizable
        raise NotPositiveDefiniteError(np.inf)
    mean_diag = float(np.mean(np.diag(K)))
    if jitter is None:
        jitter = 1e-8 * mean_diag
    cap = 1e-2 * max(mean_diag, 1.0)
    j = max(jitter, 0.0)
    while True:
        try:
            L = cholesky(K + j * np.eye(K.shape[0]), lower=True)
            return L, j
        except np.linalg.LinAlgError:
            pass
        j = 10.0 * max(j, 1e-16 * max(mean_diag, 1.0))
        if j > cap:
            raise NotPositiveDefiniteError(j)


def _joint_cov(G1, G2, rho, n1):
    """diag(r) G1 diag(r) with G2 added on the high-fidelity block.

    Scales G1 in place: r_i r_j is 1, rho or rho * rho, so only the blocks
    with a high-fidelity row or column change, and no n x n temporaries are
    made (the prior-sampling K is 800 x 800).
    """
    K = G1
    K[:n1, n1:] *= rho
    K[n1:, :n1] *= rho
    K[n1:, n1:] *= rho * rho
    K[n1:, n1:] += G2
    return K


def assemble(params, data, jitter=None):
    """Build the joint training covariance and factorize it.

    Parameters
    ----------
    jitter : float or None
        Initial diagonal jitter; None selects 1e-8 * mean(diag K).
        Escalated x10 on Cholesky failure up to 1e-2 * mean(diag K).
    """
    n1 = data.n1
    H = fm.forward(params.arch, params.fmap, np.vstack([data.x1, data.x2]))
    H2 = H[n1:]
    K = _joint_cov(kern.gram(params.k1, H, H), kern.gram(params.k2, H2, H2), params.rho, n1)
    noise1, noise2 = noise_variance(params.log_noise1), noise_variance(params.log_noise2)
    K[np.diag_indices_from(K)] += np.where(np.arange(K.shape[0]) < n1, noise1, noise2)
    L, j = _chol_with_escalation(K, jitter)
    alpha = cho_solve((L, True), data.f)
    return GramBundle(K, L, alpha, H, j)


def _nll_of(b, f):
    return float(
        0.5 * f @ b.alpha
        + np.sum(np.log(np.diag(b.chol)))
        + 0.5 * f.size * np.log(2.0 * np.pi)
    )


def nll(params, data, jitter=None):
    """Negative log marginal likelihood
    0.5 f^T K^-1 f + 0.5 log|K| + (n/2) log(2 pi), via the Cholesky factor."""
    return _nll_of(assemble(params, data, jitter), data.f)


def _gram_input_adjoint(W, T):
    """Adjoints (dU, dV) of sum_ij W[i,j] * gram(kp, U, V)[i,j], given
    T = gram_grad_inputs(kp, U, V)."""
    dU = np.einsum("ij,ijd->id", W, T)
    dV = -np.einsum("ij,ijd->jd", W, T)
    return dU, dV


def nll_gradient(params, data, jitter=None):
    """NLL and its analytic gradient over all model parameters, from one
    factorization of K.

    Uses dL/dK = 0.5 * (K^-1 - alpha alpha^T) and chains it through the
    fidelity blocks of K, where k1 enters as [[G, rho G], [rho G, rho^2 G]]
    and k2 as the high-fidelity block; each block is a slice of one Gram (or
    Gram derivative) per kernel over H. The feature adjoint dL/dH is pushed
    through the feature map by backpropagation. The feature-map gradient is
    zero when the map is frozen (identity baseline).

    The k1 terms are summed block by block rather than as one contraction
    against A * r r^T: the two orders differ at roundoff, and the optimizer
    amplifies that into different training outcomes.
    """
    b = assemble(params, data, jitter)
    n1, n2 = data.n1, data.n2
    n = n1 + n2
    lo, hi = slice(None, n1), slice(n1, None)
    rho = params.rho
    H, H2 = b.H, b.H[hi]

    Kinv = cho_solve((b.chol, True), np.eye(n))
    A = 0.5 * (Kinv - np.outer(b.alpha, b.alpha))
    A11, A12, A22 = A[lo, lo], A[lo, hi], A[hi, hi]

    # the first derivative gram_grad_hyper returns is the Gram itself
    gh1 = kern.gram_grad_hyper(params.k1, H, H)
    gh2 = kern.gram_grad_hyper(params.k2, H2, H2)

    # rho appears in the off-diagonal blocks linearly and in (2,2) quadratically
    d_rho = 2.0 * np.sum(A12 * gh1[0][lo, hi]) + 2.0 * rho * np.sum(A22 * gh1[0][hi, hi])
    d_k1 = np.array(
        [
            np.sum(A11 * d[lo, lo])
            + 2.0 * rho * np.sum(A12 * d[lo, hi])
            + rho**2 * np.sum(A22 * d[hi, hi])
            for d in gh1
        ]
    )
    d_k2 = np.array([np.sum(A22 * d) for d in gh2])

    d_n1 = float(np.trace(A11)) * float(np.exp(params.log_noise1))
    d_n2 = float(np.trace(A22)) * float(np.exp(params.log_noise2))

    if jitter is None:
        # the automatic jitter scales with mean(diag K), which itself depends
        # on the signal variances, rho, and the noise terms; chain that in so
        # the gradient matches the implemented nll exactly
        mean_diag = float(np.mean(np.diag(b.K)))
        scale = b.jitter / mean_diag  # escalation level times 1e-8
        trA = float(np.trace(A))
        sv1, sv2 = params.k1.signal_variance, params.k2.signal_variance
        d_rho += trA * scale * 2.0 * rho * sv1 * n2 / n
        d_k1[0] += trA * scale * sv1 * (n1 + rho**2 * n2) / n
        d_k2[0] += trA * scale * sv2 * n2 / n
        d_n1 += trA * scale * float(np.exp(params.log_noise1)) * n1 / n
        d_n2 += trA * scale * float(np.exp(params.log_noise2)) * n2 / n

    if params.fmap.trainable:
        T1 = kern.gram_grad_inputs(params.k1, H, H)
        dH1, dH2 = np.zeros_like(H[lo]), np.zeros_like(H2)
        # diagonal block k1(H1, H1): H1 enters on both sides
        dU, dV = _gram_input_adjoint(A11, T1[lo, lo])
        dH1 += dU + dV
        # off-diagonal rho * k1(H1, H2), counted twice by symmetry of A
        dU, dV = _gram_input_adjoint(A12, T1[lo, hi])
        dH1 += 2.0 * rho * dU
        dH2 += 2.0 * rho * dV
        # (2,2) block rho^2 * k1 + k2 on H2
        dU, dV = _gram_input_adjoint(A22, T1[hi, hi])
        dH2 += rho**2 * (dU + dV)
        dU, dV = _gram_input_adjoint(A22, kern.gram_grad_inputs(params.k2, H2, H2))
        dH2 += dU + dV
        # one backward pass per fidelity: a pass over the stacked rows sums
        # the weight gradient in another order, which moves training roundoff
        g_lo = fm.backward(params.arch, params.fmap, data.x1, dH1)
        g_hi = fm.backward(params.arch, params.fmap, data.x2, dH2)
        d_fmap = fm.FeatureMapGrad(
            [a + c for a, c in zip(g_lo.weights, g_hi.weights)],
            [a + c for a, c in zip(g_lo.biases, g_hi.biases)],
        )
    else:
        d_fmap = fm.FeatureMapGrad(
            [np.zeros_like(w) for w in params.fmap.weights],
            [np.zeros_like(bi) for bi in params.fmap.biases],
        )

    return ModelGradient(float(d_rho), d_k1, d_k2, d_fmap, d_n1, d_n2, _nll_of(b, data.f))


def predict(params, data, Xstar, jitter=None):
    """Posterior of the latent high-fidelity output at query points.

    mean = K_* K^-1 f with K_* = rho * k1(h*, H) diag(r) + [0, k2(h*, H2)];
    variance is the diagonal of k22(h*, h*) - K_* K^-1 K_*^T. The training
    covariance K carries the noise diagonals; K_* and k22(h*, h*) do not.
    """
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if Xstar.shape[1] != data.d_in:
        raise ValueError(
            f"query has {Xstar.shape[1]} columns, model expects {data.d_in}"
        )
    b = assemble(params, data, jitter)
    Hs = fm.forward(params.arch, params.fmap, Xstar)
    n1, rho = data.n1, params.rho
    r = np.where(np.arange(b.H.shape[0]) < n1, 1.0, rho)
    Ks = rho * r * kern.gram(params.k1, Hs, b.H)
    Ks[:, n1:] += kern.gram(params.k2, Hs, b.H[n1:])
    mean = Ks @ b.alpha
    v = solve_triangular(b.chol, Ks.T, lower=True)
    prior = rho**2 * params.k1.signal_variance + params.k2.signal_variance
    var = prior - np.sum(v**2, axis=0)
    return PosteriorPrediction(mean, np.maximum(var, 0.0))


def sample_prior_features(k1, k2, rho, H, seed, jitter=None):
    """Draw one joint prior sample (f1, f2) given precomputed features H.

    Used both by sample_prior and by benchmark generation, where the feature
    map is an externally specified ground truth rather than a trained network.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    n = H.shape[0]
    if n == 0:
        raise ValueError("need at least one sample point")
    # both fidelities sit at the same n inputs, so the k1 Gram repeats
    K = _joint_cov(np.tile(kern.gram(k1, H, H), (2, 2)), kern.gram(k2, H, H), rho, n)
    L, _ = _chol_with_escalation(K, jitter)
    rng = np.random.default_rng(seed)
    s = L @ rng.standard_normal(2 * n)
    return s[:n], s[n:]


def sample_prior(params, X, seed, jitter=None):
    """Seeded joint prior draw (f1 sample, f2 sample) at inputs X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    H = fm.forward(params.arch, params.fmap, X)
    return sample_prior_features(params.k1, params.k2, params.rho, H, seed, jitter)

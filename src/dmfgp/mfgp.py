"""Deep multi-fidelity Gaussian process: joint covariance, exact negative
log marginal likelihood with full analytic gradient, posterior prediction
for the high-fidelity output, and joint-prior sampling.

With H = h([x1; x2]) the learned features of all training inputs, the
joint prior over (f1, f2) has covariance

    K = diag(r) k1(H, H) diag(r) + blockdiag(0, k2(H2, H2))

where r is 1 on the low-fidelity rows and rho on the high-fidelity rows,
and H2 holds the high-fidelity rows of H. Observation-noise variances are
added to the diagonal; prediction targets the latent (noise-free)
high-fidelity function, whose covariance K_* with the training rows is
built the same way, every query row being high fidelity.
"""

import ctypes
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

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
    "TrainingFailedError",
    "NOISE_FLOOR",
    "noise_variance",
    "assemble",
    "nll",
    "nll_gradient",
    "predict",
    "sample_prior",
]

# smooth floor keeps the noise variance >= 1e-8 while remaining differentiable
NOISE_FLOOR = 1e-8


class NotPositiveDefiniteError(RuntimeError):
    """Cholesky failed at the jitter of _chol (inf for a non-finite matrix)."""

    def __init__(self, jitter):
        super().__init__(f"covariance matrix is not positive definite (jitter: {jitter:g})")
        self.jitter = jitter


class TrainingFailedError(RuntimeError):
    """Every training restart started from a non-positive-definite covariance."""


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

    def centered(self, mean, scale):
        """The same inputs with targets (f - mean) / scale."""
        return Dataset(self.x1, (self.f1 - mean) / scale, self.x2, (self.f2 - mean) / scale)


@dataclass(eq=False)
class ModelParams:
    """The full parameter set theta = [rho, theta1, theta2, theta_h, noise].

    Two ModelParams are equal when their values are, part by part, NaN
    equal to nothing. The class is unhashable, as its arrays stay mutable.
    """

    rho: float
    k1: KernelParams
    k2: KernelParams
    arch: list
    fmap: fm.FeatureMapParams
    log_noise1: float = np.log(1e-4)
    log_noise2: float = np.log(1e-4)

    def __post_init__(self):
        # with no layers the features are the inputs, whose width the data sets
        d_out = self.arch[-1].output_width if self.arch else self.k1.dim
        if self.k1.dim != d_out or self.k2.dim != d_out:
            raise ValueError(
                f"kernel dimension ({self.k1.dim}, {self.k2.dim}) must equal "
                f"feature-map output width ({d_out})"
            )

    def __eq__(self, other):
        if not isinstance(other, ModelParams):
            return NotImplemented
        return (
            bool(self.rho == other.rho)
            and self.k1 == other.k1
            and self.k2 == other.k2
            and self.arch == other.arch
            and self.fmap == other.fmap
            and bool(self.log_noise1 == other.log_noise1)
            and bool(self.log_noise2 == other.log_noise2)
        )

    __hash__ = None


@dataclass
class ModelGradient:
    """Gradient of the NLL with the same structure as ModelParams, and the
    NLL it was taken at."""

    rho: float
    k1: np.ndarray  # (1 + D,) ordered as KernelParams.to_vector
    k2: np.ndarray
    fmap: fm.FeatureMapParams
    log_noise1: float
    log_noise2: float
    nll: float


@dataclass
class GramBundle:
    """The factored joint covariance; K itself is overwritten by _chol."""

    chol: np.ndarray  # lower triangular factor of K + jitter * I, in K's memory
    alpha: np.ndarray  # (K + jitter I)^{-1} f
    H: np.ndarray  # features of [x1; x2]
    jitter: float
    mean_diag: float  # mean(diag K), which sets the jitter


@dataclass
class PosteriorPrediction:
    """Posterior mean and variance of the latent high-fidelity output, and h(X*)."""

    mean: np.ndarray
    variance: np.ndarray
    features: np.ndarray = None


def noise_variance(log_noise):
    return NOISE_FLOOR + float(np.exp(log_noise))


# The three LAPACK calls of the factor-and-solve steps, made directly: at
# n = 50-65, scipy.linalg's argument checks and batch dispatch around them
# cost more than the LAPACK work. Each makes the call scipy.linalg's
# cholesky, cho_solve and solve_triangular make for the same (lower) input,
# so the bits are the same. Callers look these names up on the module at
# call time, so a wrapper set on the module sees every call.


def cholesky(A):
    """Lower Cholesky factor of the Fortran-ordered A, computed in A's memory.

    Raises np.linalg.LinAlgError when A is not positive definite.
    """
    L, info = dpotrf(A, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} is not positive definite")
    return L


def cho_solve(L, b):
    """(L L^T)^-1 b for a lower Cholesky factor L; b is 1-D or 2-D."""
    x, info = dpotrs(L, b, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs returned info {info}")
    return x


def solve_triangular(L, B):
    """L^-1 B for a lower triangular, Fortran-ordered L."""
    x, info = dtrtrs(L, B, lower=1)
    if info != 0:
        raise ValueError(f"dtrtrs returned info {info}")
    return x


def _chol(K):
    """Cholesky of K + j*I by the one jitter rule, j = 1e-8 * mean(diag K),
    in one attempt, in the memory of K (C-ordered and exactly symmetric),
    which it overwrites, on failure too. Returns (L, j, mean(diag K));
    raises NotPositiveDefiniteError(j) when K + j*I is not positive definite.

    The learned feature map can collapse distinct inputs onto nearly the
    same feature, making K numerically singular.
    """
    if not np.all(np.isfinite(K)):
        # overflowed hyperparameters; certainly not factorizable
        raise NotPositiveDefiniteError(np.inf)
    mean_diag = float(np.diag(K).mean())
    j = 1e-8 * mean_diag
    K += 0.0  # -0.0 becomes +0.0, as in K + j * I
    K.reshape(-1)[:: K.shape[0] + 1] += j  # a strided view of K's diagonal
    try:
        return cholesky(K.T), j, mean_diag  # K.T is K in Fortran order
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(j) from None


def _joint_cov(G1, G2, rho, r1, c1):
    """diag(r) G1 diag(c) plus G2 on the high-fidelity block, in G1's memory:
    r (c) is 1 on the first r1 rows (c1 columns), the low-fidelity ones, and
    rho on the rest. K is (n1, n1); the queries' K_* is (0, n1). Only blocks
    with a high-fidelity row or column change, and no temporaries are made."""
    K = G1
    K[:r1, c1:] *= rho
    K[r1:, :c1] *= rho
    K[r1:, c1:] *= rho * rho
    K[r1:, c1:] += G2
    return K


def _features(params, data):
    return fm.forward(params.arch, params.fmap, np.vstack([data.x1, data.x2]))


def _factor(params, n1, f, H, G1, G2):
    """The factor step shared by assemble and nll_gradient: K from the Grams
    G1 = k1(H, H) (scaled in place) and G2 = k2(H2, H2), the noise diagonal,
    the Cholesky factor of K (in G1's memory) and alpha = K^-1 f."""
    K = _joint_cov(G1, G2, params.rho, n1, n1)
    diag = K.reshape(-1)[:: K.shape[0] + 1]  # a strided view of K's diagonal
    diag[:n1] += noise_variance(params.log_noise1)
    diag[n1:] += noise_variance(params.log_noise2)
    L, j, mean_diag = _chol(K)
    return GramBundle(L, cho_solve(L, f), H, j, mean_diag)


def assemble(params, data):
    """Build the joint training covariance and factorize it, with the
    diagonal jitter of _chol (recorded in the bundle)."""
    H = _features(params, data)[-1]
    H2 = H[data.n1 :]
    G1, G2 = kern.gram(params.k1, H, H), kern.gram(params.k2, H2, H2)
    return _factor(params, data.n1, data.f, H, G1, G2)


def _nll_of(b, f):
    return float(
        0.5 * f @ b.alpha
        + np.sum(np.log(np.diag(b.chol)))
        + 0.5 * f.size * np.log(2.0 * np.pi)
    )


def nll(params, data):
    """Negative log marginal likelihood
    0.5 f^T K^-1 f + 0.5 log|K| + (n/2) log(2 pi), via the Cholesky factor."""
    return _nll_of(assemble(params, data), data.f)


def _gram_input_adjoint(W, T):
    """Adjoints (dU, dV) of sum_ij W[i,j] * gram(kp, U, V)[i,j], given
    T = gram_grad_inputs(kp, U, V)."""
    dU = np.einsum("ij,ijd->id", W, T)
    dV = -np.einsum("ij,ijd->jd", W, T)
    return dU, dV


def nll_gradient(params, data):
    """NLL and its analytic gradient over all model parameters, from one
    Gram per kernel and one factorization of K.

    Uses dL/dK = 0.5 * (K^-1 - alpha alpha^T) and chains it through the
    fidelity blocks of K, where k1 enters as [[G, rho G], [rho G, rho^2 G]]
    and k2 as the high-fidelity block; each block is a slice of one Gram (or
    Gram derivative) per kernel over H. The feature adjoint dL/dH is pushed
    through the feature map by backpropagation, on the activations of the one
    forward pass that built H; the zero-layer map (the AR(1) baseline) has no
    parameters, and skips both.

    The k1 terms are summed block by block rather than as one contraction
    against A * r r^T: the two orders differ at roundoff, and the optimizer
    amplifies that into different training outcomes.
    """
    n1, n2 = data.n1, data.n2
    n = n1 + n2
    lo, hi = slice(None, n1), slice(n1, None)
    rho = params.rho
    acts = _features(params, data)
    H = acts[-1]
    H2 = H[hi]

    # the first derivative gram_grad_hyper returns is the Gram itself, so it
    # also builds K; _joint_cov scales its first Gram in place, hence the copy
    gh1 = kern.gram_grad_hyper(params.k1, H, H)
    gh2 = kern.gram_grad_hyper(params.k2, H2, H2)
    f = data.f
    b = _factor(params, n1, f, H, gh1[0].copy(), gh2[0])

    Kinv = cho_solve(b.chol, np.eye(n))
    A = 0.5 * (Kinv - np.outer(b.alpha, b.alpha))
    A11, A12, A22 = A[lo, lo], A[lo, hi], A[hi, hi]

    # rho appears in the off-diagonal blocks linearly and in (2,2) quadratically
    d_rho = 2.0 * (A12 * gh1[0][lo, hi]).sum() + 2.0 * rho * (A22 * gh1[0][hi, hi]).sum()
    d_k1 = np.array(
        [
            (A11 * d[lo, lo]).sum()
            + 2.0 * rho * (A12 * d[lo, hi]).sum()
            + rho**2 * (A22 * d[hi, hi]).sum()
            for d in gh1
        ]
    )
    d_k2 = np.array([(A22 * d).sum() for d in gh2])

    d_n1 = float(np.trace(A11)) * float(np.exp(params.log_noise1))
    d_n2 = float(np.trace(A22)) * float(np.exp(params.log_noise2))

    # the jitter scales with mean(diag K), which itself depends on the
    # signal variances, rho, and the noise terms; chain that in so the
    # gradient matches the implemented nll exactly. scale is the quotient,
    # not the constant 1e-8: on about one diagonal in 20, j / mean(diag K)
    # is 1e-8 off by one ulp, and the constant would move training bits
    scale = b.jitter / b.mean_diag
    trA = float(np.trace(A))
    sv1, sv2 = params.k1.signal_variance, params.k2.signal_variance
    d_rho += trA * scale * 2.0 * rho * sv1 * n2 / n
    d_k1[0] += trA * scale * sv1 * (n1 + rho**2 * n2) / n
    d_k2[0] += trA * scale * sv2 * n2 / n
    d_n1 += trA * scale * float(np.exp(params.log_noise1)) * n1 / n
    d_n2 += trA * scale * float(np.exp(params.log_noise2)) * n2 / n

    d_fmap = fm.FeatureMapParams()
    if params.arch:
        T1 = kern.gram_grad_inputs(params.k1, H, H, gh1[0])
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
        dU, dV = _gram_input_adjoint(A22, kern.gram_grad_inputs(params.k2, H2, H2, gh2[0]))
        dH2 += dU + dV
        # one backward pass per fidelity, on its rows of acts: a pass over the
        # stacked rows sums the weight gradient in another order, which moves
        # training roundoff
        g_lo = fm.backward(params.arch, params.fmap, [a[lo] for a in acts], dH1)
        g_hi = fm.backward(params.arch, params.fmap, [a[hi] for a in acts], dH2)
        d_fmap = fm.FeatureMapParams(
            [a + c for a, c in zip(g_lo.weights, g_hi.weights)],
            [a + c for a, c in zip(g_lo.biases, g_hi.biases)],
        )

    return ModelGradient(float(d_rho), d_k1, d_k2, d_fmap, d_n1, d_n2, _nll_of(b, f))


def predict(params, data, Xstar):
    """Posterior of the latent high-fidelity output at query points, and h*.

    mean = K_* K^-1 f, with K_* built by _joint_cov, every query row high
    fidelity; variance is the diagonal of k22(h*, h*) - K_* K^-1 K_*^T. K
    carries the noise diagonals; K_* and k22(h*, h*) do not.
    """
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if Xstar.shape[1] != data.d_in:
        raise ValueError(
            f"query has {Xstar.shape[1]} columns, model expects {data.d_in}"
        )
    b = assemble(params, data)
    Hs = fm.forward(params.arch, params.fmap, Xstar)[-1]
    n1, rho = data.n1, params.rho
    G1, G2 = kern.gram(params.k1, Hs, b.H), kern.gram(params.k2, Hs, b.H[n1:])
    Ks = _joint_cov(G1, G2, rho, 0, n1)
    mean = Ks @ b.alpha
    if not np.all(np.isfinite(Ks)):  # e.g. NaN queries; L is finite
        raise ValueError("array must not contain infs or NaNs")
    v = solve_triangular(b.chol, Ks.T)
    prior = rho**2 * params.k1.signal_variance + params.k2.signal_variance
    var = prior - np.sum(v**2, axis=0)
    return PosteriorPrediction(mean, np.maximum(var, 0.0), Hs)


@cache
def _blas_threads():
    """Getter and setter of scipy's bundled OpenBLAS thread count, looked up
    on the first prior draw; no-ops where scipy has no such library (a build
    on MKL or a system BLAS), which leaves the draw thread-dependent."""
    libs = Path(scipy.__file__).parent.with_suffix(".libs")  # site-packages/scipy.libs
    for path in sorted(libs.glob("libscipy_openblas-*.so")):
        lib = ctypes.CDLL(str(path))  # the copy that scipy.linalg.lapack loaded
        if hasattr(lib, "scipy_openblas_set_num_threads"):
            return lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    return (lambda: None), (lambda threads: None)


def sample_prior(params, X, seed):
    """Seeded joint prior draw (f1 sample, f2 sample), both fidelities at
    inputs X. The zero-layer map draws on given features: its features are
    its inputs.

    The draw follows the AR(1) recursion f1 = g1, f2 = rho * g1 + g2, with
    g1 ~ GP(0, k1) and g2 ~ GP(0, k2) independent, from one standard normal
    vector z of length 2n: g1 = chol(k1(H, H)) z[:n], g2 = chol(k2(H, H)) z[n:].
    That is the joint prior in distribution, from n x n factors in place of
    one 2n x 2n factor. Each kernel's Gram gets its own jitter, by the rule
    of _chol. When k1 and k2 are equal in value (as in the prior_sample
    truth and every init_params start), their Grams and factors are too, so
    one Gram and one factor serve both draws, with the same bits as two.
    The Grams are factored on one OpenBLAS thread (see _blas_threads): a
    threaded Cholesky of an ill-conditioned Gram rounds differently.
    """
    H = fm.forward(params.arch, params.fmap, X)[-1]
    n = H.shape[0]
    if n == 0:
        raise ValueError("need at least one sample point")
    z = np.random.default_rng(seed).standard_normal(2 * n)
    get_threads, set_threads = _blas_threads()
    threads = get_threads()
    set_threads(1)
    try:
        if params.k2 == params.k1:
            L = _chol(kern.gram(params.k1, H, H))[0]
            g1, g2 = L @ z[:n], L @ z[n:]
        else:
            # one statement per kernel, so each Gram and factor is freed before the next
            g1 = _chol(kern.gram(params.k1, H, H))[0] @ z[:n]
            g2 = _chol(kern.gram(params.k2, H, H))[0] @ z[n:]
    finally:
        set_threads(threads)
    return g1, params.rho * g1 + g2

"""Squared-exponential ARD covariance function and its derivatives.

Hyperparameters are stored in log-space so that downstream optimization is
unconstrained while positivity of the signal variance and lengthscales is
guaranteed by construction.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KernelParams",
    "gram",
    "gram_grad_hyper",
    "gram_grad_inputs",
]


@dataclass(frozen=True, eq=False)
class KernelParams:
    """SE-ARD hyperparameters in log-space.

    Two KernelParams are equal when their values are: the same signal
    variance and the same lengthscales, NaN equal to nothing. The class is
    unhashable, as the lengthscale array stays mutable.

    Parameters
    ----------
    log_signal_variance : float
        log(sigma_f^2).
    log_lengthscales : ndarray, shape (D,)
        log(ell_d), one per feature dimension.
    """

    log_signal_variance: float
    log_lengthscales: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "log_lengthscales", np.atleast_1d(np.asarray(self.log_lengthscales, dtype=float))
        )

    def __eq__(self, other):
        if not isinstance(other, KernelParams):
            return NotImplemented
        return bool(self.log_signal_variance == other.log_signal_variance) and np.array_equal(
            self.log_lengthscales, other.log_lengthscales
        )

    __hash__ = None

    @property
    def dim(self):
        return self.log_lengthscales.shape[0]

    @property
    def signal_variance(self):
        return float(np.exp(self.log_signal_variance))

    @property
    def lengthscales(self):
        return np.exp(self.log_lengthscales)

    def to_vector(self):
        return np.concatenate(([self.log_signal_variance], self.log_lengthscales))

    @classmethod
    def from_vector(cls, vec):
        vec = np.asarray(vec, dtype=float)
        return cls(float(vec[0]), vec[1:].copy())


def _check_dims(params, U, V):
    U = np.atleast_2d(np.asarray(U, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    D = params.dim
    if U.shape[1] != D or V.shape[1] != D:
        raise ValueError(
            f"feature dimension mismatch: kernel has D={D}, "
            f"got inputs with {U.shape[1]} and {V.shape[1]} columns"
        )
    return U, V


def _scaled_diff(params, U, V):
    # diff[d, i, j] = (U[i, d] - V[j, d]) / ell_d: one contiguous (n, m) plane
    # per feature dimension, so every elementwise pass runs over n * m floats
    # and the sum over d adds whole planes, rather than looping over D per pair
    Ut, Vt = np.ascontiguousarray(U.T), np.ascontiguousarray(V.T)
    diff = Ut[:, :, None] - Vt[:, None, :]
    diff /= params.lengthscales[:, None, None]
    return diff


def _gram_of_squares(params, sq):
    # the planes are added in order d = 0, 1, ..., as numpy sums a (n, m, D)
    # array of D < 8 along its last axis, so both layouts give the same bits.
    # The rest runs in the one (n, m) array that the sum returns: the products
    # commute, so the bits are those of sigma_f^2 * exp(-0.5 * sum), without
    # that expression's three temporaries, which at n = 400 cost more than
    # its arithmetic
    K = np.sum(sq, axis=0)
    K *= -0.5
    np.exp(K, out=K)
    K *= params.signal_variance
    return K


def gram(params, U, V):
    """Gram matrix with entries sigma_f^2 * exp(-0.5 * sum_d ((U_id - V_jd)/ell_d)^2).

    Parameters
    ----------
    U : ndarray, shape (n, D)
    V : ndarray, shape (m, D)

    Returns
    -------
    ndarray, shape (n, m)
    """
    U, V = _check_dims(params, U, V)
    sq = _scaled_diff(params, U, V)
    np.square(sq, out=sq)
    return _gram_of_squares(params, sq)


def gram_grad_hyper(params, U, V):
    """Derivatives of the Gram matrix w.r.t. each log-space hyperparameter.

    Returns
    -------
    list of ndarray, shape (n, m)
        Ordered as [d/dlog_signal_variance, d/dlog_ell_0, ..., d/dlog_ell_{D-1}].
        The signal-variance derivative equals the Gram matrix itself;
        d/dlog_ell_d = K * ((u_d - v_d)/ell_d)^2.
    """
    U, V = _check_dims(params, U, V)
    sq = _scaled_diff(params, U, V)
    np.square(sq, out=sq)
    K = _gram_of_squares(params, sq)
    return [K] + [K * s for s in sq]


def gram_grad_inputs(params, U, V, K):
    """Derivative tensor T[i, j, d] = d gram(i, j) / d U[i, d], given the Gram
    K = gram(params, U, V) (for instance element 0 of gram_grad_hyper).

    The derivative w.r.t. V[j, d] is -T[i, j, d]. T is returned C-contiguous
    in (n, m, D) order: einsum picks its summation order from the memory
    layout, so a transposed view of the (D, n, m) planes would contract to
    different last bits.
    """
    U, V = _check_dims(params, U, V)
    # dK/dU[i,d] = K * (V[j,d] - U[i,d]) / ell_d^2
    T = K * -_scaled_diff(params, U, V) / params.lengthscales[:, None, None]
    return np.ascontiguousarray(T.transpose(1, 2, 0))

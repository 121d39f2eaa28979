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


@dataclass(frozen=True)
class KernelParams:
    """SE-ARD hyperparameters in log-space.

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

    @property
    def dim(self):
        return self.log_lengthscales.shape[0]

    @property
    def signal_variance(self):
        return float(np.exp(self.log_signal_variance))

    @property
    def lengthscales(self):
        return np.exp(self.log_lengthscales)

    @property
    def n_params(self):
        # signal variance plus one lengthscale per dimension
        return 1 + self.dim

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
    # diff[i, j, d] = (U[i, d] - V[j, d]) / ell_d
    return (U[:, None, :] - V[None, :, :]) / params.lengthscales


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
    diff = _scaled_diff(params, U, V)
    return params.signal_variance * np.exp(-0.5 * np.sum(diff**2, axis=2))


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
    diff = _scaled_diff(params, U, V)
    sq = diff**2
    K = params.signal_variance * np.exp(-0.5 * np.sum(sq, axis=2))
    return [K] + [K * sq[:, :, d] for d in range(params.dim)]


def gram_grad_inputs(params, U, V):
    """Derivative tensor T[i, j, d] = d gram(i, j) / d U[i, d].

    The derivative w.r.t. V[j, d] is -T[i, j, d].
    """
    U, V = _check_dims(params, U, V)
    diff = _scaled_diff(params, U, V)
    K = params.signal_variance * np.exp(-0.5 * np.sum(diff**2, axis=2))
    # dK/dU[i,d] = K * (V[j,d] - U[i,d]) / ell_d^2
    return K[:, :, None] * (-diff) / params.lengthscales

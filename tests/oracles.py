"""Independent reference implementations used as test oracles.

Everything here is deliberately written in the most literal way possible
(explicit loops, dense inverses) and shares no code with the package.
"""

import numpy as np


def se_kernel_entry(sf2, ls, u, v):
    s = 0.0
    for d in range(len(ls)):
        s += ((u[d] - v[d]) / ls[d]) ** 2
    return sf2 * np.exp(-0.5 * s)


def se_kernel_matrix(sf2, ls, U, V):
    n, m = len(U), len(V)
    K = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            K[i, j] = se_kernel_entry(sf2, ls, U[i], V[j])
    return K


def ar1_joint_cov(x1, x2, rho, sf2_1, ls1, sf2_2, ls2, n1var, n2var):
    """Kennedy-O'Hagan AR(1) co-kriging training covariance, entry by entry."""
    k11 = se_kernel_matrix(sf2_1, ls1, x1, x1) + n1var * np.eye(len(x1))
    k12 = rho * se_kernel_matrix(sf2_1, ls1, x1, x2)
    k22 = (
        rho**2 * se_kernel_matrix(sf2_1, ls1, x2, x2)
        + se_kernel_matrix(sf2_2, ls2, x2, x2)
        + n2var * np.eye(len(x2))
    )
    top = np.hstack([k11, k12])
    bot = np.hstack([k12.T, k22])
    return np.vstack([top, bot])


def gp_nll(K, y):
    """Negative log density of y under N(0, K)."""
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    quad = y @ np.linalg.inv(K) @ y
    return 0.5 * quad + 0.5 * logdet + 0.5 * len(y) * np.log(2 * np.pi)


def ar1_nll(x1, f1, x2, f2, rho, sf2_1, ls1, sf2_2, ls2, n1var, n2var, jitter):
    K = ar1_joint_cov(x1, x2, rho, sf2_1, ls1, sf2_2, ls2, n1var, n2var)
    return gp_nll(K + jitter * np.eye(len(K)), np.concatenate([f1, f2]))


def ar1_predict(x1, f1, x2, f2, xs, rho, sf2_1, ls1, sf2_2, ls2, n1var, n2var, jitter):
    """Latent high-fidelity posterior mean and variance at query rows xs."""
    K = ar1_joint_cov(x1, x2, rho, sf2_1, ls1, sf2_2, ls2, n1var, n2var)
    Kinv = np.linalg.inv(K + jitter * np.eye(len(K)))
    f = np.concatenate([f1, f2])
    means = np.zeros(len(xs))
    variances = np.zeros(len(xs))
    for q in range(len(xs)):
        ks = np.concatenate(
            [
                rho * se_kernel_matrix(sf2_1, ls1, [xs[q]], x1)[0],
                rho**2 * se_kernel_matrix(sf2_1, ls1, [xs[q]], x2)[0]
                + se_kernel_matrix(sf2_2, ls2, [xs[q]], x2)[0],
            ]
        )
        means[q] = ks @ Kinv @ f
        variances[q] = rho**2 * sf2_1 + sf2_2 - ks @ Kinv @ ks
    return means, variances


def central_difference4(func, x, step):
    """Fourth-order central differences: five-point stencil per coordinate.

    The higher order keeps the truncation error negligible at step sizes
    large enough to stay clear of the roundoff floor of func.
    """
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        vals = []
        for mult in (-2, -1, 1, 2):
            xs = x.copy()
            xs[j] += mult * step
            vals.append(func(xs))
        g[j] = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * step)
    return g


def central_difference(func, x, step):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        g[j] = (func(xp) - func(xm)) / (2.0 * step)
    return g

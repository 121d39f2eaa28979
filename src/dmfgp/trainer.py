"""Maximum-marginal-likelihood training with multi-restart quasi-Newton
optimization.

The objective is smooth and has at most a few hundred parameters, so a
BFGS-family minimizer with a monotone line search (scipy's L-BFGS-B) is
sufficient. Restarts guard against the multimodality introduced by
feature-map symmetries. Parameter settings whose covariance cannot be
factorized (e.g. from sigmoid saturation degenerating the kernel matrix)
are mapped to a large penalty value, which the line search rejects.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import feature_map as fm
from . import mfgp
from .kernel import KernelParams
from .mfgp import Dataset, ModelParams, NotPositiveDefiniteError

__all__ = [
    "TrainConfig",
    "RestartResult",
    "TrainReport",
    "TrainingFailedError",
    "GradientCheckReport",
    "init_params",
    "train",
    "gradient_check",
    "pack_params",
    "unpack_params",
    "pack_gradient",
]


class TrainingFailedError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    restarts: int = 10
    max_iterations: int = 1000
    gradient_tolerance: float = 1e-6  # max-norm of the gradient
    seed: int = 0
    freeze_feature_map: bool = False  # AR(1) identity-map mode
    freeze_noise: bool = False
    frozen_noise_variance: float = 1e-4  # nugget used when freeze_noise is set

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be > 0")
        if self.frozen_noise_variance <= 0:
            raise ValueError("frozen_noise_variance must be > 0")


@dataclass
class RestartResult:
    restart_index: int
    final_nll: float
    iterations: int
    converged: bool


@dataclass
class TrainReport:
    best_params: ModelParams
    best_nll: float
    per_restart: list
    center_mean: float
    center_scale: float
    config: TrainConfig = field(repr=False, default=None)


# ---------------------------------------------------------------------------
# parameter vector packing


def _fmap_trainable(params, config):
    return params.fmap.trainable and not config.freeze_feature_map


def pack_params(params, config):
    """Flatten the unfrozen parameters of a ModelParams into a vector."""
    parts = [np.array([params.rho]), params.k1.to_vector(), params.k2.to_vector()]
    if not config.freeze_noise:
        parts.append(np.array([params.log_noise1, params.log_noise2]))
    if _fmap_trainable(params, config):
        for w, b in zip(params.fmap.weights, params.fmap.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
    return np.concatenate(parts)


def unpack_params(vec, template, config):
    """Inverse of pack_params; frozen parts are copied from the template."""
    vec = np.asarray(vec, dtype=float)
    D = template.k1.dim
    expected = pack_params(template, config).size
    if vec.size != expected:
        raise ValueError(f"parameter vector has {vec.size} entries, expected {expected}")
    i = 0
    rho = float(vec[i]); i += 1
    k1 = KernelParams.from_vector(vec[i : i + 1 + D]); i += 1 + D
    k2 = KernelParams.from_vector(vec[i : i + 1 + D]); i += 1 + D
    if config.freeze_noise:
        ln1, ln2 = template.log_noise1, template.log_noise2
    else:
        ln1, ln2 = float(vec[i]), float(vec[i + 1]); i += 2
    fmap = template.fmap.copy()
    if _fmap_trainable(template, config):
        for ell, (w, b) in enumerate(zip(fmap.weights, fmap.biases)):
            fmap.weights[ell] = vec[i : i + w.size].reshape(w.shape); i += w.size
            fmap.biases[ell] = vec[i : i + b.size].copy(); i += b.size
    if i != vec.size:
        raise ValueError(f"parameter vector has {vec.size} entries, expected {i}")
    return ModelParams(rho, k1, k2, list(template.arch), fmap, ln1, ln2)


def pack_gradient(grad, params, config):
    """Flatten a ModelGradient consistently with pack_params."""
    parts = [np.array([grad.rho]), grad.k1, grad.k2]
    if not config.freeze_noise:
        parts.append(np.array([grad.log_noise1, grad.log_noise2]))
    if _fmap_trainable(params, config):
        for w, b in zip(grad.fmap.weights, grad.fmap.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# initialization


def init_params(arch, config, restart_index):
    """Deterministic random initialization for one restart.

    Layer weights ~ N(0, 1/input_width), biases zero; unit kernel
    hyperparameters (all logs zero); rho = 1; noise variance 1e-4
    (config.frozen_noise_variance instead when the noise is frozen).
    """
    rng = np.random.default_rng([config.seed, restart_index])
    if config.freeze_feature_map:
        d_in = arch[0].input_width
        arch, fmap = fm.identity_map(d_in)
    else:
        weights = []
        biases = []
        for spec in arch:
            weights.append(
                rng.normal(0.0, 1.0 / np.sqrt(spec.input_width), size=(spec.output_width, spec.input_width))
            )
            biases.append(np.zeros(spec.output_width))
        fmap = fm.FeatureMapParams(weights, biases, trainable=True)
    D = arch[-1].output_width
    unit = KernelParams(0.0, np.zeros(D))
    noise = config.frozen_noise_variance if config.freeze_noise else 1e-4
    return ModelParams(1.0, unit, unit, list(arch), fmap, np.log(noise), np.log(noise))


# ---------------------------------------------------------------------------
# single-restart minimization

# value assigned to parameter settings whose covariance cannot be factorized;
# large enough that the monotone line search always rejects such steps
_PENALTY = 1e12


def _minimize_restart(value_and_grad, x0, max_iterations, gtol):
    """Minimize from one start point with L-BFGS-B.

    value_and_grad(x) returns (f, g), using the penalty convention above for
    infeasible points. Returns (x, f, g, iterations, converged) or None when
    the start point itself is infeasible: scipy's first evaluation, at x0,
    then gets the penalty with a zero gradient, and L-BFGS-B stops there.
    ``converged`` means the max-norm of the gradient at the solution is below
    gtol.
    """
    res = minimize(
        value_and_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iterations, "gtol": gtol},
    )
    if res.fun >= _PENALTY:
        return None
    converged = bool(np.max(np.abs(res.jac)) < gtol)
    return res.x, float(res.fun), res.jac, int(res.nit), converged


# ---------------------------------------------------------------------------
# training


def center_targets(data):
    """Center and scale targets by the combined sample mean/std.

    Returns (centered dataset, mean, scale). The zero-mean GP prior makes
    centering necessary for targets far from zero.
    """
    f = data.f
    mean = float(np.mean(f))
    scale = float(np.std(f))
    if scale < 1e-12:
        scale = 1.0
    centered = Dataset(data.x1, (data.f1 - mean) / scale, data.x2, (data.f2 - mean) / scale)
    return centered, mean, scale


def train(data, arch, config):
    """Multi-restart quasi-Newton minimization of the NLL over unfrozen
    parameters.

    Targets are centered internally (see center_targets); the reported NLLs
    refer to the centered targets. Returns the best restart.
    """
    if not config.freeze_feature_map and arch[0].input_width != data.d_in:
        raise ValueError(
            f"architecture expects {arch[0].input_width}-dim inputs, data has {data.d_in}"
        )
    centered, mean, scale = center_targets(data)

    results = []
    best = None
    for r in range(config.restarts):
        params0 = init_params(arch, config, r)

        def value_and_grad(vec, _template=params0):
            with np.errstate(all="ignore"):
                try:
                    p = unpack_params(vec, _template, config)
                    grad = mfgp.nll_gradient(p, centered)
                    f, g = grad.nll, pack_gradient(grad, p, config)
                except NotPositiveDefiniteError:
                    return _PENALTY, np.zeros(vec.size)
                if not (np.isfinite(f) and np.all(np.isfinite(g))):
                    return _PENALTY, np.zeros(vec.size)
                return f, g

        out = _minimize_restart(
            value_and_grad,
            pack_params(params0, config),
            config.max_iterations,
            config.gradient_tolerance,
        )
        if out is None:
            results.append(RestartResult(r, np.inf, 0, False))
            continue
        x, f, _, iterations, converged = out
        results.append(RestartResult(r, float(f), iterations, converged))
        if best is None or f < best[0]:
            best = (float(f), unpack_params(x, params0, config))

    if best is None:
        raise TrainingFailedError(
            f"all {config.restarts} restarts failed with non-positive-definite covariances"
        )
    return TrainReport(best[1], best[0], results, mean, scale, config)


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class GradientCheckReport:
    analytic: np.ndarray
    finite_difference: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float


def finite_difference_gradient(func, x, step=1e-6):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy(); xp[j] += step
        xm = x.copy(); xm[j] -= step
        g[j] = (func(xp) - func(xm)) / (2.0 * step)
    return g


def gradient_check(data, arch, seed, config=None, step=1e-4):
    """Compare the analytic NLL gradient against central finite differences.

    Small instances only (n1 + n2 <= 20 recommended); per-component errors
    are scaled by max(|analytic|, |fd|, 1e-2) so that near-zero components
    are judged on an absolute 1e-7 scale at the 1e-5 relative tolerance.
    The default step balances truncation against the Cholesky roundoff
    floor of the NLL evaluation (smaller steps only amplify roundoff).
    """
    if config is None:
        config = TrainConfig(seed=seed, restarts=1)
    centered, _, _ = center_targets(data)
    params = init_params(arch, config, 0)

    def value(vec):
        return mfgp.nll(unpack_params(vec, params, config), centered)

    x0 = pack_params(params, config)
    analytic = pack_gradient(mfgp.nll_gradient(params, centered), params, config)
    fd = finite_difference_gradient(value, x0, step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-2)
    rel = np.abs(analytic - fd) / denom
    return GradientCheckReport(analytic, fd, rel, float(np.max(rel)))

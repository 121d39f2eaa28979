"""Maximum-marginal-likelihood training with multi-restart quasi-Newton
optimization.

The objective is smooth and has at most a few hundred parameters, so a
BFGS-family minimizer with a monotone line search (scipy's L-BFGS-B) is
sufficient. Restarts guard against the multimodality introduced by
feature-map symmetries: each draws its own layer weights. The zero-layer map
(the AR(1) baseline) draws nothing, so its restarts share one start point;
train minimizes each distinct start point once, copies its record to the
restarts that repeat it, and picks the best run after the loop. Parameter
settings whose covariance cannot be factorized, or whose NLL or gradient is
not finite, are mapped to a large penalty value, which the line search
rejects. The penalties seen in practice come from a non-finite K, NLL or
gradient, not from a finite K that the jittered Cholesky fails on.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import minimize

from . import feature_map as fm
from . import mfgp
from .kernel import KernelParams
from .mfgp import ModelParams, NotPositiveDefiniteError, TrainingFailedError

__all__ = [
    "TrainConfig",
    "RestartResult",
    "TrainReport",
    "TrainingFailedError",
    "GRADIENT_TOLERANCE",
    "init_params",
    "train",
    "pack_params",
    "unpack_params",
    "pack_gradient",
]

# L-BFGS-B's projected-gradient tolerance (its gtol)
GRADIENT_TOLERANCE = 1e-6

# the stop reason of a restart whose start point cannot be factorized
INFEASIBLE_START = "INFEASIBLE START: covariance not positive definite at x0"


@dataclass
class TrainConfig:
    restarts: int = 10
    max_iterations: int = 1000
    seed: int = 0
    freeze_feature_map: bool = False  # AR(1) baseline: the zero-layer map h(x) = x
    freeze_noise: bool = False
    frozen_noise_variance: float = 1e-4  # nugget used when freeze_noise is set

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.frozen_noise_variance < np.inf:  # also rejects NaN
            raise ValueError(
                f"frozen_noise_variance must be finite and > 0, got {self.frozen_noise_variance}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class RestartResult:
    """One restart's record; the field names are the model file's per-restart keys."""
    restart: int
    final_nll: float
    iterations: int
    stop: str  # L-BFGS-B's own message, verbatim, or INFEASIBLE_START


@dataclass
class TrainReport:
    best_params: ModelParams
    best_nll: float
    per_restart: list
    center_mean: float
    center_scale: float
    config: TrainConfig = field(repr=False)


# ---------------------------------------------------------------------------
# parameter vector packing


def _layout(p, config):
    """The packed parts, in order: rho, k1, k2, the noise pair unless it is
    frozen, then each layer's weights and biases. p is a ModelParams, or a
    ModelGradient, whose kernel parts are vectors already; the zero-layer
    map adds no parts."""
    if isinstance(p, ModelParams):
        k1, k2 = p.k1.to_vector(), p.k2.to_vector()
    else:
        k1, k2 = p.k1, p.k2
    parts = [np.array([p.rho]), k1, k2]
    if not config.freeze_noise:
        parts.append(np.array([p.log_noise1, p.log_noise2]))
    for w, b in zip(p.fmap.weights, p.fmap.biases):
        parts += [w, b]
    return parts


def pack_params(p, config):
    """Flatten the unfrozen parts of a ModelParams or a ModelGradient into a vector."""
    return np.concatenate([a.ravel() for a in _layout(p, config)])


pack_gradient = pack_params  # a ModelGradient packs in the same order


def unpack_params(vec, template, config):
    """Inverse of pack_params; frozen parts are taken from the template."""
    vec = np.asarray(vec, dtype=float)
    parts = _layout(template, config)
    expected = sum(a.size for a in parts)
    if vec.size != expected:
        raise ValueError(f"parameter vector has {vec.size} entries, expected {expected}")
    pieces, i = [], 0
    for a in parts:
        piece = vec[i : i + a.size]; i += a.size
        # only the weights need a reshape, which costs twice the slice
        pieces.append(piece if a.ndim == 1 else piece.reshape(a.shape))
    rho, k1, k2 = float(pieces[0][0]), pieces[1], pieces[2]
    if config.freeze_noise:
        ln1, ln2, layers = template.log_noise1, template.log_noise2, pieces[3:]
    else:
        ln1, ln2, layers = float(pieces[3][0]), float(pieces[3][1]), pieces[4:]
    return ModelParams(
        rho,
        KernelParams.from_vector(k1),
        KernelParams.from_vector(k2),
        list(template.arch),
        fm.FeatureMapParams(layers[0::2], layers[1::2]),
        ln1,
        ln2,
    )


# ---------------------------------------------------------------------------
# initialization


def _require_layers(arch):
    if not arch:
        raise ValueError(
            "arch has no layers; the AR(1) baseline is selected by freeze_feature_map, "
            "on an arch whose first layer takes the data's input width"
        )


def init_params(arch, config, restart_index):
    """Deterministic random initialization for one restart.

    Layer weights ~ N(0, 1/input_width), biases zero; unit kernel
    hyperparameters (all logs zero); rho = 1; noise variance 1e-4
    (config.frozen_noise_variance instead when the noise is frozen). With
    config.freeze_feature_map the map is the zero-layer one on arch's input
    width (the AR(1) baseline); then nothing is drawn, and every restart
    gets the same start point.
    """
    _require_layers(arch)
    rng = np.random.default_rng([config.seed, restart_index])
    if config.freeze_feature_map:
        D = arch[0].input_width
        arch, fmap = fm.identity_map(D)
    else:
        weights = []
        biases = []
        for spec in arch:
            weights.append(
                rng.normal(0.0, 1.0 / np.sqrt(spec.input_width), size=(spec.output_width, spec.input_width))
            )
            biases.append(np.zeros(spec.output_width))
        fmap = fm.FeatureMapParams(weights, biases)
        D = arch[-1].output_width
    unit = KernelParams(0.0, np.zeros(D))
    noise = config.frozen_noise_variance if config.freeze_noise else 1e-4
    return ModelParams(1.0, unit, unit, list(arch), fmap, np.log(noise), np.log(noise))


# ---------------------------------------------------------------------------
# single-restart minimization

# value assigned to parameter settings whose covariance cannot be factorized;
# large enough that the monotone line search always rejects such steps
_PENALTY = 1e12


def _minimize_restart(value_and_grad, x0, max_iterations):
    """Minimize from one start point with L-BFGS-B.

    value_and_grad(x) returns (f, g), using the penalty convention above for
    infeasible points. Returns (x, f, iterations, stop). stop is L-BFGS-B's
    own stop reason: its relative-reduction test (factr), the iteration cap,
    or an abnormal end of the line search. An infeasible start point gets
    the penalty with a zero gradient at scipy's first evaluation, and
    L-BFGS-B stops there; its record is then (x0, inf, 0, INFEASIBLE_START).
    """
    options = {"maxiter": max_iterations, "gtol": GRADIENT_TOLERANCE}
    res = minimize(value_and_grad, x0, jac=True, method="L-BFGS-B", options=options)
    if res.fun >= _PENALTY:
        return x0, np.inf, 0, INFEASIBLE_START
    return res.x, float(res.fun), int(res.nit), res.message


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
    return data.centered(mean, scale), mean, scale


def train(data, arch, config):
    """Multi-restart quasi-Newton minimization of the NLL over unfrozen
    parameters.

    Targets are centered internally (see center_targets); the reported NLLs
    refer to the centered targets. Returns the best restart.
    """
    _require_layers(arch)
    if arch[0].input_width != data.d_in:
        raise ValueError(
            f"architecture expects {arch[0].input_width}-dim inputs, data has {data.d_in}"
        )
    centered, mean, scale = center_targets(data)

    def value_and_grad(vec, template):
        with np.errstate(all="ignore"):
            try:
                grad = mfgp.nll_gradient(unpack_params(vec, template, config), centered)
                f, g = grad.nll, pack_gradient(grad, config)
            except NotPositiveDefiniteError:
                return _PENALTY, np.zeros(vec.size)
            if not (np.isfinite(f) and np.all(np.isfinite(g))):
                return _PENALTY, np.zeros(vec.size)
            return f, g

    per_restart = []
    # (start template, x, f, iterations, stop) per distinct start point,
    # keyed by its packed bytes: the frozen parts come from the config, so
    # equal bytes mean the same objective from the same point, and L-BFGS-B
    # would repeat its run
    runs = {}
    for r in range(config.restarts):
        params0 = init_params(arch, config, r)
        x0 = pack_params(params0, config)
        key = x0.tobytes()
        if key not in runs:
            objective = partial(value_and_grad, template=params0)
            runs[key] = params0, *_minimize_restart(objective, x0, config.max_iterations)
        per_restart.append(RestartResult(r, *runs[key][2:]))

    # min keeps the first of equal NLLs, in restart order
    template, x, best_nll, _, _ = min(runs.values(), key=lambda run: run[2])
    if best_nll == np.inf:
        raise TrainingFailedError(
            f"all {config.restarts} restarts failed with non-positive-definite covariances"
        )
    best = unpack_params(x, template, config)
    return TrainReport(best, best_nll, per_restart, mean, scale, config)

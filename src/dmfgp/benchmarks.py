"""Seeded generators for the three discontinuous-correlation benchmarks
(step function, Forrester function with jump, joint-prior sample with a
piecewise-linear true feature map) and prediction-quality metrics.
"""

from dataclasses import dataclass

import numpy as np

from . import feature_map as fm
from . import mfgp
from .kernel import KernelParams
from .mfgp import Dataset, ModelParams

__all__ = [
    "KINDS",
    "BenchmarkSpec",
    "Metrics",
    "candidate_points",
    "step_truth",
    "forrester_truth",
    "true_h_sample",
    "generate",
    "metrics",
]

KINDS = ("step", "forrester_jump", "prior_sample")

# per-kind candidate partition: 50 + 100 + 50 uniform points on three subintervals
_PARTITION = {
    "step": (0.0, 0.8, 1.2, 2.0),
    "forrester_jump": (0.0, 0.4, 0.6, 1.0),
    "prior_sample": (0.0, 0.4, 0.6, 1.0),
}
_DEFAULT_SIZES = {"step": (45, 5), "forrester_jump": (50, 5), "prior_sample": (50, 15)}
N_CANDIDATES = 200
N_GRID = 200
RHO_TRUE = 1.0  # the prior_sample truth's scale factor between the fidelities


@dataclass
class BenchmarkSpec:
    kind: str
    seed: int = 0
    n1: int = None
    n2: int = None
    noise_sd: float = 0.01  # step only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown benchmark kind {self.kind!r}; expected one of {KINDS}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.noise_sd < np.inf:  # also rejects NaN
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        d1, d2 = _DEFAULT_SIZES[self.kind]
        if self.n1 is None:
            self.n1 = d1
        if self.n2 is None:
            self.n2 = d2
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"n1 and n2 must be >= 1, got n1={self.n1}, n2={self.n2}")
        if self.n1 + self.n2 > N_CANDIDATES:
            raise ValueError("n1 + n2 cannot exceed the 200 candidate points")


def candidate_points(kind, seed):
    """200 candidate inputs: 50/100/50 uniform draws on the kind's partition."""
    a, b, c, d = _PARTITION[kind]
    rng = np.random.default_rng([seed, 0])
    return np.concatenate(
        [rng.uniform(a, b, 50), rng.uniform(b, c, 100), rng.uniform(c, d, 50)]
    )


def _check_range(x, lo, hi):
    x = np.asarray(x, dtype=float)
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError(f"input outside [{lo}, {hi}]")
    return x


def step_truth(x, fidelity):
    """Step benchmark: high is -1 on [0,1] and 2 on (1,2]; low is 0 and 1."""
    x = _check_range(x, 0.0, 2.0)
    if fidelity == "high":
        return np.where(x <= 1.0, -1.0, 2.0)
    if fidelity == "low":
        return np.where(x <= 1.0, 0.0, 1.0)
    raise ValueError(f"unknown fidelity {fidelity!r}")


def forrester_truth(x, fidelity):
    """Forrester function with an added jump at x = 0.5.

    low(x)  = 0.5(6x-2)^2 sin(12x-4) + 10(x-0.5) - 5, plus 3 for x > 0.5;
    high(x) = 2 low(x) - 20x + 20, plus 4 for x > 0.5.
    """
    x = _check_range(x, 0.0, 1.0)
    low = 0.5 * (6.0 * x - 2.0) ** 2 * np.sin(12.0 * x - 4.0) + 10.0 * (x - 0.5) - 5.0
    low = low + np.where(x > 0.5, 3.0, 0.0)
    if fidelity == "low":
        return low
    if fidelity == "high":
        return 2.0 * low - 20.0 * x + 20.0 + np.where(x > 0.5, 4.0, 0.0)
    raise ValueError(f"unknown fidelity {fidelity!r}")


def true_h_sample(x):
    """Ground-truth feature map of a 1-D array: rows (x, x) for x <= 0.5, (x, 2x) above."""
    x = _check_range(x, 0.0, 1.0)
    return np.stack([x, np.where(x <= 0.5, x, 2.0 * x)], axis=1)


def generate(spec):
    """Generate one benchmark dataset plus a noise-free evaluation grid.

    Returns
    -------
    (Dataset, grid_x, grid_truth)
        grid_x is a (200, 1) uniform grid over the kind's interval and
        grid_truth the noise-free high-fidelity values on it (for
        prior_sample, the drawn f2 sample evaluated on the grid).
    """
    cand = candidate_points(spec.kind, spec.seed)
    lo, hi = _PARTITION[spec.kind][0], _PARTITION[spec.kind][3]
    grid = np.linspace(lo, hi, N_GRID)
    rng = np.random.default_rng([spec.seed, 1])
    idx = rng.permutation(N_CANDIDATES)
    i1, i2 = idx[: spec.n1], idx[spec.n1 : spec.n1 + spec.n2]
    x1, x2 = cand[i1], cand[i2]

    if spec.kind == "step":
        f1 = step_truth(x1, "low") + rng.normal(0.0, spec.noise_sd, spec.n1)
        f2 = step_truth(x2, "high") + rng.normal(0.0, spec.noise_sd, spec.n2)
        truth = step_truth(grid, "high")
    elif spec.kind == "forrester_jump":
        f1 = forrester_truth(x1, "low")
        f2 = forrester_truth(x2, "high")
        truth = forrester_truth(grid, "high")
    else:  # prior_sample: draw from the joint prior with the true feature map
        # the zero-layer map's features are its inputs: here, the true features
        arch, fmap = fm.identity_map(2)
        unit = KernelParams(0.0, np.zeros(2))
        truth_params = ModelParams(RHO_TRUE, unit, unit, arch, fmap)
        H = true_h_sample(np.concatenate([cand, grid]))
        s1, s2 = mfgp.sample_prior(truth_params, H, [spec.seed, 2])
        f1, f2 = s1[i1], s2[i2]
        truth = s2[N_CANDIDATES:]

    data = Dataset(x1.reshape(-1, 1), f1, x2.reshape(-1, 1), f2)
    return data, grid.reshape(-1, 1), truth


@dataclass
class Metrics:
    rmse: float
    coverage: float  # fraction of truth within mean +- 2 sqrt(variance)
    mnlpd: float  # mean negative log predictive density


def metrics(pred, truth):
    truth = np.asarray(truth, dtype=float).ravel()
    if truth.shape[0] != pred.mean.shape[0]:
        raise ValueError(
            f"length mismatch: {pred.mean.shape[0]} predictions vs {truth.shape[0]} truths"
        )
    err = pred.mean - truth
    rmse = float(np.sqrt(np.mean(err**2)))
    sd = np.sqrt(pred.variance)
    coverage = float(np.mean(np.abs(err) <= 2.0 * sd))
    var = np.maximum(pred.variance, 1e-12)
    mnlpd = float(np.mean(0.5 * np.log(2.0 * np.pi * var) + err**2 / (2.0 * var)))
    return Metrics(rmse, coverage, mnlpd)

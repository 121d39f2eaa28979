"""Deep multi-fidelity Gaussian processes.

Two-fidelity GP regression over a jointly-trained multilayer feature map,
with exact marginal-likelihood training; the classical AR(1) co-kriging
model is recovered by freezing the feature map to the identity.
"""

from .benchmarks import BenchmarkSpec, Metrics, generate, metrics
from .feature_map import FeatureMapParams, LayerSpec, identity_map
from .kernel import KernelParams
from .mfgp import (
    Dataset,
    ModelParams,
    NotPositiveDefiniteError,
    PosteriorPrediction,
    nll,
    nll_gradient,
    predict,
    sample_prior,
)
from .model import FittedModel, from_report, load_model, save_model
from .trainer import TrainConfig, TrainReport, TrainingFailedError, gradient_check, train

__all__ = [
    "BenchmarkSpec",
    "Dataset",
    "FeatureMapParams",
    "FittedModel",
    "KernelParams",
    "LayerSpec",
    "Metrics",
    "ModelParams",
    "NotPositiveDefiniteError",
    "PosteriorPrediction",
    "TrainConfig",
    "TrainReport",
    "TrainingFailedError",
    "from_report",
    "generate",
    "gradient_check",
    "identity_map",
    "load_model",
    "metrics",
    "nll",
    "nll_gradient",
    "predict",
    "sample_prior",
    "save_model",
    "train",
]

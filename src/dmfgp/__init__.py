"""Deep multi-fidelity Gaussian processes.

Two-fidelity GP regression over a jointly-trained multilayer feature map,
with exact marginal-likelihood training; the classical AR(1) co-kriging
model is recovered with the zero-layer feature map h(x) = x.
"""

import importlib

from .benchmarks import BenchmarkSpec, Metrics, generate, metrics
from .feature_map import FeatureMapParams, LayerSpec, identity_map
from .kernel import KernelParams
from .mfgp import (
    Dataset,
    ModelParams,
    NotPositiveDefiniteError,
    PosteriorPrediction,
    TrainingFailedError,
    nll,
    nll_gradient,
    predict,
    sample_prior,
)
from .model import FittedModel, from_report, load_model, save_model

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


def __getattr__(name):
    # The trainer pulls in scipy.optimize, which only training needs; load it
    # on first use so that importing dmfgp to predict stays cheap.
    if name in ("trainer", "TrainConfig", "TrainReport", "train"):
        trainer = importlib.import_module(".trainer", __name__)
        return trainer if name == "trainer" else getattr(trainer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

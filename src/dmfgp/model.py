"""Fitted-model container with target centering and JSON serialization.

The model file is a single JSON document holding the architecture, all
parameters (weights row-major, hyperparameters in log-space), the training
data, centering constants, and training metadata. JSON floats round-trip
exactly (shortest-repr encoding), so a reloaded model reproduces its NLL
bit for bit.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import feature_map as fm
from . import mfgp
from .kernel import KernelParams
from .mfgp import Dataset, ModelParams, PosteriorPrediction

__all__ = ["FittedModel", "from_report", "save_model", "load_model"]


@dataclass
class FittedModel:
    params: ModelParams
    data: Dataset  # raw (uncentered) training data
    center_mean: float
    center_scale: float
    meta: dict = field(default_factory=dict)

    def predict(self, Xstar):
        """Posterior of the latent high-fidelity output, in original units."""
        centered = self.data.centered(self.center_mean, self.center_scale)
        raw = mfgp.predict(self.params, centered, Xstar)
        return PosteriorPrediction(
            raw.mean * self.center_scale + self.center_mean,
            raw.variance * self.center_scale**2,
        )

    def features(self, X):
        """Learned feature-space image h(X)."""
        return fm.forward(self.params.arch, self.params.fmap, np.atleast_2d(np.asarray(X, float)))

    @property
    def d_in(self):
        return self.data.d_in


def from_report(report, data, meta=None):
    """Build a FittedModel from a TrainReport and the raw training data."""
    meta = {
        **(meta or {}),
        "best_nll": report.best_nll,
        "per_restart": [
            {
                "restart": r.restart_index,
                "final_nll": r.final_nll,
                "iterations": r.iterations,
                "stop": r.stop,
            }
            for r in report.per_restart
        ],
        "seed": report.config.seed,
        "restarts": report.config.restarts,
    }
    return FittedModel(report.best_params, data, report.center_mean, report.center_scale, meta)


def _kernel_to_json(k):
    return {
        "log_signal_variance": k.log_signal_variance,
        "log_lengthscales": k.log_lengthscales.tolist(),
    }


def _kernel_from_json(d):
    return KernelParams(d["log_signal_variance"], np.asarray(d["log_lengthscales"]))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def save_model(model, path):
    p = model.params
    doc = {
        "format": "dmfgp-model-v1",
        "arch": [
            {"input_width": s.input_width, "output_width": s.output_width, "transfer": s.transfer}
            for s in p.arch
        ],
        "params": {
            "rho": p.rho,
            "k1": _kernel_to_json(p.k1),
            "k2": _kernel_to_json(p.k2),
            "log_noise1": p.log_noise1,
            "log_noise2": p.log_noise2,
            "fmap": {
                "weights": [w.tolist() for w in p.fmap.weights],
                "biases": [b.tolist() for b in p.fmap.biases],
            },
        },
        "centering": {"mean": model.center_mean, "scale": model.center_scale},
        "data": {
            "x1": model.data.x1.tolist(),
            "f1": model.data.f1.tolist(),
            "x2": model.data.x2.tolist(),
            "f2": model.data.f2.tolist(),
        },
        "training": _sanitize(model.meta),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    arch = [
        fm.LayerSpec(s["input_width"], s["output_width"], s["transfer"]) for s in doc["arch"]
    ]
    pd = doc["params"]
    fmap = fm.FeatureMapParams(
        [np.asarray(w, dtype=float) for w in pd["fmap"]["weights"]],
        [np.asarray(b, dtype=float) for b in pd["fmap"]["biases"]],
    )
    params = ModelParams(
        pd["rho"],
        _kernel_from_json(pd["k1"]),
        _kernel_from_json(pd["k2"]),
        arch,
        fmap,
        pd["log_noise1"],
        pd["log_noise2"],
    )
    dd = doc["data"]
    data = Dataset(
        np.asarray(dd["x1"]), np.asarray(dd["f1"]), np.asarray(dd["x2"]), np.asarray(dd["f2"])
    )
    c = doc["centering"]
    return FittedModel(params, data, c["mean"], c["scale"], doc.get("training", {}))

"""Fitted-model container with target centering and JSON serialization.

The model file is a single JSON document holding the architecture, all
parameters (weights row-major, hyperparameters in log-space), the training
data, centering constants, and training metadata. JSON floats round-trip
exactly (shortest-repr encoding), so a reloaded model reproduces its NLL
bit for bit.
"""

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import feature_map as fm
from . import mfgp
from .kernel import KernelParams
from .mfgp import Dataset, ModelParams, PosteriorPrediction

__all__ = ["FittedModel", "from_report", "save_model", "load_model"]

_FORMAT = "dmfgp-model-v1"


@dataclass(frozen=True)
class FittedModel:
    """A trained model. It is frozen and holds a read-only copy of its
    training data, so the centred copy of that data cannot go stale."""

    params: ModelParams
    data: Dataset  # raw (uncentered) training data
    center_mean: float
    center_scale: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        d = self.data
        arrays = [np.array(a) for a in (d.x1, d.f1, d.x2, d.f2)]
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "data", Dataset(*arrays))

    @cached_property
    def _centered(self):
        return self.data.centered(self.center_mean, self.center_scale)

    def predict(self, Xstar):
        """Posterior of the latent high-fidelity output in original units, and h(Xstar)."""
        raw = mfgp.predict(self.params, self._centered, Xstar)
        return PosteriorPrediction(
            raw.mean * self.center_scale + self.center_mean,
            raw.variance * self.center_scale**2,
            raw.features,
        )

    def features(self, X):
        """Learned feature-space image h(X)."""
        return fm.forward(self.params.arch, self.params.fmap, X)[-1]

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
        "format": _FORMAT,
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


class _Fields:
    """Checked reads of a model document's fields. Every failure raises a
    ValueError that names the file and the field, e.g.
    `m.json: params.k1.log_lengthscales must be ...`."""

    def __init__(self, doc, path):
        self.doc, self.path = doc, path

    @staticmethod
    def _name(keys):
        return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")

    def fail(self, keys, what, got):
        got = repr(got)
        got = got if len(got) <= 60 else got[:57] + "..."
        raise ValueError(f"{self.path}: {self._name(keys)} must be {what}, got {got}")

    def get(self, *keys):
        obj = self.doc
        for i, k in enumerate(keys):
            try:
                obj = obj[k]
            except (KeyError, IndexError, TypeError):
                raise ValueError(f"{self.path}: {self._name(keys[: i + 1])} is missing") from None
        return obj

    def number(self, *keys):
        v = self.get(*keys)
        if not (isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)):
            self.fail(keys, "a finite number", v)
        return v

    def width(self, *keys):
        v = self.get(*keys)
        if not (isinstance(v, int) and not isinstance(v, bool) and v >= 1):
            self.fail(keys, "an integer >= 1", v)
        return v

    def array(self, keys, shape):
        """A finite float array of this shape; None in shape matches any
        length >= 1."""
        v = self.get(*keys)
        try:
            a = np.asarray(v) if isinstance(v, list) else None
        except ValueError:  # ragged nesting
            a = None
        ok = (
            a is not None
            and a.dtype.kind in "iuf"
            and a.ndim == len(shape)
            and all(n == s if s is not None else n >= 1 for n, s in zip(a.shape, shape))
            and np.isfinite(a).all()
        )
        if not ok:
            dims = ", ".join("*" if s is None else str(s) for s in shape)
            self.fail(keys, f"a finite array of shape ({dims})", v)
        return a.astype(float, copy=False)


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        got = doc.get("format") if isinstance(doc, dict) else None
        raise ValueError(f"{path}: format is {got!r}, expected {_FORMAT!r}")
    f = _Fields(doc, path)
    mean, scale = f.number("centering", "mean"), f.number("centering", "scale")
    if not scale > 0:
        f.fail(("centering", "scale"), "a finite number > 0", scale)

    x1 = f.array(("data", "x1"), (None, None))
    d_in = x1.shape[1]
    x2 = f.array(("data", "x2"), (None, d_in))
    data = Dataset(
        x1, f.array(("data", "f1"), (x1.shape[0],)), x2, f.array(("data", "f2"), (x2.shape[0],))
    )

    layers = f.get("arch")
    if not isinstance(layers, list):
        f.fail(("arch",), "a list of layers", layers)
    arch, weights, biases, width = [], [], [], d_in
    for i in range(len(layers)):
        n_in, n_out = f.width("arch", i, "input_width"), f.width("arch", i, "output_width")
        if n_in != width:
            f.fail(("arch", i, "input_width"), f"{width}, the width of its input", n_in)
        transfer = f.get("arch", i, "transfer")
        if transfer not in fm.TRANSFERS:
            f.fail(("arch", i, "transfer"), f"one of {fm.TRANSFERS}", transfer)
        arch.append(fm.LayerSpec(n_in, n_out, transfer))
        weights.append(f.array(("params", "fmap", "weights", i), (n_out, n_in)))
        biases.append(f.array(("params", "fmap", "biases", i), (n_out,)))
        width = n_out
    for part in ("weights", "biases"):
        v = f.get("params", "fmap", part)
        if not (isinstance(v, list) and len(v) == len(arch)):
            f.fail(("params", "fmap", part), f"a list of {len(arch)}, one per layer", v)

    kernels = [
        KernelParams(f.number("params", k, "log_signal_variance"),
                     f.array(("params", k, "log_lengthscales"), (width,)))
        for k in ("k1", "k2")
    ]
    params = ModelParams(
        f.number("params", "rho"),
        *kernels,
        arch,
        fm.FeatureMapParams(weights, biases),
        f.number("params", "log_noise1"),
        f.number("params", "log_noise2"),
    )
    return FittedModel(params, data, mean, scale, doc.get("training", {}))

"""Spans around the calls into each dmfgp module, recorded from outside.

``Tracer.install`` replaces module attributes (and two FittedModel methods)
with wrappers that record a span per call while the tracer is active. The
program looks these names up at call time (``kern.gram``, ``mfgp.assemble``,
the ``minimize`` that trainer imported from scipy, ...), so its own calls go
through the wrappers. Spans are kept in memory; ``write`` saves them at the
end of a run. ``layer_metrics`` turns them into the per-layer metrics, where
a span's self time is its duration minus that of its direct children.
"""

import gzip
import json
import math
import os
from collections import defaultdict
from time import perf_counter

import numpy as np


def _kernel_meta(args, out):
    U, V = np.atleast_2d(args[1]), np.atleast_2d(args[2])
    outs = out if isinstance(out, list) else [out]
    pairs = U.shape[0] * V.shape[0]
    # computed, not measured: the scaled-difference tensor plus the outputs
    return {"pairs": pairs, "bytes": 8 * (pairs * U.shape[1] + sum(o.size for o in outs))}


def _nonfinite_nll(args, out):
    return {"bad": not math.isfinite(out)}


def _nonfinite_gradient(args, out):
    parts = [out.k1, out.k2, [out.rho, out.log_noise1, out.log_noise2]]
    parts += list(out.fmap.weights) + list(out.fmap.biases)
    return {"bad": not all(np.all(np.isfinite(p)) for p in parts)}


def _minimize_meta(args, out):
    return {"nfev": int(out.nfev), "nit": int(out.nit)}


def _rows_meta(args, out):
    return {"rows": int(np.atleast_2d(args[2]).shape[0])}


def _file_meta(args, out):
    return {"bytes": os.path.getsize(args[0])}


def targets(dmfgp):
    """(owner, attribute, span name, meta hook) for every traced call."""
    k, fm, m = dmfgp.kernel, dmfgp.feature_map, dmfgp.mfgp
    tr, mo, io, cli = dmfgp.trainer, dmfgp.model, dmfgp.io, dmfgp.cli
    return [
        (k, "gram", "kernel.gram", _kernel_meta),
        (k, "gram_grad_hyper", "kernel.gram_grad_hyper", _kernel_meta),
        (k, "gram_grad_inputs", "kernel.gram_grad_inputs", _kernel_meta),
        (fm, "forward", "feature_map.forward", _rows_meta),
        (fm, "backward", "feature_map.backward", None),
        (m, "assemble", "mfgp.assemble", None),
        (m, "nll", "mfgp.nll", _nonfinite_nll),
        (m, "nll_gradient", "mfgp.nll_gradient", _nonfinite_gradient),
        (m, "predict", "mfgp.predict", None),
        (m, "cholesky", "mfgp.cholesky", None),
        (m, "cho_solve", "mfgp.cho_solve", None),
        (m, "solve_triangular", "mfgp.solve_triangular", None),
        (tr, "train", "trainer.train", None),
        (tr, "_minimize_restart", "trainer.restart", None),
        (tr, "minimize", "trainer.minimize", _minimize_meta),
        (tr, "init_params", "trainer.init_params", None),
        (tr, "center_targets", "trainer.center_targets", None),
        (tr, "pack_params", "trainer.pack_params", None),
        (tr, "unpack_params", "trainer.unpack_params", None),
        (tr, "pack_gradient", "trainer.pack_gradient", None),
        (mo.FittedModel, "predict", "model.predict", None),
        (mo.FittedModel, "features", "model.features", None),
        (mo, "load_model", "model.load_model", None),
        (mo, "from_report", "model.from_report", None),
        (io, "read_queries", "io.read_queries", None),
        (io, "write_predictions", "io.write_predictions", _file_meta),
        (cli, "main", "cli.main", None),
        (dmfgp.benchmarks, "generate", "benchmarks.generate", None),
    ]


class Tracer:
    """Nested spans [name, start, end, parent index, meta]."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._installed = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span recorded by the benchmark itself."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, name, meta):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[4] = {"error": type(e).__name__}
                raise
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if meta is not None:
                rec[4] = meta(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, dmfgp):
        for owner, attr, name, meta in targets(dmfgp):
            fn = owner.__dict__[attr]
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, meta))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, meta) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "meta": meta}) + "\n")

    def summary(self):
        """Per span name: calls, total and self seconds, errors, meta sums."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, parent, meta) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[i]
            for key, v in (meta or {}).items():
                a[key] += 1 if isinstance(v, str) else v
        return agg

    def penalty_evals(self):
        """Objective evaluations the trainer maps to its penalty value.

        An evaluation is one nll call and the nll_gradient call after it; it
        is penalised when either raises or returns a non-finite value.
        """
        n, last = 0, None
        for name, _, _, _, meta in self.spans:
            if name == "mfgp.nll":
                bad = bool(meta) and ("error" in meta or meta["bad"])
                n += bad
                last = bad
            elif name == "mfgp.nll_gradient" and last is False:
                n += bool(meta) and ("error" in meta or meta["bad"])
                last = None
        return n


def layer_metrics(tr, rounds):
    """Per-layer metrics from the spans of `rounds` identical rounds.

    Counts and seconds are per round; names ending in _per_* are ratios.
    """
    a = tr.summary()

    def c(name, key="calls"):
        return a[name][key] / rounds if name in a else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    evals = c("mfgp.nll")
    nfev = c("trainer.minimize", "nfev")
    iters = c("trainer.minimize", "nit")
    restarts = c("trainer.restart")
    kernel_calls = c("kernel.gram") + c("kernel.gram_grad_hyper") + c("kernel.gram_grad_inputs")
    trainer_self = sum(c(n, "self_s") for n in a if n.startswith("trainer.") and n != "trainer.minimize")
    return {
        "trainer.evals": (evals, "count/round"),
        "trainer.nfev": (nfev, "count/round"),
        "trainer.extra_evals": (evals - nfev, "count/round"),
        "trainer.extra_evals_per_restart": (ratio(evals - nfev, restarts), "ratio"),
        "trainer.iterations": (iters, "count/round"),
        "trainer.evals_per_iter": (ratio(evals, iters), "ratio"),
        "trainer.optimizer_self_s": (c("trainer.minimize", "self_s"), "s/round"),
        "trainer.self_s": (trainer_self, "s/round"),
        "trainer.penalty_evals": (tr.penalty_evals() / rounds, "count/round"),
        "mfgp.nll_self_s": (c("mfgp.nll", "self_s"), "s/round"),
        "mfgp.nll_gradient_self_s": (c("mfgp.nll_gradient", "self_s"), "s/round"),
        "mfgp.assemble_self_s": (c("mfgp.assemble", "self_s"), "s/round"),
        "mfgp.assemble_per_eval": (ratio(c("mfgp.assemble"), evals), "ratio"),
        "mfgp.assemble_per_predict": (ratio(c("mfgp.assemble"), c("mfgp.predict")), "ratio"),
        "mfgp.predict_self_s": (c("mfgp.predict", "self_s"), "s/round"),
        "mfgp.chol_calls": (c("mfgp.cholesky"), "count/round"),
        "mfgp.chol_s": (c("mfgp.cholesky", "total_s"), "s/round"),
        "mfgp.chol_retries": (c("mfgp.cholesky", "error"), "count/round"),
        "mfgp.solve_s": (c("mfgp.cho_solve", "total_s") + c("mfgp.solve_triangular", "total_s"),
                         "s/round"),
        "kernel.gram_s": (c("kernel.gram", "total_s"), "s/round"),
        "kernel.grad_hyper_s": (c("kernel.gram_grad_hyper", "total_s"), "s/round"),
        "kernel.grad_inputs_s": (c("kernel.gram_grad_inputs", "total_s"), "s/round"),
        "kernel.calls_per_eval": (ratio(kernel_calls, evals), "ratio"),
        "kernel.pairs": (sum(c(n, "pairs") for n in a if n.startswith("kernel.")), "count/round"),
        "kernel.bytes_computed": (sum(c(n, "bytes") for n in a if n.startswith("kernel.")),
                                  "bytes/round"),
        "feature_map.forward_calls": (c("feature_map.forward"), "count/round"),
        "feature_map.forward_s": (c("feature_map.forward", "total_s"), "s/round"),
        "feature_map.rows": (c("feature_map.forward", "rows"), "count/round"),
        "feature_map.backward_s": (c("feature_map.backward", "total_s"), "s/round"),
        "model.predict_self_s": (c("model.predict", "self_s"), "s/round"),
        "model.load_s": (c("model.load_model", "total_s"), "s/round"),
        "io.read_queries_s": (c("io.read_queries", "total_s"), "s/round"),
        "io.write_predictions_s": (c("io.write_predictions", "total_s"), "s/round"),
        "io.bytes_written": (c("io.write_predictions", "bytes"), "bytes/round"),
        "cli.self_s": (c("cli.main", "self_s"), "s/round"),
    }

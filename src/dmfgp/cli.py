"""Command-line pipeline: generate benchmark data, train a model, predict
on queries or a grid, and evaluate against a test grid.

Exit codes: 0 success, 1 usage error, 2 I/O or parse error, 3 numerical
failure (non-positive-definite covariance or failed training).
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmarks, io, model
from .benchmarks import BenchmarkSpec
from .feature_map import LayerSpec
from .mfgp import NotPositiveDefiniteError, TrainingFailedError

__all__ = ["main"]

_KIND_ALIASES = {
    "step": "step",
    "forrester": "forrester_jump",
    "sample": "prior_sample",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_arch(text, d_in):
    """Parse an architecture string like "3-2" into a layer list.

    Hidden widths use the sigmoid transfer and the final width an affine
    (identity) output layer. "identity" selects the AR(1) baseline, whose
    map has no layers, and returns None.
    """
    text = text.strip().lower()
    if text == "identity":
        return None
    try:
        widths = [int(tok) for tok in text.split("-")]
        if not widths or any(w < 1 for w in widths):
            raise ValueError
    except ValueError:
        raise UsageError(f"bad architecture {text!r}; expected e.g. '3-2' or 'identity'") from None
    layers = []
    prev = d_in
    for w in widths[:-1]:
        layers.append(LayerSpec(prev, w, "sigmoid"))
        prev = w
    layers.append(LayerSpec(prev, widths[-1], "identity"))
    return layers


def _default_test_path(out):
    out = Path(out)
    return out.with_name(out.stem + "_test" + (out.suffix or ".csv"))


def cmd_generate(args):
    try:
        spec = BenchmarkSpec(
            _KIND_ALIASES[args.kind],
            seed=args.seed,
            n1=args.n1,
            n2=args.n2,
            noise_sd=args.noise_sd,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    data, grid, truth = benchmarks.generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_dataset(out, data)
    test_out = Path(args.test_out) if args.test_out else _default_test_path(out)
    io.write_test_grid(test_out, grid, truth)
    print(f"wrote {data.n1} low-fidelity + {data.n2} high-fidelity rows to {out}")
    print(f"wrote {grid.shape[0]} test rows to {test_out}")
    return 0


def cmd_train(args):
    # imported here, not at the top: only training needs scipy.optimize
    from . import trainer

    arch_text = "identity" if args.baseline == "ar1" else args.arch or "3-2"
    baseline = arch_text.strip().lower() == "identity"
    if args.noise_variance is None:
        nugget = {}
    elif args.freeze_noise:
        nugget = {"frozen_noise_variance": args.noise_variance}
    else:
        raise UsageError("--noise-variance sets the frozen nugget; it needs --freeze-noise")
    try:
        config = trainer.TrainConfig(
            restarts=args.restarts,
            max_iterations=args.max_iterations,
            seed=args.seed,
            freeze_feature_map=baseline,
            freeze_noise=args.freeze_noise,
            **nugget,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    data = io.read_dataset(args.data)
    # the baseline trains the zero-layer map and reads only the input width
    arch = [LayerSpec(data.d_in, data.d_in, "identity")] if baseline else parse_arch(arch_text, data.d_in)
    report = trainer.train(data, arch, config)
    fitted = model.from_report(report, data, {"baseline": "ar1" if baseline else None})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    model.save_model(fitted, out)

    lines = [f"trained on {args.data} (n1={data.n1}, n2={data.n2})"]
    lines.append(f"architecture: {'identity (AR(1) baseline)' if baseline else arch_text}")
    for r in report.per_restart:
        lines.append(
            f"restart {r.restart_index}: nll={r.final_nll:.6f} ({r.iterations} iterations, {r.stop})"
        )
    lines.append(f"best nll: {report.best_nll:.6f}")
    lines.append(f"model written to {out}")
    report_text = "\n".join(lines) + "\n"
    report_path = out.with_name(out.stem + ".report.txt")
    report_path.write_text(report_text, encoding="utf-8")
    print(report_text, end="")
    return 0


def cmd_predict(args):
    if args.grid is not None and args.grid < 1:
        raise UsageError(f"--grid must be >= 1, got {args.grid}")
    fitted = model.load_model(args.model)
    if args.queries is not None:
        X = io.read_queries(args.queries)
    else:
        if fitted.d_in != 1:
            raise UsageError(
                f"--grid needs a model with 1-D inputs, this one has {fitted.d_in}; use --queries"
            )
        xall = np.vstack([fitted.data.x1, fitted.data.x2])
        X = np.linspace(xall.min(), xall.max(), args.grid).reshape(-1, 1)
    pred = fitted.predict(X)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_predictions(out, X, pred.mean, np.sqrt(pred.variance), fitted.features(X))
    print(f"wrote {X.shape[0]} predictions to {out}")
    return 0


def cmd_evaluate(args):
    fitted = model.load_model(args.model)
    X, truth = io.read_test_grid(args.test)
    pred = fitted.predict(X)
    m = benchmarks.metrics(pred, truth)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {"rmse": m.rmse, "coverage": m.coverage, "mnlpd": m.mnlpd}
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(doc, sort_keys=True))
    return 0


@functools.cache  # one parser per process: parse_args keeps no state between calls
def build_parser():
    parser = _Parser(prog="dmfgp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a benchmark dataset and test grid")
    g.add_argument("--kind", required=True, choices=sorted(_KIND_ALIASES))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n1", type=int, default=None)
    g.add_argument("--n2", type=int, default=None)
    g.add_argument("--noise-sd", type=float, default=0.01)
    g.add_argument("--out", required=True)
    g.add_argument("--test-out", default=None)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="fit a model by marginal-likelihood maximization")
    t.add_argument("--data", required=True)
    a = t.add_mutually_exclusive_group()
    a.add_argument("--arch", default=None, help='layer widths, e.g. "3-2" (the default), or "identity"')
    a.add_argument("--baseline", choices=["ar1"], default=None, help="the same as --arch identity")
    t.add_argument("--restarts", type=int, default=10)
    t.add_argument("--max-iterations", type=int, default=1000)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--freeze-noise", action="store_true")
    t.add_argument(
        "--noise-variance", type=float, default=None,
        help="nugget variance used with --freeze-noise (default 1e-4)",
    )
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="posterior prediction at queries or on a grid")
    p.add_argument("--model", required=True)
    q = p.add_mutually_exclusive_group(required=True)
    q.add_argument("--queries", default=None)
    q.add_argument("--grid", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    e = sub.add_parser("evaluate", help="metrics of a model against a test grid")
    e.add_argument("--model", required=True)
    e.add_argument("--test", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NotPositiveDefiniteError, TrainingFailedError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

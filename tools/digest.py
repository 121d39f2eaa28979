"""Print one sha256 per group of program outputs, to compare two checkouts
bit for bit.

Run it on both checkouts at the same BLAS thread count and compare the
outputs; equal lines mean equal bits for that group:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/digest.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/digest.py generate objective factor cli

Groups (all by default):

- generate: benchmarks.generate output (the data arrays, the grid and its
  truth) for the 3 kinds at seeds 0-29.
- objective: NLL and packed gradient at perturbed points: 3 kinds, data
  seeds 0-4, deep and zero-layer maps, 4 restart start points, 3
  perturbations of each.
- factor: mfgp.assemble's factored state at the objective group's points:
  the Cholesky factor (its zeros' signs too), alpha, the features H and
  the jitter. Bundles from before K left them have these fields too, so
  the group compares checkouts across that change.
- fits: the 30 acceptance-protocol fits (3 kinds, seeds 0-4, deep and
  AR(1), 10 restarts): per_restart, best_nll and the packed best parameters.
- predict: those fits' grid predictions, and each grid point predicted on
  its own (mean and variance).
- cli: the files that dmfgp generate/train/predict/evaluate write for step,
  forrester and sample at seed 1 (deep with 3 restarts and --baseline ar1,
  grid and --queries predictions), run with relative paths.

The first line, `threads OPENBLAS_NUM_THREADS=<value|unset>`, records the
BLAS thread setting. Where scipy bundles OpenBLAS, `prior_sample` data no
longer depend on the thread count (sample_prior factors on one thread),
and the generate, objective and factor groups print the same lines at one
and two threads; tests/test_mfgp.py checks that. Other groups are not held
to it, so compare two digests only when that line matches too: a plain
`diff` of the two outputs shows a mismatched pair. The fits group takes
most of the time (about half a minute on two CPUs).
"""

import argparse
import contextlib
import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from dmfgp import benchmarks, cli, mfgp, model, trainer
from dmfgp.feature_map import LayerSpec

ARCH = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
KINDS = ("step", "forrester_jump", "prior_sample")
SEEDS = range(5)


def _config(kind, seed, baseline, restarts=10):
    # the acceptance protocol: the noise-free kinds train with a fixed nugget
    return trainer.TrainConfig(
        seed=seed, restarts=restarts, freeze_noise=kind != "step", freeze_feature_map=baseline
    )


def _update(h, *values):
    for v in values:
        h.update(np.asarray(v, dtype=float).tobytes())


def generated():
    h = hashlib.sha256()
    for kind in KINDS:
        for seed in range(30):
            data, grid, truth = benchmarks.generate(benchmarks.BenchmarkSpec(kind, seed=seed))
            _update(h, data.x1, data.f1, data.x2, data.f2, grid, truth)
    return h.hexdigest()


def _objective_points():
    """(params, centered data, config) at the perturbed points of the
    objective and factor groups."""
    for kind in KINDS:
        for seed in SEEDS:
            data = benchmarks.generate(benchmarks.BenchmarkSpec(kind, seed=seed))[0]
            centered = trainer.center_targets(data)[0]
            for baseline in (False, True):
                config = _config(kind, seed, baseline)
                for r in range(4):
                    p0 = trainer.init_params(ARCH, config, r)
                    x0 = trainer.pack_params(p0, config)
                    rng = np.random.default_rng([seed, r, 7])
                    for _ in range(3):
                        x = x0 + 0.3 * rng.standard_normal(x0.size)
                        yield trainer.unpack_params(x, p0, config), centered, config


def objective():
    h = hashlib.sha256()
    for params, centered, config in _objective_points():
        g = mfgp.nll_gradient(params, centered)
        _update(h, g.nll, trainer.pack_gradient(g, config))
    return h.hexdigest()


def factor():
    h = hashlib.sha256()
    for params, centered, _ in _objective_points():
        b = mfgp.assemble(params, centered)
        _update(h, b.chol, b.alpha, b.H, b.jitter)
    return h.hexdigest()


def _fits():
    for kind in KINDS:
        for seed in SEEDS:
            data, grid, _ = benchmarks.generate(benchmarks.BenchmarkSpec(kind, seed=seed))
            for baseline in (False, True):
                config = _config(kind, seed, baseline)
                yield config, trainer.train(data, ARCH, config), data, grid


def fits_and_predict(groups):
    fits, preds = hashlib.sha256(), hashlib.sha256()
    for config, report, data, grid in _fits():
        for r in report.per_restart:
            fits.update(f"{r.restart} {r.iterations} {r.stop}".encode())
            _update(fits, r.final_nll)
        _update(fits, report.best_nll, trainer.pack_params(report.best_params, config))
        if "predict" in groups:
            fitted = model.from_report(report, data)
            p = fitted.predict(grid)
            _update(preds, p.mean, p.variance)
            for i in range(grid.shape[0]):
                p = fitted.predict(grid[i : i + 1])
                _update(preds, p.mean, p.variance)
    return {"fits": fits.hexdigest(), "predict": preds.hexdigest()}


def cli_files():
    runs = []
    for kind in ("step", "forrester", "sample"):
        d = f"{kind}.csv"
        test = f"{kind}_test.csv"
        runs.append(["generate", "--kind", kind, "--seed", "1", "--out", d])
        for name, how in (("deep", ["--arch", "3-2", "--restarts", "3"]), ("ar1", ["--baseline", "ar1"])):
            m = f"{kind}_{name}.json"
            runs.append(["train", "--data", d, *how, "--seed", "1", "--out", m])
            runs.append(["predict", "--model", m, "--grid", "50", "--out", f"{kind}_{name}_grid.csv"])
            runs.append(["predict", "--model", m, "--queries", test, "--out", f"{kind}_{name}_q.csv"])
            runs.append(["evaluate", "--model", m, "--test", test, "--out", f"{kind}_{name}_eval.json"])
    h = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                for argv in runs:
                    code = cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"dmfgp {' '.join(argv)} exited with {code}")
            for path in sorted(Path(".").iterdir()):
                h.update(path.name.encode() + b"\0" + path.read_bytes())
        finally:
            os.chdir(cwd)
    return h.hexdigest()


def main():
    names = ("generate", "objective", "factor", "fits", "predict", "cli")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("groups", nargs="*", help=f"any of {', '.join(names)} (default: all)")
    groups = parser.parse_args().groups or names
    if set(groups) - set(names):
        parser.error(f"unknown group in {groups}; choose from {names}")
    print(f"threads OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    out = {}
    if "generate" in groups:
        out["generate"] = generated()
    if "objective" in groups:
        out["objective"] = objective()
    if "factor" in groups:
        out["factor"] = factor()
    if "fits" in groups or "predict" in groups:
        out.update(fits_and_predict(groups))
    if "cli" in groups:
        out["cli"] = cli_files()
    for name in names:
        if name in groups:
            print(f"{name} {out[name]}")


if __name__ == "__main__":
    main()

"""Per-seed quality table for the deep model and the AR(1) baseline.

Runs the acceptance protocol of ``run_benchmark`` in
``tests/test_acceptance.py`` (architecture sigmoid 3 / affine 2, 10
restarts, 1000-iteration cap, noise trained on ``step`` and frozen at 1e-4
on the two noise-free kinds) on seeds 0-4 of every benchmark kind, and
prints a Markdown table of RMSE, coverage and MNLPD on the 200-point test
grid: one row per kind and seed, the deep model and AR(1) side by side.
Each fit's wall time goes to stderr.

    python3 bench/quality.py

Quality is a reference table, not a bounded metric: training outcomes are
sensitive to roundoff, so single-seed numbers move with any change to the
order of floating-point operations.
"""

import os
import sys
import time
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from dmfgp import benchmarks, model, trainer  # noqa: E402
from dmfgp.benchmarks import BenchmarkSpec  # noqa: E402
from dmfgp.feature_map import LayerSpec  # noqa: E402

ARCH = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
SEEDS = range(5)


def main():
    warnings.filterwarnings("ignore")
    print("| kind | seed | deep RMSE | deep coverage | deep MNLPD "
          "| AR(1) RMSE | AR(1) coverage | AR(1) MNLPD |")
    print("|---|---|---|---|---|---|---|---|")
    for kind in benchmarks.KINDS:
        for seed in SEEDS:
            data, grid, truth = benchmarks.generate(BenchmarkSpec(kind, seed=seed))
            cells = []
            for label, baseline in (("deep", False), ("ar1", True)):
                cfg = trainer.TrainConfig(
                    seed=seed, restarts=10, freeze_noise=kind != "step",
                    freeze_feature_map=baseline,
                )
                t0 = time.perf_counter()
                report = trainer.train(data, ARCH, cfg)
                print(f"{kind} seed {seed} {label}: fit {time.perf_counter() - t0:.2f} s",
                      file=sys.stderr, flush=True)
                m = benchmarks.metrics(model.from_report(report, data).predict(grid), truth)
                cells += [f"{m.rmse:.4f}", f"{m.coverage:.2f}", f"{m.mnlpd:.3f}"]
            print(f"| {kind} | {seed} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()

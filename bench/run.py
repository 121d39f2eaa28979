"""dmfgp benchmark: training throughput, prediction latency, CLI latency.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md for why each exists and what it is made of):

  train_deep  deep-model fits (sigmoid 3 / affine 2, 10 restarts) with a
              pinned 60-iteration budget per restart, all three kinds
  train_ar1   identity-map AR(1) fits under the full acceptance protocol
  serve       deep models fitted in set-up, served in a closed loop: point
              and 200-point-grid requests to FittedModel.predict, and
              `dmfgp predict --queries` on 200-row CSVs in process; plus
              fresh `python -m dmfgp.cli predict` processes

Every workload reports every end-to-end metric. The training workloads
interleave serving with their fits to measure the serving metrics (see
Probe and README.md).
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics from a traced run,
and the spans are written to bench/_runs/. BLAS runs on one thread; the
program sees only the inputs generated here from --seed.
"""

import argparse
import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter, thread_time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"

if not (SRC / "dmfgp" / "__init__.py").is_file():
    sys.exit(f"run.py: no dmfgp sources in {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dmfgp  # noqa: E402
import dmfgp.cli  # noqa: E402
from dmfgp.feature_map import LayerSpec  # noqa: E402
from dmfgp.mfgp import NotPositiveDefiniteError  # noqa: E402
from dmfgp.trainer import TrainingFailedError  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("train_deep", "train_ar1", "serve")
KINDS = dmfgp.benchmarks.KINDS
INTERVAL = {"step": (0.0, 2.0), "forrester_jump": (0.0, 1.0), "prior_sample": (0.0, 1.0)}
# the acceptance architecture and protocol of tests/test_acceptance.py
ARCH = [LayerSpec(1, 3, "sigmoid"), LayerSpec(3, 2, "identity")]
RESTARTS = 10
# every deep restart runs to this budget, so the work per fit does not depend
# on which optimum roundoff steers toward
DEEP_ITERATIONS = 60
# Fit time and prediction latency depend on the data (the optimizer's path,
# and how many kernel entries underflow), so each run averages over several
# datasets per kind: data seeds seed*n .. seed*n + n-1
DATA_SEEDS = {"train_deep": 2, "train_ar1": 8, "serve": 3}
SERVE_RESTARTS = 1  # deep fits done in the serving set-up
# set-up runs at least SETUP_REPEATS times and until it has taken SETUP_MIN_S
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
N_QUERIES = 200
# one closed-loop round asks every served model for this many single points
# and 200-point grids, in a seeded order
POINTS_PER_MODEL = 4
GRIDS_PER_MODEL = 2
# the training workloads serve for this share of their fit time (see Probe)
PROBE_SHARE = 0.4
COLD_CALLS = 7
# failures an operation may report; anything else is a fault of the benchmark
FAILURES = (NotPositiveDefiniteError, TrainingFailedError, ValueError, np.linalg.LinAlgError)

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "train_s": "s", "train_evals_per_s": "evals/s",
    "point_p50_ms": "ms", "point_p90_ms": "ms", "grid_p50_ms": "ms", "grid_p90_ms": "ms",
    "predict_rows_per_s": "rows/s", "cli_p50_ms": "ms", "cli_p90_ms": "ms", "cli_cold_s": "s",
}


class Bench:
    """Samples, operation counts and check results of one run."""

    def __init__(self, seed, workdir, trace):
        self.seed = seed
        self.workdir = workdir
        self.trace = trace
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = None  # set while a traced phase runs
        self.probe_s = 0.0  # wall time spent in the probe
        self._loop0 = (0.0, 0.0)
        self.setup_tracer = None
        self.nfev = 0
        self._minimize = dmfgp.trainer.minimize
        dmfgp.trainer.minimize = self._counting_minimize

    def _counting_minimize(self, *args, **kwargs):
        res = self._minimize(*args, **kwargs)
        self.nfev += int(res.nfev)
        return res

    def close(self):
        dmfgp.trainer.minimize = self._minimize

    def op(self, kind, fn, *args):
        """Run one timed operation; returns (result or None, wall seconds).

        The operation's thread CPU time goes to samples[kind + "_cpu"]: the
        latency percentiles are taken over it (see README.md).
        """
        self.attempted += 1
        tr = self.tracer
        if tr is not None:
            fn = functools.partial(tr.span, "op." + kind, fn)
            tr.active = True
        try:
            t0, c0 = perf_counter(), thread_time()
            out = fn(*args)
            dt, cpu = perf_counter() - t0, thread_time() - c0
        except FAILURES as e:
            self.failed += 1
            self.problem(f"{kind} failed: {type(e).__name__}: {e}")
            return None, 0.0
        finally:
            if tr is not None:
                tr.active = False
        self.samples[kind].append(dt)
        self.samples[kind + "_cpu"].append(cpu)
        return out, dt

    def problem(self, *messages):
        for m in messages:
            if len(self.problems) < 20 and m not in self.problems:
                self.problems.append(m)

    def loop(self, one_round, seconds, tick=None):
        """The whole number of rounds that takes closest to `seconds` (at least
        one), not counting probe time spent inside them; returns each round's
        operation time. `tick` is called after each round with the loop's
        elapsed seconds."""
        times = []
        self._loop0 = (perf_counter(), self.probe_s)
        while True:
            times.append(one_round())
            if tick is not None:
                tick(self.elapsed())
            elapsed = self.elapsed()
            if elapsed + elapsed / len(times) / 2 >= seconds:
                return times

    def elapsed(self):
        """Seconds since the current loop started, without probe time."""
        t0, probe0 = self._loop0
        return perf_counter() - t0 - (self.probe_s - probe0)

    def traced_loop(self, one_round, seconds):
        """Half the time untraced, half traced; returns the loop tracer and both."""
        plain = self.loop(one_round, seconds / 2)
        tr = Tracer()
        tr.install(dmfgp)
        self.tracer = tr
        try:
            traced = self.loop(one_round, seconds / 2)
        finally:
            self.tracer = None
            tr.uninstall()
        return tr, plain, traced


# ---------------------------------------------------------------------------
# inputs


def generate(kind, data_seed):
    data, _, _ = dmfgp.benchmarks.generate(dmfgp.benchmarks.BenchmarkSpec(kind, seed=data_seed))
    return data


def train_config(kind, data_seed, ar1, restarts=RESTARTS):
    return dmfgp.trainer.TrainConfig(
        seed=data_seed, restarts=restarts,
        max_iterations=1000 if ar1 else DEEP_ITERATIONS,
        freeze_noise=kind != "step", freeze_feature_map=ar1,
    )


def data_seeds(seed, group):
    n = DATA_SEEDS[group]
    return [seed * n + i for i in range(n)]


def queries(kind, data_seed):
    lo, hi = INTERVAL[kind]
    rng = np.random.default_rng([data_seed, KINDS.index(kind), 7])
    return np.sort(rng.uniform(lo, hi, N_QUERIES)).reshape(-1, 1)


def request_mix(seed, n_models):
    """One round of the closed loop: (model index, grid row or None for a grid)."""
    rng = np.random.default_rng([seed, 8])
    mix = [(m, int(rng.integers(N_QUERIES))) for m in range(n_models)
           for _ in range(POINTS_PER_MODEL)]
    mix += [(m, None) for m in range(n_models) for _ in range(GRIDS_PER_MODEL)]
    return [mix[i] for i in rng.permutation(len(mix))]


class Fit:
    """A dataset with its training configuration."""

    def __init__(self, kind, data_seed, data, cfg):
        self.kind, self.data_seed, self.data, self.cfg = kind, data_seed, data, cfg
        self._ref_starts = None

    def train(self, b, label):
        """Fit once, timed as operation `label`; returns (TrainReport or None, seconds)."""
        nfev0 = b.nfev
        report, dt = b.op(label, dmfgp.trainer.train, self.data, ARCH, self.cfg)
        b.samples[label + "_nfev"].append(b.nfev - nfev0)
        return report, dt

    def check(self, b, report):
        """Check a fit against the reference; returns the FittedModel."""
        if self._ref_starts is None:
            starts = [dmfgp.trainer.init_params(ARCH, self.cfg, r) for r in range(self.cfg.restarts)]
            self._ref_starts = checks.reference_starts(self.data, starts)
        fitted = dmfgp.model.from_report(report, self.data)
        d = self.data
        H1, H2 = fitted.features(d.x1), fitted.features(d.x2)
        found = checks.feature_problems(np.vstack([H1, H2]), np.vstack([d.x1, d.x2]),
                                        report.best_params)
        ends = [r.final_nll for r in report.per_restart]
        found += checks.fit_problems(report.best_nll, ends,
                                     checks.reference_nll(report.best_params, d, H1, H2),
                                     self._ref_starts)
        b.problem(*(f"{self.kind} seed {self.data_seed}: {p}" for p in found))
        return fitted


class Served:
    """A fitted model with its query grid, files and reference answers."""

    def __init__(self, kind, data_seed, fitted, workdir):
        self.kind, self.fitted = kind, fitted
        self.X = queries(kind, data_seed)
        d, params = fitted.data, fitted.params
        # the reference runs on the program's features: the batched ones, and
        # those of each row mapped on its own, as a single-point request does
        H1, H2 = fitted.features(d.x1), fitted.features(d.x2)
        Hs = fitted.features(self.X)
        H_rows = np.vstack([fitted.features(self.X[i:i + 1]) for i in range(len(self.X))])
        self.setup_problems = (checks.feature_problems(Hs, self.X, params)
                               + checks.feature_problems(H_rows, self.X, params))
        self.ref_mean, self.ref_var = checks.reference_posterior(params, d, H1, H2, Hs)
        self.ref_row_mean, self.ref_row_var = checks.reference_posterior(params, d, H1, H2, H_rows)
        self.tol = checks.tolerances(params, d, H1, H2)
        self.row_tol = checks.tolerances(params, d, H1, H2, checks.ROW_TOL)
        self.ref_features = ref.features(ref.plain_params(params)["layers"], self.X)
        name = f"{kind}-{data_seed}"
        self.model_path = workdir / f"model-{name}.json"
        self.query_path = workdir / f"queries-{name}.csv"
        self.out_path = workdir / f"pred-{name}.csv"
        dmfgp.model.save_model(fitted, self.model_path)
        with open(self.query_path, "w", encoding="utf-8") as fh:
            fh.write("x0\n" + "".join(f"{x:.17g}\n" for x in self.X[:, 0]))
        self.batch = fitted.predict(self.X)
        self.cli_bytes = None

    def prediction_problems(self, pred):
        return checks.prediction_problems(pred.mean, pred.variance, self.ref_mean, self.ref_var,
                                          self.tol)

    def row_problems(self, pred, row):
        r = slice(row, row + 1)
        return checks.row_problems(pred.mean, pred.variance, self.ref_row_mean[r],
                                   self.ref_row_var[r], self.batch.mean[r], self.batch.variance[r],
                                   self.ref_mean[r], self.ref_var[r], self.tol, self.row_tol)

    def cli_argv(self, out=None):
        return ["predict", "--model", str(self.model_path), "--queries", str(self.query_path),
                "--out", str(out or self.out_path)]

    def check_cli_output(self, path):
        data = Path(path).read_bytes()
        if data == self.cli_bytes:
            return []
        found = checks.cli_problems(data.decode("utf-8"), self.X, self.ref_mean, self.ref_var,
                                    self.ref_features, self.tol)
        if not found and self.cli_bytes is None:
            self.cli_bytes = data
        return found


def serving_set(b, models):
    """Served models from {(kind, data seed): FittedModel}."""
    served = [Served(kind, s, fitted, b.workdir) for (kind, s), fitted in models.items()]
    for s in served:
        b.problem(*(f"{s.kind} batch: {p}" for p in s.setup_problems + s.prediction_problems(s.batch)))
    return served


# ---------------------------------------------------------------------------
# operations


def serve_round(b, served, mix):
    """One round of the request mix; returns its wall time and keeps its CPU
    time and rows for predict_rows_per_s."""
    total, cpu, rows = 0.0, 0.0, 0
    for k, row in mix:
        s = served[k]
        X = s.X if row is None else s.X[row:row + 1]
        kind = "grid" if row is None else "point"
        pred, dt = b.op(kind, s.fitted.predict, X)
        total += dt
        if pred is None:
            continue
        cpu += b.samples[kind + "_cpu"][-1]
        rows += X.shape[0]
        found = s.prediction_problems(pred) if row is None else s.row_problems(pred, row)
        b.problem(*(f"{s.kind} request: {p}" for p in found))
    b.samples["serve_round"].append((cpu, rows))
    return total


def cli_round(b, served):
    total = 0.0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for s in served:
            code, dt = b.op("cli", dmfgp.cli.main, s.cli_argv())
            total += dt
            if code is None:
                continue
            if code != 0:
                b.failed += 1
                b.problem(f"{s.kind}: dmfgp predict exited with {code}")
                continue
            b.problem(*(f"{s.kind} cli: {p}" for p in s.check_cli_output(s.out_path)))
    return total


def serve_unit(b, served, mix):
    """One round of the request mix, then one in-process CLI call per model."""
    return serve_round(b, served, mix) + cli_round(b, served)


def cold_call(b, served, i, importtime=False):
    """The i-th fresh `python -m dmfgp.cli predict` process, on model i mod 9.

    Its CPU time (user + system, from the child's rusage) goes to
    samples["cold"]. Returns the import seconds reported by -X importtime,
    if asked, else None.
    """
    s = served[i % len(served)]
    out = b.workdir / f"cold-{i}.csv"
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += ["-m", "dmfgp.cli"] + s.cli_argv(out)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    b.attempted += 1
    r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        b.failed += 1
        b.problem(f"cold dmfgp predict exited with {proc.returncode}: {proc.stderr[-300:]}")
        return None
    b.samples["cold"].append(r1.ru_utime - r0.ru_utime + r1.ru_stime - r0.ru_stime)
    b.problem(*(f"{s.kind} cold cli: {p}" for p in s.check_cli_output(out)))
    return import_seconds(proc.stderr) if importtime else None


def import_seconds(stderr):
    """Sum of the top-level cumulative times in -X importtime output."""
    total = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            if not parts[2].startswith("  "):  # nested imports are indented further
                total += int(parts[1])
    return total / 1e6


# ---------------------------------------------------------------------------
# workloads


def timed_setup(b, setup, record=True):
    """Run set-up SETUP_REPEATS times and until SETUP_MIN_S have passed (once
    if not `record`); returns the last state."""
    times = []
    while not times or record and (len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S):
        t0 = perf_counter()
        state = setup()
        times.append(perf_counter() - t0)
    if record:
        b.samples["setup"].extend(times)
    return state


class Probe:
    """The measurements a workload's own loop does not make, interleaved with it.

    In the training workloads `tick`, called after every fit, runs serve
    units until their time is PROBE_SHARE of the loop's so far. In every
    workload it runs the fresh-process calls, the i-th once the loop is
    (i + 1/2) / COLD_CALLS of the way through `seconds`. On a shared machine
    a latency sampled across the whole run moves less from run to run than
    one sampled in a single stretch. `finish` runs what is left after the
    loop. The probe's time is not counted in `seconds`.
    """

    def __init__(self, b, served, seconds, share):
        self.b, self.served, self.seconds, self.share = b, served, seconds, share
        self.mix = request_mix(b.seed, len(served))
        self.serve_s = 0.0
        self.cold = 0

    def tick(self, done, final=False):
        t0 = perf_counter()
        while self.serve_s < self.share * done:
            u0 = perf_counter()
            serve_unit(self.b, self.served, self.mix)
            self.serve_s += perf_counter() - u0
        while self.cold < COLD_CALLS and (final or (self.cold + 0.5) * self.seconds <= done * COLD_CALLS):
            cold_call(self.b, self.served, self.cold)
            self.cold += 1
        self.b.probe_s += perf_counter() - t0

    def finish(self):
        self.tick(self.b.elapsed(), final=True)


def train_workload(b, workload, seconds):
    ar1 = workload == "train_ar1"
    seeds = data_seeds(b.seed, workload)

    def setup():
        return [(kind, s, generate(kind, s)) for s in seeds for kind in KINDS]

    datasets = traced_setup(b, setup) if b.trace else timed_setup(b, setup)
    fits = [Fit(kind, s, data, train_config(kind, s, ar1)) for kind, s, data in datasets]
    probe = None if b.trace else Probe(b, serving_setup(b, timed=False), seconds, PROBE_SHARE)

    def one_round():
        total = 0.0
        for f in fits:
            report, dt = f.train(b, "fit")
            total += dt
            if report is not None:
                f.check(b, report)
            if probe is not None:
                probe.tick(b.elapsed())
        b.samples["fit_group"].append(total / len(seeds))
        return total

    if b.trace:
        return b.traced_loop(one_round, seconds)
    b.loop(one_round, seconds)
    probe.finish()
    return None


def serving_setup(b, timed=True):
    """Fit deep models on every kind and data seed; write the files the CLI reads.

    The fits are timed as set-up ("setup_fit"), repeated as `timed_setup`
    does with `timed`, once otherwise (the probe of the training workloads,
    whose set-up it does not count in).
    """
    seeds = data_seeds(b.seed, "serve")
    fits = [Fit(kind, s, None, train_config(kind, s, False, SERVE_RESTARTS))
            for s in seeds for kind in KINDS]

    def setup():
        reports, total = [], 0.0
        for f in fits:
            f.data = generate(f.kind, f.data_seed)
            report, dt = f.train(b, "setup_fit")
            if report is None:
                raise RuntimeError(f"set-up fit failed on {f.kind} seed {f.data_seed}")
            reports.append(report)
            total += dt
        b.samples["setup_fit_group"].append(total / len(seeds))
        return reports

    reports = traced_setup(b, setup) if b.trace else timed_setup(b, setup, record=timed)
    return serving_set(b, {(f.kind, f.data_seed): f.check(b, r) for f, r in zip(fits, reports)})


def serve_workload(b, seconds):
    served = serving_setup(b)
    mix = request_mix(b.seed, len(served))
    if b.trace:
        out = b.traced_loop(lambda: serve_unit(b, served, mix), seconds)
        imports = [cold_call(b, served, i, importtime=True) for i in range(COLD_CALLS)]
        imports = [t for t in imports if t is not None]
        b.samples["import"].append(statistics.median(imports) if imports else 0.0)
        return out
    probe = Probe(b, served, seconds, share=0.0)
    b.loop(lambda: serve_unit(b, served, mix), seconds, probe.tick)
    probe.finish()
    return None


def traced_setup(b, setup):
    """One set-up with spans, kept for benchmarks.generate_s."""
    tr = Tracer()
    tr.install(dmfgp)
    tr.active = True
    try:
        state = setup()
    finally:
        tr.active = False
        tr.uninstall()
    b.setup_tracer = tr
    return state


# ---------------------------------------------------------------------------
# metrics


def _ms(xs, q):
    return float(np.percentile(xs, q)) * 1e3


def end_to_end(b):
    s = b.samples
    fit = "fit" if s["fit"] else "setup_fit"  # loop fits where the workload has them
    round_cpu_s = statistics.median(t for t, _ in s["serve_round"])
    values = {
        "setup_s": statistics.median(s["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "train_s": statistics.median(s[fit + "_group"]),
        "train_evals_per_s": sum(s[fit + "_nfev"]) / sum(s[fit]),
        "point_p50_ms": _ms(s["point_cpu"], 50),
        "point_p90_ms": _ms(s["point_cpu"], 90),
        "grid_p50_ms": _ms(s["grid_cpu"], 50),
        "grid_p90_ms": _ms(s["grid_cpu"], 90),
        "predict_rows_per_s": s["serve_round"][0][1] / round_cpu_s,
        "cli_p50_ms": _ms(s["cli_cpu"], 50),
        "cli_p90_ms": _ms(s["cli_cpu"], 90),
        "cli_cold_s": statistics.median(s["cold"]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(b, workload, traced):
    tr, plain, traced_times = traced
    values = layer_metrics(tr, len(traced_times))
    gen = b.setup_tracer.summary().get("benchmarks.generate")
    values["benchmarks.generate_s"] = (gen["total_s"] if gen else 0.0, "s")
    values["cli.import_s"] = (b.samples["import"][0] if b.samples["import"] else 0.0, "s")
    base, with_spans = statistics.median(plain), statistics.median(traced_times)
    values["trace.overhead_s"] = (with_spans - base, "s/round")
    values["trace.overhead_pct"] = (100.0 * (with_spans - base) / base, "%")
    RUNS.mkdir(exist_ok=True)
    tr.spans.extend(b.setup_tracer.spans)  # set-up spans follow, with their own roots
    tr.write(RUNS / f"spans-{workload}-seed{b.seed}.jsonl.gz")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_one(workload, seed, seconds, trace):
    workdir = RUNS / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    b = Bench(seed, workdir, trace)
    try:
        if workload == "serve":
            traced = serve_workload(b, seconds)
        else:
            traced = train_workload(b, workload, seconds)
        metrics = per_layer(b, workload, traced) if trace else end_to_end(b)
    finally:
        b.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for p in b.problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not b.problems, "attempted": b.attempted, "failed": b.failed,
            "metrics": metrics}


def run_all(seed, seconds, trace):
    """Each workload in its own process; prints a table and a combined line."""
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.exit(f"run.py: workload {w} exited with {proc.returncode}")
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    for w, r in results.items():
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for name, m in r["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    warnings.filterwarnings("ignore")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Output checks. Each *_problems function returns a list of problems; an
empty list passes.

The reference is given the program's own features (checked against the
plain forward pass to FEATURE_TOL), so that it and the program run the GP
part on the same operands. Their answers then differ only by the roundoff of
two float64 solvers, which grows with the condition number of the training
covariance K. A tolerance (see ``tolerances``) is TOL of the target scale
(the std of the training targets) plus COND_SAFETY * eps * cond(K) times the
size of what the answer is computed from: the centred targets for the mean,
the prior variance for the variance. The program's jitter (1e-8 of the mean
diagonal) keeps cond(K) below n * 1e8, which caps that term at about 1e-4 of
the scale; at cond(K) = 1e6 it is about 2e-8 of the scale in the mean.

The program maps a single query row with different roundoff than the same
row inside a 200-row batch. On a degenerate fit (a lengthscale collapsed to
~1e-13) that one-ulp difference moves the posterior itself, by up to 10 target
scales (squared, for the variance). A single-point answer is therefore
compared with the reference at its own features, and its difference from the
batched row with the difference the reference shows between the two
roundings of the features (to ROW_TOL plus the same conditioning term): on
a well-conditioned fit that reference difference is ~1e-12 of the scale, so
the single-point answer must equal the batched row to that tolerance.
"""

import csv
import io

import numpy as np

import reference as ref

TOL = 1e-6
ROW_TOL = 1e-9
FEATURE_TOL = 1e-12  # relative to 1 + |h|
# seen: the program's error reaches 0.83 * eps * cond(K) * |f| in the mean and
# 0.03 * eps * cond(K) * prior variance in the variance (step, data seed 39)
COND_SAFETY = 10.0


def _close(a, b, atol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol))


def _centred(data):
    m, s = ref.center(data.f1, data.f2)
    return (data.f1 - m) / s, (data.f2 - m) / s


def feature_problems(H, X, params):
    """The program's features H of the inputs X against the plain forward pass."""
    want = ref.features(ref.plain_params(params)["layers"], X)
    H = np.asarray(H, dtype=float)
    if H.shape != want.shape or np.any(np.abs(H - want) > FEATURE_TOL * (1.0 + np.abs(want))):
        return ["features differ from the reference forward pass"]
    return []


def reference_nll(params, data, H1, H2):
    """Reference NLL of a fit's centred data at `params`, on the features H1, H2."""
    f1, f2 = _centred(data)
    return ref.nll(ref.plain_params(params), H1, f1, H2, f2)


def reference_starts(data, init_params):
    """Reference NLL at each restart's starting parameters, on the plain features."""
    f1, f2 = _centred(data)
    out = []
    for mp in init_params:
        p = ref.plain_params(mp)
        out.append(ref.nll(p, ref.features(p["layers"], data.x1), f1,
                           ref.features(p["layers"], data.x2), f2))
    return out


def reference_posterior(params, data, H1, H2, Hs):
    """Reference posterior (mean, var) at feature rows Hs, in the data's units."""
    return ref.posterior(ref.plain_params(params), H1, data.f1, H2, data.f2, Hs)


def tolerances(params, data, H1, H2, base=TOL):
    """(mean, variance) tolerances of a model's posterior, in the data's units."""
    p = ref.plain_params(params)
    k = COND_SAFETY * np.finfo(float).eps * np.linalg.cond(ref.joint_cov(p, H1, H2))
    f = np.concatenate(_centred(data))
    prior = p["rho"] ** 2 * p["sf2_1"] + p["sf2_2"]
    scale = ref.center(data.f1, data.f2)[1]
    return scale * (base + k * np.linalg.norm(f)), scale**2 * (base + k * prior)


def fit_problems(best_nll, restart_nlls, ref_best_nll, ref_init_nlls):
    """A fit's reported NLLs against the reference.

    ref_best_nll is the reference NLL at the returned parameters and
    ref_init_nlls the reference NLL at each restart's starting parameters.
    """
    out = []
    if not abs(best_nll - ref_best_nll) <= TOL * (1.0 + abs(ref_best_nll)):
        out.append(f"best nll {best_nll!r} but reference gives {ref_best_nll!r}")
    if best_nll != min(restart_nlls):
        out.append(f"best nll {best_nll!r} is not the minimum over restarts {restart_nlls}")
    if len(restart_nlls) != len(ref_init_nlls):
        out.append(f"{len(restart_nlls)} restarts reported, {len(ref_init_nlls)} started")
    for r, (end, start) in enumerate(zip(restart_nlls, ref_init_nlls)):
        if not end < start:
            out.append(f"restart {r} ended at nll {end!r}, not below its start {start!r}")
    return out


def prediction_problems(mean, var, ref_mean, ref_var, tol):
    """A prediction against the reference posterior; tol from ``tolerances``."""
    out = []
    if not _close(mean, ref_mean, tol[0]):
        out.append("posterior mean differs from the reference")
    if not _close(var, ref_var, tol[1]):
        out.append("posterior variance differs from the reference")
    if np.any(np.asarray(var) < 0):
        out.append("negative posterior variance")
    return out


def row_problems(mean, var, ref_mean, ref_var, batch_mean, batch_var,
                 ref_batch_mean, ref_batch_var, tol, row_tol):
    """A single-point answer against the reference at its own features and
    against the matching row of the batched answer.

    ref_mean, ref_var are the reference at the single row's features and
    ref_batch_* the reference at the batched row's features: the program's
    single-minus-batched difference must equal the reference's to row_tol
    (``tolerances`` with base ROW_TOL).
    """
    out = [f"single point: {p}" for p in prediction_problems(mean, var, ref_mean, ref_var, tol)]
    dmean = (np.asarray(mean) - batch_mean) - (np.asarray(ref_mean) - ref_batch_mean)
    dvar = (np.asarray(var) - batch_var) - (np.asarray(ref_var) - ref_batch_var)
    if np.any(np.abs(dmean) > row_tol[0]) or np.any(np.abs(dvar) > row_tol[1]):
        out.append("single-point answer differs from the batched row")
    return out


def cli_problems(text, X, ref_mean, ref_var, ref_features, tol):
    """A predictions CSV written by `dmfgp predict` against the reference."""
    rows = list(csv.reader(io.StringIO(text)))
    d, k = X.shape[1], ref_features.shape[1]
    want = [f"x{i}" for i in range(d)] + ["mean", "std"] + [f"h{i}" for i in range(k)]
    if not rows or rows[0] != want:
        return [f"header {rows[:1]} is not {want}"]
    try:
        body = np.array([[float(v) for v in row] for row in rows[1:]]).reshape(-1, len(want))
    except ValueError as e:
        return [f"unparseable row: {e}"]
    if body.shape[0] != X.shape[0]:
        return [f"{body.shape[0]} rows written for {X.shape[0]} queries"]
    out = []
    if not np.array_equal(body[:, :d], X):
        out.append("input columns differ from the queries")
    if not _close(body[:, d], ref_mean, tol[0]):
        out.append("mean column differs from the reference")
    std = body[:, d + 1]
    if np.any(std < 0) or not _close(std**2, np.maximum(ref_var, 0.0), tol[1]):
        out.append("std column differs from sqrt of the reference variance")
    H = body[:, d + 2:]
    if np.any(np.abs(H - ref_features) > FEATURE_TOL * (1.0 + np.abs(ref_features))):
        out.append("feature columns differ from the reference forward pass")
    return out

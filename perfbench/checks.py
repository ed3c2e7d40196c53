"""Correctness checks on a levysid report: the Levy-triple gate and the
accuracy metrics against the model's true law.

The gate's tolerance comes from the report's own bin counts. Tail counts are
Poisson, so ln t has standard error about 1/sqrt(t); the delta method turns
that into standard errors for alpha and beta. Sigma depends steeply on alpha
(without bound as alpha nears 2), so its tolerance is the spread that
levysid's own sigma estimator gives across the alpha interval, plus the
count noise of the bins it averages. A healthy estimator lands inside on
any seed; a broken one (a wrong constant, swapped tails, mixed-up
components) misses by far more whenever the counts carry information.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

Z = 4.0
ALPHA_FLOOR = 0.05     # room for the estimator's own bias at finite h
BETA_FLOOR = 0.05
LOG_SIGMA_FLOOR = 0.1
ALPHA_RANGE = (0.01, 1.999)   # where the alpha interval is clipped for sigma
SWEEP_POINTS = 501            # as in the plot data ``levysid pipeline`` writes


def levy_tolerances(alpha_hat, pos, neg, M, h, estimation):
    """(tol_alpha, tol_beta, tol_log_sigma) for one component's bin counts."""
    import levysid

    t = [p + q for p, q in zip(pos, neg)]
    tails = [k for k in range(1, len(t)) if t[k] > 0]
    used = [k for k in range(len(t)) if t[k] > 0]
    if t[0] <= 0 or not tails:
        return math.inf, math.inf, math.inf     # the estimator refuses such data
    m = estimation["m"]
    tol_alpha = ALPHA_FLOOR + Z * sum(math.sqrt(1 / t[0] + 1 / t[k]) / (k * math.log(m))
                                      for k in tails) / len(tails)
    tol_beta = BETA_FLOOR + Z / math.sqrt(sum(t))

    config = levysid.EstimationConfig(estimation["epsilon"], m, estimation["N"],
                                      estimation["cube_epsilon"])
    counts = levysid.BinCounts(np.asarray(pos), np.asarray(neg), M, h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # empty-bin notices, already in the report
        ln_sigma = [math.log(levysid.estimate_sigma(counts, a, config))
                    for a in (alpha_hat,
                              max(alpha_hat - tol_alpha, ALPHA_RANGE[0]),
                              min(alpha_hat + tol_alpha, ALPHA_RANGE[1]))]
    spread = max(abs(v - ln_sigma[0]) for v in ln_sigma[1:])
    count_noise = sum(1 / math.sqrt(t[k]) for k in used) / (len(used) * alpha_hat)
    return tol_alpha, tol_beta, LOG_SIGMA_FLOOR + spread + Z * count_noise


def levy_gate(report, true_levy):
    """Failure messages for components outside tolerance; [] when all pass.

    ``true_levy`` is a list of (alpha, beta, sigma), one per component.
    """
    dataset = report["dataset"]
    failures = []
    for entry, (alpha, beta, sigma) in zip(report["levy"], true_levy, strict=True):
        a, b, s = entry["alpha"], entry["beta"], entry["sigma"]
        if not (math.isfinite(a) and math.isfinite(b) and 0 < s < math.inf):
            failures.append(f"component {entry['component']}: non-finite triple")
            continue
        ta, tb, ts = levy_tolerances(a, entry["bins_positive"], entry["bins_negative"],
                                     dataset["M"], dataset["h"], report["estimation"])
        for label, err, tol in (("alpha", abs(a - alpha), ta),
                                ("beta", abs(b - beta), tb),
                                ("ln sigma", abs(math.log(s / sigma)), ts)):
            if not err <= tol:
                failures.append(f"component {entry['component']}: {label} error "
                                f"{err:.4g} exceeds tolerance {tol:.4g}")
    return failures


def rmse(pred, truth):
    """Root-mean-square of pred - truth; both must be finite and equal-shaped."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(truth))):
        raise ValueError("non-finite values in an accuracy sweep")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def accuracy(report, model_config):
    """Accuracy metrics of a report against the model it was simulated from.

    Drift and diffusion are compared on the same axis sweeps ``pipeline``
    writes as plot data: SWEEP_POINTS points along each component's own axis
    with the other coordinates at 0, diagonal diffusion entries only.
    """
    import levysid

    cfg = levysid.resolve_config(model_config)
    model = levysid.model_from_config(cfg)
    true_levy = [(p.alpha, p.beta, p.sigma) for p in model.levy]
    errs = [(abs(e["alpha"] - a), abs(e["beta"] - b), abs(e["sigma"] / s - 1.0))
            for e, (a, b, s) in zip(report["levy"], true_levy, strict=True)]

    names = report["dictionary"]["names"]
    dictionary = levysid.BasisDictionary(
        model.n, tuple(names),
        tuple(levysid.parse_expression(t, model.n) for t in names))
    diffusion = {(d["i"], d["j"]): d["coefficients"] for d in report["diffusion"]}
    learned_b, true_b, learned_a, true_a = [], [], [], []
    for i in range(1, model.n + 1):
        lo, hi = cfg["grid"]["bounds"][i - 1]
        pts = np.zeros((SWEEP_POINTS, model.n))
        pts[:, i - 1] = np.linspace(float(lo), float(hi), SWEEP_POINTS)
        A = levysid.design_matrix(dictionary, pts)
        lam_i = model.gaussian_at(pts)[:, i - 1, :]
        learned_b.append(A @ np.asarray(report["drift"][i - 1]))
        true_b.append(levysid.evaluate_block(model.drift[i - 1], pts))
        learned_a.append(A @ np.asarray(diffusion[(i, i)]))
        true_a.append(np.einsum("rk,rk->r", lam_i, lam_i))
    return {
        "alpha_abs_err": max(e[0] for e in errs),
        "beta_abs_err": max(e[1] for e in errs),
        "sigma_rel_err": max(e[2] for e in errs),
        "drift_rmse": rmse(np.concatenate(learned_b), np.concatenate(true_b)),
        "diffusion_rmse": rmse(np.concatenate(learned_a), np.concatenate(true_a)),
    }, true_levy

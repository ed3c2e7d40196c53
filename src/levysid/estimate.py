"""Nonlocal Kramers-Moyal estimators.

Given one-step pair data (Z, X) the estimators recover, per component, the
stable-noise triple (alpha, beta, sigma) from logarithmically binned tail
counts, then the drift and diffusion coefficients by least squares over a
basis dictionary, after filtering to the small-increment cube and removing
the closed-form jump corrections R and S.

The regressions never materialize the full design matrix: chunks of rows are
turned into Gram updates A^T A and A^T B and reduced in fixed chunk order, so
results are identical for any worker count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import design_matrix
from .errors import (
    DomainError,
    EstimationWarning,
    InsufficientDataError,
    NotPositiveSemidefiniteError,
    NumericError,
)
from .numeric import solve_gram, sym_eigen
from .simulate import DatasetPair, map_chunks
from .stable import StableParams, correction_R, correction_S, k_alpha

ALPHA_CLAMP = 1e-9  # estimates are clamped into [ALPHA_CLAMP, 2 - ALPHA_CLAMP]


@dataclass(frozen=True)
class EstimationConfig:
    """Binning and cube settings: bin origin epsilon, growth ratio m, N+1
    bins per side, and an optional separate cube half-width for the
    drift/diffusion stage (defaults to epsilon)."""

    epsilon: float
    m: float
    N: int
    cube_epsilon: float | None = None

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        if self.m <= 1.0:
            raise DomainError(f"m must exceed 1, got {self.m}")
        if self.N < 1:
            raise DomainError(f"N must be >= 1, got {self.N}")
        if self.cube_epsilon is not None and self.cube_epsilon <= 0.0:
            raise DomainError(
                f"cube_epsilon must be positive, got {self.cube_epsilon}")

    @property
    def cube_half_width(self):
        return self.epsilon if self.cube_epsilon is None else self.cube_epsilon


@dataclass(frozen=True, eq=False)
class BinCounts:
    """Counts per logarithmic bin: pos[k] over [m^k e, m^{k+1} e), neg[k]
    over [-m^{k+1} e, -m^k e), k = 0..N; M is the full sample size.

    Every bin is closed at its left end on the real line, so an edge value
    m^k e counts in pos[k] but -m^k e counts in neg[k-1] (none for k = 0).
    """

    pos: np.ndarray
    neg: np.ndarray
    M: int
    h: float | None = None

    def __post_init__(self):
        if self.pos.shape != self.neg.shape or self.pos.ndim != 1:
            raise DomainError("pos and neg must be 1-D with equal length")
        if np.any(self.pos < 0) or np.any(self.neg < 0):
            raise DomainError("bin counts cannot be negative")
        if max(self.pos.max(), self.neg.max()) > self.M:
            raise DomainError("a bin count exceeds the sample size")

    @property
    def totals(self):
        return self.pos + self.neg


@dataclass(frozen=True)
class LevyEstimate:
    """Identified stable triple for one component, with its bin diagnostics."""

    component: int
    alpha: float
    beta: float
    sigma: float
    counts: BinCounts

    @property
    def params(self):
        return StableParams(self.alpha, self.beta, self.sigma)


def component_increments(data, i):
    """Increment set Y_i = X[:, i] - Z[:, i]; i is 1-based."""
    if not 1 <= i <= data.n:
        raise DomainError(f"component must be in 1..{data.n}, got {i}")
    return data.X[:, i - 1] - data.Z[:, i - 1]


def bin_counts(Y, config, h=None):
    """Exact counts of Y in the two-sided logarithmic bins of ``config``.

    With edges e_k = m^k epsilon, pos[k] counts y in [e_k, e_{k+1}) and
    neg[k] counts y in [-e_{k+1}, -e_k), k = 0..N. The two sides differ at
    the edges: y = epsilon counts in pos[0] but y = -epsilon in no bin,
    y = -e_{N+1} counts in neg[N] but y = e_{N+1} in no bin, and an inner
    edge e_k counts in pos[k] but -e_k in neg[k-1]. All other y with
    |y| < epsilon or |y| > e_{N+1} are ignored. ``h`` is carried through
    for estimate_sigma.
    """
    Y = np.asarray(Y, dtype=np.float64)
    edges = config.epsilon * config.m ** np.arange(config.N + 2, dtype=np.float64)
    pos = np.empty(config.N + 1, dtype=np.int64)
    neg = np.empty(config.N + 1, dtype=np.int64)
    for k in range(config.N + 1):
        lo, hi = edges[k], edges[k + 1]
        pos[k] = int(np.count_nonzero((Y >= lo) & (Y < hi)))
        neg[k] = int(np.count_nonzero((Y >= -hi) & (Y < -lo)))
    return BinCounts(pos, neg, int(Y.size), None if h is None else float(h))


def estimate_alpha(counts, config):
    """Stability index from the decay of bin totals, averaged over k.

    Each usable k >= 1 contributes ln(t_0/t_k)/(k ln m); empty bins are
    skipped with a warning. The result is clamped into (0, 2).
    """
    t = counts.totals
    if t[0] <= 0:
        raise InsufficientDataError(
            "bin 0 is empty; cannot identify the stability index")
    terms = []
    skipped = []
    for k in range(1, len(t)):
        if t[k] <= 0:
            skipped.append(k)
            continue
        terms.append(np.log(t[0] / t[k]) / (k * np.log(config.m)))
    if not terms:
        raise InsufficientDataError(
            "all tail bins beyond k=0 are empty; cannot identify alpha")
    if skipped:
        warnings.warn(
            f"empty bins {skipped} skipped in the alpha estimate",
            EstimationWarning, stacklevel=2)
    alpha = float(np.mean(terms))
    if not ALPHA_CLAMP <= alpha <= 2.0 - ALPHA_CLAMP:
        clamped = min(max(alpha, ALPHA_CLAMP), 2.0 - ALPHA_CLAMP)
        warnings.warn(
            f"alpha estimate {alpha:.6g} outside (0, 2); clamped to {clamped:.6g}",
            EstimationWarning, stacklevel=2)
        alpha = clamped
    return alpha


def estimate_beta(counts):
    """Skewness from the negative/positive tail-count ratio."""
    pos = int(counts.pos.sum())
    neg = int(counts.neg.sum())
    if pos == 0 and neg == 0:
        raise InsufficientDataError("no tail counts on either side")
    if pos == 0:
        return -1.0
    if neg == 0:
        return 1.0
    rho = neg / pos
    return (1.0 - rho) / (1.0 + rho)


def estimate_sigma(counts, alpha_hat, config):
    """Noise intensity from bin totals, averaged over usable bins k = 0..N."""
    if not 0.0 < alpha_hat < 2.0:
        raise DomainError(f"alpha_hat must lie in (0, 2), got {alpha_hat}")
    if counts.h is None:
        raise DomainError("counts carry no step size h; pass h to bin_counts")
    t = counts.totals
    ka = k_alpha(alpha_hat)
    denom = ka * counts.h * counts.M * (1.0 - config.m ** (-alpha_hat))
    vals = []
    skipped = []
    for k in range(len(t)):
        if t[k] <= 0:
            skipped.append(k)
            continue
        num = alpha_hat * config.epsilon ** alpha_hat * config.m ** (k * alpha_hat) * t[k]
        try:
            vals.append(float(num / denom) ** (1.0 / alpha_hat))
        except OverflowError:
            # a clamped near-zero alpha_hat explodes the exponent; report inf
            vals.append(float("inf"))
    if not vals:
        raise InsufficientDataError("all bins empty; cannot identify sigma")
    if skipped:
        warnings.warn(
            f"empty bins {skipped} skipped in the sigma estimate",
            EstimationWarning, stacklevel=2)
    return float(np.mean(vals))


def estimate_levy(data, config):
    """Identify (alpha, beta, sigma) for every component of a DatasetPair."""
    out = []
    for i in range(1, data.n + 1):
        counts = bin_counts(component_increments(data, i), config, h=data.h)
        alpha = estimate_alpha(counts, config)
        beta = estimate_beta(counts)
        sigma = estimate_sigma(counts, alpha, config)
        out.append(LevyEstimate(i, alpha, beta, sigma, counts))
    return out


def cube_filter(data, half_width):
    """Keep rows whose increment stays inside the closed cube
    max_i |x_i - z_i| <= half_width. Returns (filtered, survival fraction)."""
    if half_width <= 0.0:
        raise DomainError(f"half_width must be positive, got {half_width}")
    keep = np.max(np.abs(data.X - data.Z), axis=1) <= half_width
    kept = int(np.count_nonzero(keep))
    if kept == 0:
        raise InsufficientDataError(
            f"no rows survive the cube filter at half width {half_width}")
    filtered = DatasetPair(data.n, kept, data.h,
                           np.ascontiguousarray(data.Z[keep]),
                           np.ascontiguousarray(data.X[keep]))
    return filtered, kept / data.M


# The drift correction's alpha != 1 branch carries a 1/(1-alpha) pole: the
# defining first-moment integral diverges as alpha -> 1, so a plug-in
# estimate within noise of 1 amplifies beta error by 1/|1-alpha| (>= 20
# inside this band) and buries the constant drift term.  Triples this close
# to 1 are statistically indistinguishable from the regularized alpha = 1
# law, so treat them as such when forming corrections.
ALPHA_ONE_BAND = 0.05


def _snap_alpha_one(p):
    if p.alpha != 1.0 and abs(p.alpha - 1.0) <= ALPHA_ONE_BAND:
        return StableParams(1.0, p.beta, p.sigma)
    return p


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Regression output: per-component drift vectors, upper-triangular
    diffusion vectors keyed by 1-based (i, j), the survival fraction that
    scaled the targets, and per-target residual norms."""

    dictionary: object
    fraction: float
    drift: np.ndarray               # (n, K)
    diffusion: dict                 # {(i, j): (K,) vector}, i <= j, 1-based
    drift_residuals: np.ndarray     # (n,)
    diffusion_residuals: dict       # {(i, j): float}

    def diffusion_vector(self, i, j):
        """d_ij including the symmetric read-back d_ji = d_ij."""
        key = (i, j) if i <= j else (j, i)
        return self.diffusion[key]

    def drift_value(self, i, points):
        A = design_matrix(self.dictionary, points)
        return A @ self.drift[i - 1]

    def diffusion_value(self, i, j, points):
        A = design_matrix(self.dictionary, points)
        return A @ self.diffusion_vector(i, j)

    def diffusion_matrix_at(self, point):
        n = int(round((np.sqrt(8 * len(self.diffusion) + 1) - 1) / 2))
        A = design_matrix(self.dictionary, np.asarray(point, dtype=np.float64)[None, :])
        a = np.empty((n, n))
        for (i, j), vec in self.diffusion.items():
            a[i - 1, j - 1] = a[j - 1, i - 1] = float(A[0] @ vec)
        return a


def regression_tables(data, fraction, dictionary, levy, config):
    """Drift and diffusion regressions sharing one design-matrix pass.

    ``data`` must already be cube-filtered; ``fraction`` is the survival
    fraction M_hat/M that scales every target. Returns a CoefficientTable.
    """
    n = data.n
    K = dictionary.K
    if data.M < K:
        raise InsufficientDataError(
            f"need at least K={K} filtered rows, have {data.M}")
    if not 0.0 < fraction <= 1.0:
        raise DomainError(f"survival fraction must be in (0, 1], got {fraction}")
    if levy is not None and len(levy) != n:
        raise DomainError(f"levy must have {n} entries, got {len(levy)}")

    eps = config.cube_half_width
    if levy is None:
        R = np.zeros(n)
        S = np.zeros(n)
    else:
        snapped = [_snap_alpha_one(p) for p in levy]
        R = np.array([correction_R(p, eps) for p in snapped])
        S = np.array([correction_S(p, eps, i, i)
                      for i, p in enumerate(snapped)])
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    P = len(pairs)
    S_pair = np.array([S[i] if i == j else 0.0 for (i, j) in pairs])
    scale = fraction / data.h

    def chunk_part(start, stop):
        Zc = data.Z[start:stop]
        D = data.X[start:stop] - Zc
        A = design_matrix(dictionary, Zc)
        B = np.empty((stop - start, n + P))
        B[:, :n] = scale * D - R[None, :]
        for col, (i, j) in enumerate(pairs):
            B[:, n + col] = scale * D[:, i] * D[:, j] - S_pair[col]
        return A.T @ A, A.T @ B, (B * B).sum(axis=0)

    parts = map_chunks(chunk_part, data.M)

    # fixed-order pairwise reduction keeps sums bit-stable across worker counts
    G = np.sum(np.stack([p[0] for p in parts]), axis=0)
    C = np.sum(np.stack([p[1] for p in parts]), axis=0)
    bsq = np.sum(np.stack([p[2] for p in parts]), axis=0)
    if not (np.isfinite(G).all() and np.isfinite(C).all()
            and np.isfinite(bsq).all()):
        raise NumericError(
            "regression sums overflowed to inf or NaN: the basis values or "
            "the increments scaled by 1/h are too large for float64")

    coef = solve_gram(G, C)                       # (K, n + P)
    fit = np.einsum("kt,kl,lt->t", coef, G, coef)
    res_sq = np.maximum(bsq - 2.0 * np.einsum("kt,kt->t", coef, C) + fit, 0.0)
    res = np.sqrt(res_sq)

    drift = np.ascontiguousarray(coef[:, :n].T)
    diffusion = {}
    diff_res = {}
    for col, (i, j) in enumerate(pairs):
        diffusion[(i + 1, j + 1)] = np.ascontiguousarray(coef[:, n + col])
        diff_res[(i + 1, j + 1)] = float(res[n + col])
    return CoefficientTable(dictionary, fraction, drift, diffusion,
                            res[:n].copy(), diff_res)


def factor_diffusion(a, tolerance):
    """Factor a symmetric PSD matrix as Lambda = Q sqrt(J) with QJQ^T = a.

    Eigenvalues in [-tolerance, 0) are treated as rounding noise and clamped
    to zero; anything below -tolerance raises NotPositiveSemidefiniteError.
    """
    if tolerance < 0.0:
        raise DomainError(f"tolerance must be nonnegative, got {tolerance}")
    Q, w = sym_eigen(a)
    if np.any(w < -tolerance):
        worst = float(w.min())
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {worst:.6g} below -tolerance ({-tolerance:.6g}); "
            "diffusion estimate is not positive semidefinite")
    w = np.where(w < 0.0, 0.0, w)
    return Q * np.sqrt(w)[None, :]

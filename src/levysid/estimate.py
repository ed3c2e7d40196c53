"""Nonlocal Kramers-Moyal estimators.

Given one-step pair data (Z, X) the estimators recover, per component, the
stable-noise triple (alpha, beta, sigma) from logarithmically binned tail
counts, then the drift and diffusion coefficients by least squares over a
basis dictionary, after filtering to the small-increment cube and removing
the closed-form jump corrections R and S.

The regressions never materialize the full design matrix: chunks of rows are
turned into Gram updates A^T A and A^T B and reduced in fixed chunk order on
the calling thread. The bin counts and the cube filter run on
``map_chunks``' worker pool; every result is identical for any worker count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import design_matrix
from .errors import (
    ConfigError,
    DomainError,
    EstimationWarning,
    InsufficientDataError,
    NumericError,
    number,
    positive,
)
from . import simulate
from .numeric import solve_gram
from .simulate import BlockRows, map_chunks
from .stable import StableParams, correction_R, correction_S, k_alpha

ALPHA_CLAMP = 1e-9  # estimates are clamped into [ALPHA_CLAMP, 2 - ALPHA_CLAMP]
# bins per side bound the edge array bin_counts allocates on every call
N_CAP = 10_000


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
        positive("epsilon", self.epsilon)
        if not 1.0 < self.m < np.inf:
            raise DomainError(f"m must exceed 1 and be finite, got {self.m}")
        if not 1 <= self.N <= N_CAP:
            raise DomainError(f"N must be in [1, {N_CAP}], got {self.N}")
        if self.cube_epsilon is not None:
            positive("cube_epsilon", self.cube_epsilon)

    @property
    def cube_half_width(self):
        return self.epsilon if self.cube_epsilon is None else self.cube_epsilon


def load_est_config(doc):
    """EstimationConfig plus the dictionary spec from an est-config dict."""
    if not isinstance(doc, dict):
        raise ConfigError("estimation config must be a JSON object")
    try:
        config = EstimationConfig(
            number("epsilon", doc["epsilon"]), number("m", doc["m"]),
            number("N", doc["N"], whole=True),
            None if doc.get("cube_epsilon") is None
            else number("cube_epsilon", doc["cube_epsilon"]))
    except KeyError as exc:
        raise ConfigError(f"estimation config is missing {exc}") from exc
    except DomainError as exc:
        raise ConfigError(f"estimation config: {exc}") from exc
    spec = doc.get("dictionary")
    if spec is None:
        raise ConfigError("estimation config needs a 'dictionary' entry")
    return config, spec


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
    # every binned y has |y| >= epsilon; the bins are counted on that tail
    tail = Y[np.abs(Y) >= edges[0]]
    pos = np.empty(config.N + 1, dtype=np.int64)
    neg = np.empty(config.N + 1, dtype=np.int64)
    for k in range(config.N + 1):
        lo, hi = edges[k], edges[k + 1]
        pos[k] = int(np.count_nonzero((tail >= lo) & (tail < hi)))
        neg[k] = int(np.count_nonzero((tail >= -hi) & (tail < -lo)))
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


def _increments(Z, X, out=None):
    """X - Z of a block, component-major: row i of the (n, rows) result
    holds component i. Written into ``out`` when it is given."""
    if out is None:
        out = np.empty(Z.shape[::-1])
    return np.subtract(X.T, Z.T, out=out)


def estimate_levy(data, config):
    """Identify (alpha, beta, sigma) for every component of a dataset.

    ``data`` is a row-block source, such as a DatasetFile. Each
    component's bin counts are summed over its CHUNK_ROWS blocks; integer
    sums do not depend on the order, so neither does the result.
    """
    def block_counts(start, stop):
        D = _increments(*data.rows(start, stop))
        return [bin_counts(row, config) for row in D]

    parts = list(map_chunks(block_counts, data.M))
    out = []
    for i in range(data.n):
        pos = np.sum([p[i].pos for p in parts], axis=0)
        neg = np.sum([p[i].neg for p in parts], axis=0)
        counts = BinCounts(pos, neg, data.M, data.h)
        alpha = estimate_alpha(counts, config)
        beta = estimate_beta(counts)
        sigma = estimate_sigma(counts, alpha, config)
        out.append(LevyEstimate(i + 1, alpha, beta, sigma, counts))
    return out


def _cube_mask(Z, X, half_width):
    """max_i |x_i - z_i| <= half_width per row, one component row at a time."""
    D = _increments(Z, X)
    np.abs(D, out=D)
    keep = D[0] <= half_width
    for row in D[1:]:
        keep &= row <= half_width
    return keep


class _ZHalf:
    """``Z[lo:hi]`` of a source that holds no Z array: the Z half of
    ``rows(lo, hi)``. Nothing in levysid reads it; perfbench's hooks slice
    a filtered source's Z."""

    def __init__(self, source):
        self.source = source

    def __getitem__(self, rows):
        start, stop, _ = rows.indices(self.source.M)
        return self.source.rows(start, stop)[0]


@dataclass(frozen=True, eq=False)
class Survivors(BlockRows):
    """The rows of a row-block source that survive the cube filter, read
    through that source when they are asked for.

    It holds one bool mask per block of the source, 1 byte per row; every
    block but the last has as many rows as the first. ``before`` holds the
    number of survivors in the blocks before each block; ``before[-1]`` is
    M.
    """

    n: int
    M: int
    h: float
    source: object
    masks: list
    before: np.ndarray

    @property
    def Z(self):
        return _ZHalf(self)

    def block(self, start, stop):
        """Survivors start..stop-1 as one new (rows, 2n) array, z before x.

        Each source block they lie in is read from its first to its last
        survivor among them, never across a source block, and compacted.
        """
        out = np.empty((stop - start, 2 * self.n))
        chunk = self.masks[0].size
        b = int(np.searchsorted(self.before, start, side="right")) - 1
        done = start
        while done < stop:
            offset = int(self.before[b])
            keep = np.flatnonzero(self.masks[b])[done - offset:stop - offset]
            if keep.size:
                first = b * chunk + int(keep[0])
                last = b * chunk + int(keep[-1])
                # take's "clip" mode writes into out in place, where
                # compress would write through a temporary copy of out
                np.take(self.source.block(first, last + 1), keep - keep[0],
                        axis=0, out=out[done - start:done - start + keep.size],
                        mode="clip")
                done += keep.size
            b += 1
        return out


def cube_filter(data, half_width):
    """Keep rows whose increment stays inside the closed cube
    max_i |x_i - z_i| <= half_width. Returns (filtered, survival fraction).

    ``data`` is a row-block source. One pass over its blocks builds a mask
    per block; the filtered source, a Survivors, holds the masks and reads
    the kept rows from ``data`` whenever they are asked for, so no copy of
    them is made here.
    """
    positive("half_width", half_width)

    def block_mask(start, stop):
        return _cube_mask(*data.rows(start, stop), half_width)

    masks = list(map_chunks(block_mask, data.M))
    before = np.cumsum([0] + [np.count_nonzero(keep) for keep in masks])
    kept = int(before[-1])
    if kept == 0:
        raise InsufficientDataError(
            f"no rows survive the cube filter at half width {half_width}")
    return Survivors(data.n, kept, data.h, data, masks, before), kept / data.M


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


def regression_tables(data, fraction, dictionary, levy, config):
    """Drift and diffusion regressions sharing one design-matrix pass.

    ``data`` must already be cube-filtered; ``fraction`` is the survival
    fraction M_hat/M that scales every target. Its CHUNK_ROWS blocks are
    filled from ``data.rows`` and reduced in order on the calling thread,
    which starts no pool. Each CACHE_ROWS sub-block is evaluated
    component-major in one (max(K, n + P), CACHE_ROWS) scratch,
    design-matrix rows first and then the n + P targets; the block's A and
    B stay in C order, so the products A^T A and A^T B and the sum of B*B
    are those of fresh row-major arrays. Returns a CoefficientTable.
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
    # target t < n is scale*D_t - R_t, the drift, and target n + p is
    # (scale*D_i)*D_j - S_ij for the diffusion pair p = (i, j)
    shift = np.concatenate([R, [S[i] if i == j else 0.0 for (i, j) in pairs]])
    scale = fraction / data.h

    # one set of buffers per call, refilled for every block; the bits of
    # the BLAS products and of the axis-0 sum of B*B depend on A and B being
    # in C order. OpenBLAS is capped at one thread
    simulate._cap_blas_threads()
    rows = simulate.CHUNK_ROWS
    sub_rows = simulate.CACHE_ROWS
    A_buf = np.empty((rows, K))
    B_buf = np.empty((rows, n + P))
    scratch = np.empty((max(K, n + P), sub_rows))

    def chunk_part(start, stop):
        m = stop - start
        A, B = A_buf[:m], B_buf[:m]
        for lo in range(0, m, sub_rows):
            hi = min(lo + sub_rows, m)
            Zc, Xc = data.rows(start + lo, start + hi)
            sub = scratch[:, :hi - lo]
            A[lo:hi] = design_matrix(dictionary, Zc, out=sub[:K].T)
            # rows 0..n-1 hold D until the diffusion targets have read it
            D = _increments(Zc, Xc, out=sub[:n])
            for t, (i, j) in enumerate(pairs, start=n):
                np.multiply(D[i], scale, out=sub[t])
                np.multiply(sub[t], D[j], out=sub[t])
                np.subtract(sub[t], shift[t], out=sub[t])
            for i in range(n):
                np.multiply(D[i], scale, out=sub[i])
                np.subtract(sub[i], shift[i], out=sub[i])
            B[lo:hi] = sub[:n + P].T
        AtA, AtB = A.T @ A, A.T @ B
        # B is squared in place only once A.T @ B has read it
        return AtA, AtB, np.multiply(B, B, out=B).sum(axis=0)

    parts = [chunk_part(start, min(start + rows, data.M))
             for start in range(0, data.M, rows)]

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

"""Pair-data generation: tensor grids and one-step Euler simulation.

Each dataset row is an independent experiment: start at z, take a single
Euler step of length h under dx = b(x)dt + Lambda(x)dB_t + sigma dL_t, and
record (z, x). All randomness comes from counter-based per-row streams keyed
by (seed, row index), so output bytes depend only on (model, Z, h, seed),
never on chunking or worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationDomainError, GridSizeError, SimulationError
from .rng import RandomStream, row_keys, row_noise, split_key, stream_key
from .stable import scale_stable

GRID_ROW_CAP = 200_000_000

# rows per work unit; fixed so results never depend on the worker count
CHUNK_ROWS = 1 << 16

WORKERS_ENV_VAR = "LEVYSID_WORKERS"


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "")
    try:
        w = int(raw)
    except ValueError:
        return 1
    return max(1, w)


@dataclass(frozen=True, eq=False)
class DatasetPair:
    """Initial points Z and their one-step images X, with the step size h."""

    n: int
    M: int
    h: float
    Z: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        if self.h <= 0.0:
            raise DomainError(f"h must be positive, got {self.h}")
        if self.Z.shape != (self.M, self.n) or self.X.shape != (self.M, self.n):
            raise DomainError(
                f"Z and X must both be ({self.M}, {self.n}); "
                f"got {self.Z.shape} and {self.X.shape}")
        if self.M < 1:
            raise DomainError("dataset must contain at least one row")

    @classmethod
    def from_arrays(cls, Z, X, h):
        Z = np.ascontiguousarray(Z, dtype=np.float64)
        X = np.ascontiguousarray(X, dtype=np.float64)
        if Z.ndim == 1:
            Z = Z[:, None]
        if X.ndim == 1:
            X = X[:, None]
        if not np.all(np.isfinite(Z)) or not np.all(np.isfinite(X)):
            raise DomainError("dataset entries must all be finite")
        return cls(Z.shape[1], Z.shape[0], float(h), Z, X)


def generate_grid(bounds, mesh):
    """Tensor-product grid with inclusive endpoints.

    Rows are ordered lexicographically in the axis indices (first axis
    slowest). A degenerate axis (mesh 1) sits at its lower bound.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    mesh = [int(m) for m in mesh]
    if len(bounds) != len(mesh) or not bounds:
        raise DomainError("bounds and mesh must have equal positive length")
    total = 1
    for (lo, hi), m in zip(bounds, mesh):
        if m < 1:
            raise DomainError(f"mesh entries must be >= 1, got {m}")
        if not lo < hi:
            raise DomainError(f"need lower < upper per axis, got [{lo}, {hi}]")
        total *= m
    if total > GRID_ROW_CAP:
        raise GridSizeError(
            f"grid would contain {total} rows, cap is {GRID_ROW_CAP}")
    axes = [np.array([lo]) if m == 1 else np.linspace(lo, hi, m)
            for (lo, hi), m in zip(bounds, mesh)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.ascontiguousarray(
        np.stack([g.reshape(-1) for g in grids], axis=1))


def _noise(model, keys, h):
    """Standard normals and the scaled jump term of the rows whose streams
    have the given keys. Without Levy noise no stable draws are made and the
    jump term is 0.0; otherwise component i of the standard draws is scaled
    by sigma_i h^(1/alpha_i)."""
    if model.levy is None:
        return row_noise(keys, model.n)[0], 0.0
    alphas = np.array([p.alpha for p in model.levy])
    betas = np.array([p.beta for p in model.levy])
    gauss, jumps = row_noise(keys, model.n, alphas, betas)
    for i, p in enumerate(model.levy):
        scale = h ** (1.0 / alphas[i])
        jumps[:, i] = p.sigma * scale_stable(jumps[:, i], alphas[i], betas[i], scale)
    return gauss, jumps


def _step_block(model, Z_block, h, keys, out, row0=None):
    """One Euler step for a block of rows whose streams have the given keys.

    Writes the new states into ``out`` and raises SimulationError if a
    coefficient cannot be evaluated or a state is not finite. ``row0``, the
    dataset index of the block's first row, only locates those errors.
    """
    m, n = Z_block.shape
    try:
        drift = model.drift_at(Z_block)
        lam = model.gaussian_at(Z_block)
    except EvaluationDomainError as exc:
        where = "" if row0 is None else f" on rows {row0}..{row0 + m - 1}"
        raise SimulationError(f"coefficient evaluation failed{where}: {exc}",
                              row=row0) from exc

    gauss, jump_term = _noise(model, keys, h)

    # n == 1 stays off einsum, whose sums can differ in the sign of a zero;
    # datasets must stay bit-identical
    if n == 1:
        gpart = lam[:, 0, 0] * gauss[:, 0]
        out[:, 0] = Z_block[:, 0] + drift[:, 0] * h + np.sqrt(h) * gpart
    else:
        gpart = np.einsum("rij,rj->ri", lam, gauss)
        out[:] = Z_block + drift * h + np.sqrt(h) * gpart
    out += jump_term

    if not np.all(np.isfinite(out)):
        r, c = (int(v) for v in np.argwhere(~np.isfinite(out))[0])
        row = None if row0 is None else row0 + r
        where = "" if row is None else f" at row {row}"
        raise SimulationError(f"non-finite state{where}, component {c + 1}",
                              row=row, component=c + 1)


def euler_pair_step(model, z, h, stream):
    """Single Euler step from one point using an explicit row stream.

    Runs the batch step of simulate_pairs on a one-row block, so given a
    row's substream it returns that row's result bit for bit.
    """
    z = np.asarray(z, dtype=np.float64).reshape(1, -1)
    if z.shape[1] != model.n:
        raise DomainError(f"z must have length {model.n}, got {z.shape[1]}")
    if h <= 0.0:
        raise DomainError(f"h must be positive, got {h}")
    if not isinstance(stream, RandomStream):
        raise DomainError("stream must be a RandomStream")
    x = np.empty_like(z)
    _step_block(model, z, h, np.array([stream.key], dtype=np.uint64), x)
    return x[0]


def map_chunks(fn, M):
    """``[fn(start, stop) for each CHUNK_ROWS block of range(M)]``, in block
    order.

    With more than one block the calls run on ``worker_count()`` threads.
    The blocks do not depend on the worker count, so neither do the results.
    """
    starts = range(0, M, CHUNK_ROWS)
    stops = [min(start + CHUNK_ROWS, M) for start in starts]
    workers = worker_count()
    if workers <= 1 or len(starts) <= 1:
        return list(map(fn, starts, stops))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # list() drains the iterator so worker exceptions surface here
        return list(pool.map(fn, starts, stops))


def simulate_pairs(model, Z, h, seed):
    """Apply one Euler step to every row of Z; returns a DatasetPair.

    Parallel chunks write disjoint slices of the output; the per-row counter
    streams make the result identical for any worker count.
    """
    Z = np.ascontiguousarray(Z, dtype=np.float64)
    if Z.ndim == 1:
        Z = Z[:, None]
    if Z.ndim != 2 or Z.shape[1] != model.n:
        raise DomainError(f"Z must be (M, {model.n}), got shape {Z.shape}")
    if Z.shape[0] < 1:
        raise DomainError("Z must contain at least one row")
    if not np.all(np.isfinite(Z)):
        raise DomainError("Z entries must all be finite")
    if h <= 0.0:
        raise DomainError(f"h must be positive, got {h}")

    M = Z.shape[0]
    base_key = stream_key(int(seed), 0)
    X = np.empty_like(Z)

    def run_chunk(start, stop):
        _step_block(model, Z[start:stop], h, row_keys(base_key, start, stop - start),
                    X[start:stop], row0=start)

    map_chunks(run_chunk, M)
    return DatasetPair(model.n, M, float(h), Z, X)


def row_stream_key(seed, row):
    """Key of the substream that drives dataset row ``row`` under ``seed``."""
    return split_key(stream_key(int(seed), 0), int(row))

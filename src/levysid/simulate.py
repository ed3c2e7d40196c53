"""Pair-data generation: tensor grids and one-step Euler simulation.

Each dataset row is an independent experiment: start at z, take a single
Euler step of length h under dx = b(x)dt + Lambda(x)dB_t + sigma dL_t, and
record (z, x). All randomness comes from counter-based per-row streams keyed
by (seed, row index), so for one numpy build at one SIMD dispatch level the
output bytes depend only on (model, Z, h, seed), never on chunking or worker
count. Another build or dispatch level may round numpy's transcendental
functions differently, and with them the last bits of some rows.
"""

from __future__ import annotations

import collections
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    EvaluationDomainError,
    GridSizeError,
    SimulationError,
    number,
    positive,
)
from .rng import component_jumps, row_keys, row_normals, stream_key
from .stable import scale_stable

GRID_ROW_CAP = 200_000_000

# rows per work unit; fixed so results never depend on the worker count
CHUNK_ROWS = 1 << 16

# rows processed at a time inside a work unit, so that the per-row
# temporaries of a step stay in cache; every row's result is the same
CACHE_ROWS = 1 << 14

WORKERS_ENV_VAR = "LEVYSID_WORKERS"

# glibc's mallopt parameter for the number of malloc arenas
M_ARENA_MAX = -8

# OpenBLAS's thread-count setters: numpy 2 wheels bundle scipy-openblas,
# numpy 1.x wheels an ILP64 build, and a system OpenBLAS has the plain name
BLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                "openblas_set_num_threads64_", "openblas_set_num_threads")


def worker_count() -> int:
    """``LEVYSID_WORKERS`` if set, else the number of CPUs this process may
    run on; an empty value counts as unset. A value that is not a whole
    number >= 1 raises ConfigError."""
    raw = os.environ.get(WORKERS_ENV_VAR, "")
    if not raw:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no sched_getaffinity on this platform
            return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(
            f"{WORKERS_ENV_VAR} must be a whole number >= 1, got {raw!r}")
    return workers


@functools.cache
def _cap_malloc_arenas():
    """Give every thread glibc's one main malloc arena, once per process.

    Otherwise each worker thread gets an arena of its own, and the
    temporaries it frees stay there, adding to peak RSS instead of being
    reused by the next block. Where libc has no ``mallopt`` this does
    nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


def _openblas():
    """``(library, setter name)`` for the first OpenBLAS this process loaded
    that exports one of ``BLAS_SETTERS``, in the order of
    ``/proc/self/maps``, else numpy's bundled copy. None if there is none.

    Other libraries may bring an OpenBLAS of their own: scipy's wheels map
    an LP64 build that exports none of these names.
    """
    import ctypes
    import glob

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except (OSError, ValueError):  # no /proc, or a path that is not UTF-8
        fields = []
    paths = [f[5].strip() for f in fields
             if len(f) == 6 and "openblas" in os.path.basename(f[5])]
    if not paths:
        libs = os.path.dirname(os.path.dirname(np.__file__))
        paths = sorted(glob.glob(os.path.join(libs, "numpy.libs", "*openblas*")))
    for path in dict.fromkeys(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in BLAS_SETTERS:
            if hasattr(lib, name):
                return lib, name
    return None


@functools.cache
def _cap_blas_threads():
    """Run OpenBLAS on one thread, once per process.

    ``map_chunks``, ``regression_tables`` and ``cli.write_curve`` call it,
    so ``map_chunks``' pool is the only parallelism. Otherwise OpenBLAS
    threads the Gram products, and after each one its idle threads
    spin-wait on the cores the pool's workers need. The Gram products are
    the same bytes either way; a curve's long matrix-vector product is not.
    Where no OpenBLAS with one of ``BLAS_SETTERS`` is found this does
    nothing.

    This is the cap for a process that imported numpy before levysid. It
    only lowers the count: the thread OpenBLAS started at load stays, and
    keeps spin-waiting. Where levysid imports numpy first,
    ``levysid/__init__.py`` loads OpenBLAS with one thread instead.
    """
    import ctypes

    found = _openblas()
    if found is None:
        return
    lib, name = found
    setter = getattr(lib, name)
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)


def check_header(n, M, h):
    """What every dataset holds: n >= 1 components, M >= 1 rows and a step
    0 < h < inf. Raises DomainError otherwise."""
    if n < 1 or M < 1:
        raise DomainError(f"invalid dimensions n={n}, M={M}")
    positive("h", h)


class BlockRows:
    """``rows`` for a row-block source whose ``block`` reads or makes each
    block of rows anew."""

    def rows(self, start, stop):
        """Z and X of rows start..stop-1: the column halves of ``block``."""
        block = self.block(start, stop)
        return block[:, :self.n], block[:, self.n:]


@dataclass(frozen=True, eq=False)
class DatasetPair:
    """Initial points Z and their one-step images X, with the step size h.

    A row-block source, like ``Simulation`` and a binary
    ``dataio.DatasetFile``: it has ``n``, ``M``, ``h``, ``rows(start,
    stop)`` and ``block(start, stop)``, which is all the estimators and the
    dataset writer read.
    """

    n: int
    M: int
    h: float
    Z: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        check_header(self.n, self.M, self.h)
        if self.Z.shape != (self.M, self.n) or self.X.shape != (self.M, self.n):
            raise DomainError(
                f"Z and X must both be ({self.M}, {self.n}); "
                f"got {self.Z.shape} and {self.X.shape}")

    def rows(self, start, stop):
        """Z and X of rows start..stop-1, as views of the arrays."""
        return self.Z[start:stop], self.X[start:stop]

    def block(self, start, stop):
        """Rows start..stop-1 as one new (rows, 2n) array, z before x."""
        return np.hstack(self.rows(start, stop))

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
    try:
        bounds = [(number("grid bound", lo), number("grid bound", hi))
                  for lo, hi in bounds]
        mesh = [number("mesh entry", m, whole=True) for m in mesh]
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:
        raise DomainError("bounds must be a list of [lower, upper] pairs and "
                          f"mesh a list of whole numbers: {exc}") from exc
    if len(bounds) != len(mesh) or not bounds:
        raise DomainError("bounds and mesh must have equal positive length")
    total = 1
    for (lo, hi), m in zip(bounds, mesh):
        if m < 1:
            raise DomainError(f"mesh entries must be >= 1, got {m}")
        if not -np.inf < lo < hi < np.inf:
            raise DomainError(
                f"need finite lower < upper per axis, got [{lo}, {hi}]")
        total *= m
    if total > GRID_ROW_CAP:
        raise GridSizeError(
            f"grid would contain {total} rows, cap is {GRID_ROW_CAP}")
    # each column is written from its axis in place, with no meshgrid or
    # stack temporaries; the floats are exactly meshgrid's
    Z = np.empty((total, len(mesh)))
    repeat = total
    for k, ((lo, hi), m) in enumerate(zip(bounds, mesh)):
        repeat //= m
        axis = np.array([lo]) if m == 1 else np.linspace(lo, hi, m)
        Z.reshape(-1, m, repeat, len(mesh))[:, :, :, k] = axis[:, None]
    return Z


def _noise(model, keys, h):
    """Standard normals and the scaled jump term of the rows whose streams
    have the given keys. Without a Gaussian term no normals are drawn and
    the normals are None; without Levy noise no stable draws are made and
    the jump term is 0.0. Otherwise component i of the standard stable
    draws is scaled by sigma_i h^(1/alpha_i), one contiguous component row
    at a time, and the jump term is the rows x n transpose of those rows.
    Each kind reads only its own counters, so skipping one leaves the other
    unchanged."""
    gauss = row_normals(keys, model.n) if model.gaussian_enabled else None
    if model.levy is None:
        return gauss, 0.0
    alphas = np.array([p.alpha for p in model.levy])
    betas = np.array([p.beta for p in model.levy])
    jumps = component_jumps(keys, model.n, alphas, betas)
    for i, p in enumerate(model.levy):
        scale = h ** (1.0 / alphas[i])
        jumps[i] = p.sigma * scale_stable(jumps[i], alphas[i], betas[i], scale)
    return gauss, jumps.T


def _step_block(model, Z_block, h, keys, out, row0):
    """One Euler step for a block of rows whose streams have the given keys.

    Writes the new states into ``out``. A coefficient that cannot be
    evaluated raises EvaluationDomainError and a state that is not finite
    SimulationError. ``row0``, the dataset index of the block's first row,
    only locates those errors.
    """
    m, n = Z_block.shape
    try:
        drift, lam = model.step_terms_at(Z_block)
    except EvaluationDomainError as exc:
        raise EvaluationDomainError(
            f"coefficient evaluation failed on rows {row0}..{row0 + m - 1}: "
            f"{exc}") from exc

    # the drift and the jump term come component-major and are each read
    # once into the row-major ``out``; IEEE addition commutes, so drift*h +
    # Z has the bits of Z + drift*h. Datasets must stay bit-identical, so
    # n == 1 stays off einsum, whose sums can differ in the sign of a zero,
    # and einsum gets lam in the row order its sums were fixed in. Without
    # a Gaussian term, lam @ gauss would be a zero that leaves every
    # nonzero sum unchanged. An overflow raises SimulationError below, so
    # numpy does not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        gauss, jump_term = _noise(model, keys, h)
        np.multiply(drift, h, out=out)
        out += Z_block
        if gauss is not None and n == 1:
            out[:, 0] += np.sqrt(h) * (lam[:, 0, 0] * gauss[:, 0])
        elif gauss is not None:
            out += np.sqrt(h) * np.einsum("rij,rj->ri",
                                          np.ascontiguousarray(lam), gauss)
        out += jump_term

    if not np.all(np.isfinite(out)):
        r, c = (int(v) for v in np.argwhere(~np.isfinite(out))[0])
        raise SimulationError(
            f"non-finite state at row {row0 + r}, component {c + 1}")


def map_chunks(fn, M):
    """An iterator over ``fn(start, stop)`` for each block of range(M), in
    block order; the blocks have CHUNK_ROWS rows, the last one fewer.

    With more than one block the calls run on ``worker_count()`` threads.
    At most that many calls run, and one more waits queued, ahead of the
    result the caller has taken: a caller that writes each result as it
    comes holds a few blocks, never all of them. The blocks do not depend on
    the worker count, so neither do the results.
    """
    starts = range(0, M, CHUNK_ROWS)
    stops = [min(start + CHUNK_ROWS, M) for start in starts]
    # read before any call, even for one block, so a malformed
    # LEVYSID_WORKERS always fails here
    workers = worker_count()
    _cap_blas_threads()
    if workers <= 1 or len(starts) <= 1:
        return map(fn, starts, stops)
    return _pooled(fn, zip(starts, stops), workers)


def _pooled(fn, spans, workers):
    _cap_malloc_arenas()
    pending = collections.deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # one call waits in the queue, so no worker idles while the caller
        # takes a result; a call that raises ends the iteration once the
        # calls already started have finished
        for start, stop in spans:
            pending.append(pool.submit(fn, start, stop))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


@dataclass(frozen=True, eq=False)
class Simulation(BlockRows):
    """One Euler step of every row of Z, taken when the rows are read.

    A row-block source: ``block(start, stop)`` steps exactly those rows,
    each with the stream keyed by its absolute row index, so the bytes do
    not depend on how the rows are read. Every read steps its rows again,
    and a coefficient that cannot be evaluated or a state that is not
    finite raises there. Write it with ``dataio.write_dataset``, or take
    ``rows(0, M)`` once, before more than one pass over it.
    """

    n: int
    M: int
    h: float
    Z: np.ndarray
    model: object
    key: int

    def block(self, start, stop):
        """Rows start..stop-1 as one new (rows, 2n) array, z before x; the
        x half is stepped CACHE_ROWS rows at a time."""
        n = self.n
        block = np.empty((stop - start, 2 * n))
        block[:, :n] = self.Z[start:stop]
        # the step writes a contiguous scratch, which is then copied into
        # the x half: numpy's loops over the strided half itself are
        # several times slower
        X = np.empty((min(CACHE_ROWS, stop - start), n))
        for lo in range(start, stop, CACHE_ROWS):
            m = min(CACHE_ROWS, stop - lo)
            _step_block(self.model, self.Z[lo:lo + m], self.h,
                        row_keys(self.key, lo, m), X[:m], lo)
            block[lo - start:lo - start + m, n:] = X[:m]
        return block


def simulate_pairs(model, Z, h, seed):
    """One Euler step of every row of Z, as a Simulation that takes the
    steps when its rows are read.

    Z, h and ``LEVYSID_WORKERS`` are checked here. The per-row counter
    streams make every row's step the same for any worker count, block
    size or read order.
    """
    Z = np.ascontiguousarray(Z, dtype=np.float64)
    if Z.ndim == 1:
        Z = Z[:, None]
    if Z.ndim != 2 or Z.shape[1] != model.n:
        raise DomainError(f"Z must be (M, {model.n}), got shape {Z.shape}")
    M = Z.shape[0]
    check_header(model.n, M, h)
    if not np.all(np.isfinite(Z)):
        raise DomainError("Z entries must all be finite")
    worker_count()
    return Simulation(model.n, M, float(h), Z, model, stream_key(int(seed), 0))

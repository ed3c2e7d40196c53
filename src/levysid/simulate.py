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
import math
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

# rows per block, the one unit every pass reads, steps or writes at a time:
# fixed so results never depend on the worker count, and small enough that
# a block's per-row temporaries stay in cache
CHUNK_ROWS = 1 << 14

WORKERS_ENV_VAR = "LEVYSID_WORKERS"

# glibc's mallopt parameters: the heap top kept when freeing, the request
# size from which malloc maps its own pages, and the number of arenas
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
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
    """Fix glibc's malloc for the chunked passes, once per process.

    Every thread gets glibc's one main malloc arena; otherwise each worker
    thread gets an arena of its own, and the temporaries it frees stay
    there, adding to peak RSS instead of being reused by the next block.
    The mmap and trim thresholds are fixed: with glibc's moving defaults,
    the block buffers of a pass were mapped, or the heap top they left
    was trimmed, and then faulted back for the next block.
    ``map_chunks`` calls it before its first call, at any worker count; it
    holds for the whole process. Where libc has no ``mallopt`` this does
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
    # every block buffer, and a regression scratch of up to 16 MiB, come
    # from the heap, and up to 32 MiB of a freed heap top is kept for reuse
    mallopt(M_MMAP_THRESHOLD, 16 << 20)
    mallopt(M_TRIM_THRESHOLD, 32 << 20)


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


def _cap_blas_threads():
    """Run OpenBLAS on one thread.

    ``levysid/__init__.py`` calls it once, when numpy was imported before
    levysid or ``OPENBLAS_NUM_THREADS`` was set, so ``map_chunks``' pool is
    the only parallelism and the products do not depend on the count
    OpenBLAS was loaded with. On two threads, a curve's long matrix-vector
    product can round differently than on one. This only lowers the count:
    the threads OpenBLAS started at load stay. Where no OpenBLAS with one
    of ``BLAS_SETTERS`` is found this does nothing.
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


def check_rows(start, stop, M):
    """What every row-block read asks for: rows start..stop-1 with
    0 <= start <= stop <= M. Raises DomainError otherwise."""
    if not 0 <= start <= stop <= M:
        raise DomainError(f"rows {start}..{stop - 1} are not a range of the "
                          f"{M} rows 0..{M - 1}")


class BlockRows:
    """``rows`` for a row-block source: the Z and X halves of its ``block``."""

    def rows(self, start, stop):
        """Z and X of rows start..stop-1: the column halves of ``block``."""
        block = self.block(start, stop)
        return block[:, :self.n], block[:, self.n:]


@dataclass(frozen=True, eq=False)
class DatasetPair(BlockRows):
    """A dataset held as it is stored: ``pairs`` is one float64 (M, 2n)
    array of rows, z before x, and h the step size. A row-block source like
    ``Simulation`` and ``dataio.DatasetFile``, whose blocks, and ``Z`` and
    ``X``, are read-only views of ``pairs``; it may be read-only itself.
    """

    n: int
    M: int
    h: float
    pairs: np.ndarray

    def __post_init__(self):
        check_header(self.n, self.M, self.h)
        shape = getattr(self.pairs, "shape", None)
        if shape != (self.M, 2 * self.n) or self.pairs.dtype != np.float64:
            raise DomainError(f"pairs must be a float64 array of shape "
                              f"({self.M}, {2 * self.n}); got shape {shape}")
        if not np.isfinite(self.pairs).all():
            raise DomainError("dataset entries must all be finite")

    def block(self, start, stop):
        """Rows start..stop-1 as they are stored, a read-only view."""
        check_rows(start, stop, self.M)
        block = self.pairs[start:stop]
        block.flags.writeable = False
        return block

    Z = property(lambda self: self.rows(0, self.M)[0])
    X = property(lambda self: self.rows(0, self.M)[1])

    @classmethod
    def from_arrays(cls, Z, X, h):
        """Z beside X in one new array; a 1-D array is one column."""
        Z, X = (np.asarray(A, dtype=np.float64) for A in (Z, X))
        Z, X = (A[:, None] if A.ndim == 1 else A for A in (Z, X))
        if Z.shape != X.shape:
            raise DomainError(f"Z and X must have one shape; got {Z.shape} and {X.shape}")
        return cls(Z.shape[1], Z.shape[0], float(h), np.hstack([Z, X]))


class Grid:
    """Tensor-product grid with inclusive endpoints, whose rows are made
    when they are read.

    ``grid[lo:hi]`` is a new (rows, n) array of rows lo..hi-1, made with
    index temporaries of the same length; the passes read one CHUNK_ROWS
    block at a time. Rows are ordered lexicographically in the axis
    indices (first axis slowest), so column k of row r is entry i = ``(r
    // stride_k) % m_k`` of axis k, stride_k being the product of the
    later axes' mesh. Entry i is ``i * step + lo`` with step = (hi - lo) /
    (m_k - 1), and the last is hi: the bits of ``linspace(lo, hi, m_k)``.
    A degenerate axis (mesh 1) sits at its lower bound. The bounds, the
    mesh, the row count and the steps, which must be positive and finite,
    are checked here.
    """

    def __init__(self, bounds, mesh):
        try:
            bounds = [(number("grid bound", lo), number("grid bound", hi))
                      for lo, hi in bounds]
            mesh = [number("mesh entry", m, whole=True) for m in mesh]
        except DomainError:
            raise
        except (TypeError, ValueError) as exc:
            raise DomainError("bounds must be a list of [lower, upper] pairs "
                              f"and mesh a list of whole numbers: {exc}") from exc
        if len(bounds) != len(mesh) or not bounds:
            raise DomainError("bounds and mesh must have equal positive length")
        for (lo, hi), m in zip(bounds, mesh):
            if m < 1:
                raise DomainError(f"mesh entries must be >= 1, got {m}")
            if not -np.inf < lo < hi < np.inf:
                raise DomainError(
                    f"need finite lower < upper per axis, got [{lo}, {hi}]")
        total = math.prod(mesh)
        if total > GRID_ROW_CAP:
            raise GridSizeError(
                f"grid would contain {total} rows, cap is {GRID_ROW_CAP}")
        # (lo, last entry, mesh, step) per axis; mesh 1 stays at lo
        self.axes = tuple((lo, hi, m, (hi - lo) / (m - 1)) if m > 1
                          else (lo, lo, 1, 0.0) for (lo, hi), m in zip(bounds, mesh))
        for lo, hi, m, step in self.axes:
            if m > 1 and not 0.0 < step < np.inf:
                raise DomainError(f"grid step {step} of [{lo}, {hi}] is not "
                                  "positive and finite")
        self.M, self.n = total, len(mesh)
        self.shape = (total, self.n)

    def __getitem__(self, rows):
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError("a Grid is read by row slices with step 1")
        start, stop, _ = rows.indices(self.M)
        q = np.arange(start, stop)
        i = np.empty_like(q)
        Z = np.empty((q.size, self.n))
        for k in reversed(range(self.n)):
            first, last, m, step = self.axes[k]
            np.divmod(q, m, out=(q, i))
            col = Z[:, k]
            np.multiply(i, step, out=col)
            col += first
            np.copyto(col, last, where=i == m - 1)
        return Z


def generate_grid(bounds, mesh):
    """Every row of ``Grid(bounds, mesh)``, as one (M, n) array."""
    return Grid(bounds, mesh)[:]


def _jump_term(model, keys, h):
    """The scaled jump term of the rows whose streams have the given keys:
    component i of the standard stable draws is scaled by sigma_i
    h^(1/alpha_i) into its own contiguous component row, and the term is
    the rows x n transpose of those rows."""
    alphas = np.array([p.alpha for p in model.levy])
    betas = np.array([p.beta for p in model.levy])
    jumps = component_jumps(keys, model.n, alphas, betas)
    for i, p in enumerate(model.levy):
        scale = h ** (1.0 / alphas[i])
        np.multiply(scale_stable(jumps[i], alphas[i], betas[i], scale), p.sigma,
                    out=jumps[i])
    return jumps.T


def _step_block(model, Z_block, h, keys, out, row0):
    """One Euler step for a block of rows whose streams have the given keys.

    Writes the new states into ``out``. A coefficient that cannot be
    evaluated raises EvaluationDomainError and a state that is not finite
    SimulationError. ``row0``, the dataset index of the block's first row,
    only locates those errors.

    Its intermediates are written in place, and the large ones are made
    one after another: the normals are drawn, drift*h is written into ``out``
    before Lambda is evaluated, and the Gaussian term, einsum's output (for
    n == 1, the normals) scaled by sqrt(h), is added before the stable
    draws are made. Without a Gaussian term no normals are drawn and no
    Lambda is evaluated; without Levy noise no stable draws are made. Each
    kind reads only its own counters, so skipping one leaves the other
    unchanged.
    """
    m, n = Z_block.shape
    # the drift and the jump term come component-major and are each read
    # once into the row-major ``out``; IEEE addition and multiplication
    # commute, so drift*h + Z has the bits of Z + drift*h, and each product
    # taken in place those of the product it replaces. The terms are added
    # in the order Z + drift*h, Gaussian, jumps. Datasets must stay
    # bit-identical, so n == 1 stays off einsum, whose sums can differ in
    # the sign of a zero, and einsum gets the row-major Lambda its sums were
    # fixed with. Without a Gaussian term, lam @ gauss would be a zero that
    # leaves every nonzero sum unchanged. An overflow raises SimulationError
    # below, so numpy does not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        gauss = row_normals(keys, n) if model.gaussian_enabled else None
        try:
            np.multiply(model.drift_at(Z_block), h, out=out)
            lam = None if gauss is None else model.gaussian_at(Z_block)
        except EvaluationDomainError as exc:
            raise EvaluationDomainError(
                f"coefficient evaluation failed on rows {row0}..{row0 + m - 1}: "
                f"{exc}") from exc
        out += Z_block
        if gauss is not None:
            if n == 1:
                gauss *= lam[:, 0]
            else:
                gauss = np.einsum("rij,rj->ri", lam, gauss, out=np.empty((m, n)))
            gauss *= math.sqrt(h)
            out += gauss
            del gauss, lam  # freed before the stable draws are made
        if model.levy is not None:
            out += _jump_term(model, keys, h)

    if not np.all(np.isfinite(out)):
        r, c = (int(v) for v in np.argwhere(~np.isfinite(out))[0])
        raise SimulationError(
            f"non-finite state at row {row0 + r}, component {c + 1}")


def map_chunks(fn, M):
    """An iterator over ``fn(start, stop)`` for each block of range(M), in
    block order; the blocks have CHUNK_ROWS rows, the last one fewer.

    With more than one block the calls run on ``worker_count()`` threads.
    At most that many calls run, and one more waits queued, ahead of the
    result the caller has taken. The passes' calls read or step their
    block and return small results, or, in the binary writer, place its
    rows in the file themselves, so each worker holds one block and the
    caller only drains the results. The blocks do not depend on the worker
    count, so neither do the results.
    """
    starts = range(0, M, CHUNK_ROWS)
    stops = [min(start + CHUNK_ROWS, M) for start in starts]
    # read before any call, even for one block, so a malformed
    # LEVYSID_WORKERS always fails here
    workers = worker_count()
    _cap_malloc_arenas()
    if workers <= 1 or len(starts) <= 1:
        return map(fn, starts, stops)
    return _pooled(fn, zip(starts, stops), workers)


def _pooled(fn, spans, workers):
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
    not depend on how the rows are read. Z is an (M, n) array or a
    ``Grid``; either is read by row slices, and a Grid makes a block's
    rows when the block is read, so the simulation never holds the whole
    grid. Every read steps its rows again, and a coefficient that cannot be
    evaluated or a state that is not finite raises there. Write it with
    ``dataio.write_dataset``, or take ``rows(0, M)`` once, before more than
    one pass over it.
    """

    n: int
    M: int
    h: float
    Z: object
    model: object
    key: int

    def block(self, start, stop):
        """Rows start..stop-1 as one new (rows, 2n) array, z before x. The
        passes read at most CHUNK_ROWS rows at a time; a longer read holds
        temporaries in proportion to its rows."""
        check_rows(start, stop, self.M)
        Z = self.Z[start:stop]
        X = np.empty(Z.shape)
        _step_block(self.model, Z, self.h, row_keys(self.key, start, stop - start),
                    X, start)
        return np.hstack([Z, X])


def simulate_pairs(model, Z, h, seed):
    """One Euler step of every row of Z, an (M, n) array or a ``Grid``, as
    a Simulation that takes the steps when its rows are read.

    Z, h and ``LEVYSID_WORKERS`` are checked here; a Grid's rows are not
    scanned, since its axes were checked when it was built. The per-row
    counter streams make every row's step the same for any worker count,
    block size or read order.
    """
    grid = isinstance(Z, Grid)
    if not grid:
        Z = np.ascontiguousarray(Z, dtype=np.float64)
        if Z.ndim == 1:
            Z = Z[:, None]
    if len(Z.shape) != 2 or Z.shape[1] != model.n:
        raise DomainError(f"Z must be (M, {model.n}), got shape {Z.shape}")
    M = Z.shape[0]
    check_header(model.n, M, h)
    if not grid and not np.all(np.isfinite(Z)):
        raise DomainError("Z entries must all be finite")
    worker_count()
    return Simulation(model.n, M, float(h), Z, model, stream_key(int(seed), 0))

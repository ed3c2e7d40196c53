"""Counter-based random streams and the noise kernel that reads them.

A stream is a single 64-bit key; draw ``j`` of a stream is obtained by hashing
``key + (j+1)*GAMMA`` with the SplitMix64 finalizer. Random access by counter
means a consumer can be handed (stream, offset) coordinates instead of mutable
generator state, which is what makes simulation output independent of worker
scheduling: row ``r`` of a dataset always reads the same counters of the same
derived stream no matter which thread computes it.

A stream is named by its key alone: ``stream_key`` gives the root key of a
(seed, stream-id) pair, and ``split_key`` derives a child key through a
second finalizer pass with a distinct odd constant, so child draw sequences
never alias the parent's.

This module also holds the vectorized noise kernel and the one place the
per-row counter layout is written down. For a simulated row of dimension n:

  counters 0 .. 2n-1    -> n Box-Muller normals (2 per draw)
  counters 2n .. 4n-1   -> n stable draws (angle uniform, exponential uniform)

For a block of rows the uniforms are held counter by counter, each counter
one contiguous row, so Box-Muller and CMS run over contiguous rows. Every
draw's bits are those of the same transform applied row by row.

NumPy generators were deliberately not used here: their normal sampler
consumes a data-dependent number of words (ziggurat rejection), which makes
fixed per-row counter layouts impossible. Box-Muller from two counters per
normal keeps the layout static. Statistical quality of the SplitMix64 sequence
is validated empirically by the distribution gates in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment, draw-counter stride
SPLIT = 0xD1B54A32D192ED03  # distinct odd constant for stream derivation
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_HALF_PI = math.pi / 2.0


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a (masked) Python integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def stream_key(seed: int, stream: int = 0) -> int:
    """Root key for (seed, stream-id)."""
    return split_key(mix64((seed & _MASK) + GAMMA), stream)


def split_key(key: int, index: int) -> int:
    """Child-stream key; index may be any nonnegative integer (e.g. a row id)."""
    return mix64((key + mix64(((index & _MASK) + 1) * SPLIT)) & _MASK)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2^64, matching the masked scalar version
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def raw_block(key, start: int, count: int) -> np.ndarray:
    """uint64 hash values for counters start .. start+count-1 of a stream.

    For an array of keys the counters run along the first axis: entry
    ``[j, r]`` is counter start+j of stream ``key[r]``, so each counter of
    a block of rows is one contiguous row.
    """
    keys = np.asarray(key, dtype=np.uint64)
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix64_np(idx.reshape((count,) + (1,) * keys.ndim)
                     * np.uint64(GAMMA) + keys)


def uniform_block(key, start: int, count: int) -> np.ndarray:
    """Doubles in the open interval (0,1), one per counter (and per key),
    laid out as in ``raw_block``: counters first.

    Mapping keeps 53 bits and centers on the grid: u = ((raw >> 11) + 0.5)/2^53,
    so 0.0 and 1.0 are unreachable and downstream log/tan transforms stay finite.
    """
    r = raw_block(key, start, count)
    return ((r >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def row_keys(base_key: int, row0: int, nrows: int) -> np.ndarray:
    """``split_key(base_key, row)`` for rows row0 .. row0+nrows-1, as uint64."""
    rows = np.arange(row0, row0 + nrows, dtype=np.uint64)
    return _mix64_np(np.uint64(base_key)
                     + _mix64_np((rows + np.uint64(1)) * np.uint64(SPLIT)))


def _box_muller(u1, u2):
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _cms(ua, ue, alpha, beta):
    """Chambers-Mallows-Stuck: standard S_alpha(1, beta, 0) draws from an angle
    uniform ua and an exponential uniform ue. Both terms of the alpha=1 branch
    stay finite because ua, ue are strictly inside (0,1)."""
    phi = np.pi * (ua - 0.5)
    w = -np.log(ue)
    if alpha == 1.0:
        t = _HALF_PI + beta * phi
        return (t * np.tan(phi) - beta * np.log(_HALF_PI * w * np.cos(phi) / t)) / _HALF_PI
    ta = math.tan(_HALF_PI * alpha)
    b0 = math.atan(beta * ta) / alpha
    s0 = (1.0 + (beta * ta) ** 2) ** (0.5 / alpha)
    ap = alpha * (phi + b0)
    return (s0 * np.sin(ap) / np.cos(phi) ** (1.0 / alpha)
            * (np.cos(phi - ap) / w) ** ((1.0 - alpha) / alpha))


def cms_block(key: int, start: int, count: int, alpha: float, beta: float) -> np.ndarray:
    """count standard S_alpha(1, beta, 0) draws, two counters per draw."""
    u = uniform_block(key, start, 2 * count)
    return _cms(u[0::2], u[1::2], alpha, beta)


def row_normals(keys: np.ndarray, n: int) -> np.ndarray:
    """rows x n standard normals of the rows whose streams have the given
    uint64 keys, from counters 0..2n-1."""
    u = uniform_block(keys, 0, 2 * n)
    return np.ascontiguousarray(_box_muller(u[0::2], u[1::2]).T)


def component_jumps(keys: np.ndarray, n: int, alphas, betas) -> np.ndarray:
    """n x rows standard stable draws of the rows whose streams have the
    given uint64 keys, from counters 2n..4n-1: one contiguous row per
    component."""
    u = uniform_block(keys, 2 * n, 2 * n)
    jumps = np.empty((n, u.shape[1]))
    for i in range(n):
        jumps[i] = _cms(u[2 * i], u[2 * i + 1], alphas[i], betas[i])
    return jumps


def row_jumps(keys: np.ndarray, n: int, alphas, betas) -> np.ndarray:
    """rows x n standard stable draws: ``component_jumps`` in row order."""
    return np.ascontiguousarray(component_jumps(keys, n, alphas, betas).T)


def sim_noise_block(base_key: int, row0: int, nrows: int, alphas, betas):
    """Per-row noise for rows row0..row0+nrows-1 of a simulation.

    Each row reads its own (seed, row)-derived stream, so the result is
    independent of how rows are batched across workers.
    """
    keys = row_keys(base_key, row0, nrows)
    return row_normals(keys, len(alphas)), row_jumps(keys, len(alphas), alphas, betas)

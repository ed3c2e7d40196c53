"""Counter-based random streams and the noise kernel that reads them.

A stream is a single 64-bit key; draw ``j`` of a stream is obtained by hashing
``key + (j+1)*GAMMA`` with the SplitMix64 finalizer. Random access by counter
means a consumer can be handed (stream, offset) coordinates instead of mutable
generator state, which is what makes simulation output independent of worker
scheduling: row ``r`` of a dataset always reads the same counters of the same
derived stream no matter which thread computes it.

A stream is named by its key alone: ``row_keys`` derives the child keys of a
key through a second finalizer pass with a distinct odd constant, so child
draw sequences never alias the parent's, and ``stream_key`` gives the root
key of a (seed, stream-id) pair as child ``stream`` of the finalized seed.

This module also holds the vectorized noise kernel and the one place the
per-row counter layout is written down. For a simulated row of dimension n:

  counters 0 .. 2n-1    -> n Box-Muller normals (2 per draw)
  counters 2n .. 4n-1   -> n stable draws (angle uniform, exponential uniform)

For a block of rows the uniforms are held counter by counter, each counter
one contiguous row, so Box-Muller and CMS run over contiguous rows. Every
draw's bits are those of the same transform applied row by row.

The kernel works in place: a block's hash values are mixed in their own
buffer through one scratch, become its uniforms in that buffer, and
Box-Muller and CMS overwrite the uniform rows they are given. Each takes
the float operations of its out-of-place formula in the same order, so
the bits are the formula's (tests/oracles.py keeps those formulas).

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


def _mix64_np(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The SplitMix64 finalizer of z, written into ``out`` (a new array when
    None; z itself to hash in place) through one scratch of z's size.
    uint64 array arithmetic wraps mod 2^64."""
    s = z >> np.uint64(30)
    out = np.bitwise_xor(z, s, out=out)
    out *= np.uint64(_M1)
    np.right_shift(out, np.uint64(27), out=s)
    out ^= s
    out *= np.uint64(_M2)
    np.right_shift(out, np.uint64(31), out=s)
    out ^= s
    return out


def raw_block(key, start: int, count: int) -> np.ndarray:
    """uint64 hash values for counters start .. start+count-1 of a stream.

    For an array of keys the counters run along the first axis: entry
    ``[j, r]`` is counter start+j of stream ``key[r]``, so each counter of
    a block of rows is one contiguous row.
    """
    keys = np.asarray(key, dtype=np.uint64)
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = idx.reshape((count,) + (1,) * keys.ndim) * np.uint64(GAMMA) + keys
    return _mix64_np(z, out=z)


def uniform_block(key, start: int, count: int) -> np.ndarray:
    """Doubles in the open interval (0,1), one per counter (and per key),
    laid out as in ``raw_block``: counters first.

    Mapping keeps 53 bits and centers on the grid: u = ((raw >> 11) + 0.5)/2^53,
    so 0.0 and 1.0 are unreachable and downstream log/tan transforms stay finite.
    The doubles take the place of the hash values in their buffer.
    """
    r = raw_block(key, start, count)
    r >>= np.uint64(11)
    u = r.view(np.float64)
    np.add(r, 0.5, out=u)
    u *= 2.0**-53
    return u


def row_keys(base_key: int, row0: int, nrows: int) -> np.ndarray:
    """The child keys of ``base_key`` for rows row0 .. row0+nrows-1, as
    uint64: row ``r`` has the finalizer of base_key + mix((r+1)*SPLIT)."""
    rows = np.arange(row0, row0 + nrows, dtype=np.uint64)
    return _mix64_np(np.uint64(base_key)
                     + _mix64_np((rows + np.uint64(1)) * np.uint64(SPLIT)))


def stream_key(seed: int, stream: int = 0) -> int:
    """Root key for (seed, stream-id): child ``stream`` of the finalized
    seed. Both ints are taken modulo 2^64."""
    # 1-element arrays: numpy's scalar uint64 arithmetic warns when it wraps
    seed_key = _mix64_np(np.array([(seed + GAMMA) & _MASK], np.uint64))
    return int(row_keys(seed_key[0], stream & _MASK, 1)[0])


def _box_muller(u1, u2):
    """Box-Muller normals sqrt(-2 log u1) cos(2 pi u2), written over u1;
    u2 is overwritten too."""
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def _cms(ua, ue, alpha, beta):
    """Chambers-Mallows-Stuck: standard S_alpha(1, beta, 0) draws from an angle
    uniform ua and an exponential uniform ue, which are overwritten. Both
    terms of the alpha=1 branch stay finite because ua, ue are strictly
    inside (0,1)."""
    phi = ua
    phi -= 0.5
    phi *= np.pi
    w = ue
    np.log(w, out=w)
    np.negative(w, out=w)
    if alpha == 1.0:
        t = phi * beta
        t += _HALF_PI
        # w becomes beta log(pi/2 w cos(phi) / t), phi t tan(phi) less it
        w *= _HALF_PI
        c = np.cos(phi)
        w *= c
        w /= t
        np.log(w, out=w)
        w *= beta
        np.tan(phi, out=phi)
        phi *= t
        phi -= w
        phi /= _HALF_PI
        return phi
    ta = math.tan(_HALF_PI * alpha)
    b0 = math.atan(beta * ta) / alpha
    s0 = (1.0 + (beta * ta) ** 2) ** (0.5 / alpha)
    ap = phi + b0
    ap *= alpha
    # t becomes (cos(phi - ap) / w) ** ((1 - alpha) / alpha), phi
    # cos(phi) ** (1 / alpha) and ap the draw
    t = phi - ap
    np.cos(t, out=t)
    t /= w
    t **= (1.0 - alpha) / alpha
    np.cos(phi, out=phi)
    phi **= 1.0 / alpha
    np.sin(ap, out=ap)
    ap *= s0
    ap /= phi
    ap *= t
    return ap


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


def sim_noise_block(base_key: int, row0: int, nrows: int, alphas, betas):
    """Per-row noise for rows row0..row0+nrows-1 of a simulation.

    Each row reads its own (seed, row)-derived stream, so the result is
    independent of how rows are batched across workers. Returns rows x n
    normals and rows x n standard stable draws.
    """
    keys = row_keys(base_key, row0, nrows)
    jumps = component_jumps(keys, len(alphas), alphas, betas)
    return row_normals(keys, len(alphas)), np.ascontiguousarray(jumps.T)

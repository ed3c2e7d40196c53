"""Stable variates for the distribution tests, from the package's own kernel.

``sample_stable`` gives count draws from S_alpha(scale, beta, 0): draw t is
the Chambers-Mallows-Stuck transform ``rng._cms`` of counters 2t and 2t+1 of
the stream with key ``key``, mapped to ``scale`` by ``scale_stable``. These
are the transforms simulation applies to each row's stable counters, so the
distribution gates check the draws that datasets are made of. Unlike
``oracles.py``, this module imports levysid.
"""

from levysid.rng import _cms, uniform_block
from levysid.stable import scale_stable


def sample_stable(alpha, beta, scale, count, key):
    u = uniform_block(key, 0, 2 * count)
    return scale_stable(_cms(u[0::2], u[1::2], alpha, beta), alpha, beta, scale)

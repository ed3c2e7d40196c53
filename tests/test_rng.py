"""Counter-based random stream: determinism, stream splitting, output quality."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from levysid.rng import (
    _box_muller,
    _cms,
    mix64,
    raw_block,
    row_jumps,
    row_keys,
    row_normals,
    sim_noise_block,
    split_key,
    stream_key,
    uniform_block,
)

from oracles import ks_one_sample, row_noise_oracle, row_key_oracle


class TestMixing:
    def test_mix64_is_pure(self):
        assert mix64(0) == mix64(0)
        assert mix64(1) != mix64(2)

    def test_mask_to_64_bits(self):
        assert 0 <= mix64(2**64 + 5) < 2**64
        assert mix64(2**64 + 5) == mix64(5)

    def test_stream_keys_distinct(self):
        keys = {stream_key(7, i) for i in range(1000)}
        assert len(keys) == 1000

    def test_seed_sensitivity(self):
        assert stream_key(1, 0) != stream_key(2, 0)

    def test_split_distinct_from_parent(self):
        k = stream_key(42, 0)
        children = {split_key(k, i) for i in range(1000)}
        assert len(children) == 1000
        assert k not in children


class TestBlocks:
    def test_raw_block_counter_offsets(self):
        k = stream_key(3, 0)
        whole = raw_block(k, 0, 10)
        tail = raw_block(k, 4, 6)
        assert np.array_equal(whole[4:], tail)

    def test_uniform_open_interval(self):
        u = uniform_block(stream_key(1, 1), 0, 1_000_000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_uniform_ks_against_flat_cdf(self):
        u = uniform_block(stream_key(2026, 0), 0, 1_000_000)
        assert ks_one_sample(u, lambda x: x) < 0.002


class TestStreams:
    def test_from_seed_deterministic(self):
        assert stream_key(9) == stream_key(9)

    def test_split_children_independent(self):
        s = stream_key(9)
        u0 = uniform_block(split_key(s, 0), 0, 8)
        u1 = uniform_block(split_key(s, 1), 0, 8)
        assert not np.array_equal(u0, u1)

    def test_uniform_offset_slicing(self):
        s = stream_key(4)
        assert np.array_equal(uniform_block(s, 0, 10)[3:],
                              uniform_block(s, 3, 7))

    # normals come from row_normals, the sampler that simulation uses, with
    # one stream per row
    def test_normals_moments(self):
        g = row_normals(row_keys(stream_key(12, 0), 0, 200_000), 2)
        assert abs(g.mean()) < 0.01
        assert abs(g.std() - 1.0) < 0.01

    def test_normals_ks(self):
        from math import erf
        g = row_normals(row_keys(stream_key(13, 0), 0, 100_000), 2).ravel()
        cdf = lambda x: 0.5 * (1 + np.vectorize(erf)(x / np.sqrt(2)))
        assert ks_one_sample(g, cdf) < 0.004

    def test_normals_counter_stride(self):
        # normal i of a row consumes exactly counters 2i and 2i+1 of the
        # row's own stream, so blocks are sliceable by row and by component
        base = stream_key(5, 0)
        g = row_normals(row_keys(base, 0, 16), 6)
        assert_allclose(g[4:], row_normals(row_keys(base, 4, 12), 6), rtol=0, atol=0)
        assert_allclose(g[:, :4], row_normals(row_keys(base, 0, 16), 4), rtol=0, atol=0)


class TestNoiseKernelOracle:
    """The vectorized kernel against a scalar reference of the counter layout."""

    ALPHAS = (0.5, 1.0, 1.5, 1.9)
    BETAS = (0.5, -0.3, 0.0, 1.0)
    BLOCKS = ((0, 3), (2**40 - 1, 3))

    def test_row_keys_and_uniforms_bitwise(self):
        base = stream_key(2024, 3)
        n = len(self.ALPHAS)
        for row0, nrows in self.BLOCKS:
            keys = row_keys(base, row0, nrows)
            # counters run along the first axis: column r is row r's stream
            u = uniform_block(keys, 0, 4 * n)
            for r in range(nrows):
                assert int(keys[r]) == row_key_oracle(base, row0 + r)
                assert int(keys[r]) == split_key(base, row0 + r)
                want, _, _ = row_noise_oracle(base, row0 + r, self.ALPHAS, self.BETAS)
                assert u[:, r].tolist() == want

    def test_sim_noise_block_matches_oracle(self):
        base = stream_key(2024, 3)
        for row0, nrows in self.BLOCKS:
            gauss, jumps = sim_noise_block(base, row0, nrows,
                                           np.array(self.ALPHAS), np.array(self.BETAS))
            for r in range(nrows):
                _, normals, stables = row_noise_oracle(base, row0 + r,
                                                       self.ALPHAS, self.BETAS)
                assert_allclose(gauss[r], normals, rtol=1e-12, atol=0)
                assert_allclose(jumps[r], stables, rtol=1e-12, atol=0)

    def test_component_rows_match_row_major_reference(self):
        # the kernel runs Box-Muller and CMS over contiguous component
        # rows; the reference applies the same transforms to strided
        # columns of per-row uniforms. 1001 rows leave a SIMD tail
        keys = row_keys(stream_key(2024, 3), 5, 1001)
        alphas, betas = np.array(self.ALPHAS), np.array(self.BETAS)
        n = len(alphas)
        per_row = np.ascontiguousarray(uniform_block(keys, 0, 4 * n).T)
        normals = _box_muller(per_row[:, 0:2 * n:2], per_row[:, 1:2 * n:2])
        jumps = np.empty((len(keys), n))
        for i in range(n):
            jumps[:, i] = _cms(per_row[:, 2 * n + 2 * i],
                               per_row[:, 2 * n + 2 * i + 1], alphas[i], betas[i])
        got_normals = row_normals(keys, n)
        got_jumps = row_jumps(keys, n, alphas, betas)
        for got in (got_normals, got_jumps):
            assert got.shape == (len(keys), n) and got.flags.c_contiguous
        assert got_normals.tobytes() == normals.tobytes()
        assert got_jumps.tobytes() == jumps.tobytes()

"""Noise identification, cube filtering, and coefficient regression."""

import tracemalloc

import numpy as np
import pytest

import levysid.simulate
from levysid import (
    BinCounts,
    DomainError,
    EstimationConfig,
    EstimationWarning,
    InsufficientDataError,
    StableParams,
    bin_counts,
    correction_R,
    correction_S,
    cube_filter,
    DatasetPair,
    design_matrix,
    estimate_alpha,
    estimate_beta,
    estimate_levy,
    estimate_sigma,
    example2_dictionary,
    model_from_config,
    polynomial_dictionary,
    read_dataset,
    regression_tables,
    simulate_pairs,
    write_dataset,
)
from levysid.numeric import solve_gram


def _config(epsilon=1.0, m=5.0, N=1, cube_epsilon=None):
    return EstimationConfig(epsilon, m, N, cube_epsilon)


def _pair_from_increments(Y, h=0.001):
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    Z = np.zeros_like(Y)
    return DatasetPair.from_arrays(Z, Y, h)


class TestBinCounts:
    def test_four_value_example(self):
        counts = bin_counts(np.array([1.5, -2.0, 7.0, 0.1]), _config())
        np.testing.assert_array_equal(counts.pos, [1, 1])
        np.testing.assert_array_equal(counts.neg, [1, 0])

    def test_boundary_positive_epsilon_in_bin_zero(self):
        counts = bin_counts(np.array([1.0]), _config())
        assert counts.pos[0] == 1

    def test_boundary_negative_epsilon_excluded(self):
        # negative bins are [-m^{k+1} eps, -m^k eps): -eps itself falls out
        counts = bin_counts(np.array([-1.0]), _config())
        assert counts.neg.sum() == 0

    def test_boundary_inner_edges(self):
        # each bin [m^k eps, m^{k+1} eps) is left-closed, so 5.0 enters bin 1
        # while -5.0 enters [-5,-1) = negative bin 0; 25.0 falls off the end
        counts = bin_counts(np.array([5.0, -5.0, 24.999, 25.0]), _config())
        np.testing.assert_array_equal(counts.pos, [0, 2])
        np.testing.assert_array_equal(counts.neg, [1, 0])
        assert counts.totals[0] == 1 and counts.totals[1] == 2

    def test_out_of_range_ignored(self):
        counts = bin_counts(np.array([0.5, -0.5, 25.0, 1e9, -1e9]), _config())
        assert counts.pos.sum() == 0 and counts.neg.sum() == 0

    def test_outer_edges_follow_interval_convention(self):
        # +25 falls off the last right-open bin; -25 is the left-closed end
        # of [-25, -5), so the two sides are deliberately asymmetric
        counts = bin_counts(np.array([25.0, -25.0]), _config())
        assert counts.pos.sum() == 0
        np.testing.assert_array_equal(counts.neg, [0, 1])

    # epsilon=1, m=5, N=2: edges 1, 5, 25, 125; every bin is closed at its
    # left end on the real line, so the two sides differ at each edge
    @pytest.mark.parametrize("y, pos, neg", [
        (-1.0, [0, 0, 0], [0, 0, 0]),
        (1.0, [1, 0, 0], [0, 0, 0]),
        (-125.0, [0, 0, 0], [0, 0, 1]),
        (125.0, [0, 0, 0], [0, 0, 0]),
        (5.0, [0, 1, 0], [0, 0, 0]),
        (-5.0, [0, 0, 0], [1, 0, 0]),
    ])
    def test_edge_points(self, y, pos, neg):
        counts = bin_counts(np.array([y]), _config(N=2))
        np.testing.assert_array_equal(counts.pos, pos)
        np.testing.assert_array_equal(counts.neg, neg)

    def test_matches_full_scan(self):
        # the counts on the |y| >= epsilon tail equal a scan of every y
        rng = np.random.default_rng(4)
        config = _config(epsilon=0.5, m=3.0, N=3)
        edges = 0.5 * 3.0 ** np.arange(5)
        Y = np.concatenate([rng.standard_cauchy(5000), edges, -edges,
                            np.nextafter(edges, 0), -np.nextafter(edges, 0)])
        counts = bin_counts(Y, config)
        for k in range(4):
            lo, hi = edges[k], edges[k + 1]
            assert counts.pos[k] == np.count_nonzero((Y >= lo) & (Y < hi))
            assert counts.neg[k] == np.count_nonzero((Y >= -hi) & (Y < -lo))

    def test_carries_M_and_h(self):
        counts = bin_counts(np.array([1.5, 2.0]), _config(), h=0.25)
        assert counts.M == 2 and counts.h == 0.25

    def test_validation(self):
        with pytest.raises(DomainError):
            BinCounts(np.array([-1, 0]), np.array([0, 0]), 10)
        with pytest.raises(DomainError):
            BinCounts(np.array([11, 0]), np.array([0, 0]), 10)


class TestEstimateAlpha:
    def test_exact_geometric_decay(self):
        counts = BinCounts(np.array([500, 100, 20]), np.array([0, 0, 0]), 1000)
        alpha = estimate_alpha(counts, _config(N=2))
        assert alpha == pytest.approx(1.0, rel=1e-12)

    def test_counts_split_across_signs(self):
        counts = BinCounts(np.array([300, 60, 12]), np.array([200, 40, 8]), 1000)
        alpha = estimate_alpha(counts, _config(N=2))
        assert alpha == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_equal_counts_clamped(self):
        counts = BinCounts(np.array([100, 100]), np.array([0, 0]), 1000)
        with pytest.warns(EstimationWarning):
            alpha = estimate_alpha(counts, _config(N=1))
        assert 0.0 < alpha < 0.01

    def test_growth_clamps_low(self):
        counts = BinCounts(np.array([10, 100]), np.array([0, 0]), 1000)
        with pytest.warns(EstimationWarning):
            alpha = estimate_alpha(counts, _config(N=1))
        assert alpha > 0.0

    def test_empty_later_bins_insufficient(self):
        counts = BinCounts(np.array([100, 0, 0]), np.array([0, 0, 0]), 1000)
        with pytest.raises(InsufficientDataError):
            estimate_alpha(counts, _config(N=2))

    def test_empty_bin_zero_insufficient(self):
        counts = BinCounts(np.array([0, 10]), np.array([0, 0]), 1000)
        with pytest.raises(InsufficientDataError):
            estimate_alpha(counts, _config(N=1))

    def test_middle_empty_bin_skipped(self):
        # k=1 empty: only k=2 contributes, still defined
        counts = BinCounts(np.array([500, 0, 20]), np.array([0, 0, 0]), 1000)
        with pytest.warns(EstimationWarning):
            alpha = estimate_alpha(counts, _config(N=2))
        assert alpha == pytest.approx(np.log(25.0) / (2.0 * np.log(5.0)),
                                      rel=1e-12)


class TestEstimateBeta:
    def test_symmetric(self):
        counts = BinCounts(np.array([77, 13]), np.array([77, 13]), 1000)
        assert estimate_beta(counts) == 0.0

    def test_ratio_half(self):
        counts = BinCounts(np.array([150, 0]), np.array([50, 0]), 1000)
        assert estimate_beta(counts) == pytest.approx(0.5, rel=1e-14)

    def test_one_sided(self):
        counts = BinCounts(np.array([10, 5]), np.array([0, 0]), 100)
        assert estimate_beta(counts) == 1.0
        counts = BinCounts(np.array([0, 0]), np.array([10, 5]), 100)
        assert estimate_beta(counts) == -1.0

    def test_empty_raises(self):
        counts = BinCounts(np.array([0, 0]), np.array([0, 0]), 100)
        with pytest.raises(InsufficientDataError):
            estimate_beta(counts)


class TestEstimateSigma:
    def test_analytic_unit_sigma(self):
        # n_0 = round(h M k_1 (1 - 1/m)) corresponds to sigma = 1 at alpha = 1
        h, M = 1.0e-3, 1_000_000
        k1 = 2.0 / np.pi
        n0 = round(h * M * k1 * (1.0 - 1.0 / 5.0))
        assert n0 == 509
        counts = BinCounts(np.array([n0, 0]), np.array([0, 0]), M, h=h)
        with pytest.warns(EstimationWarning):
            sigma = estimate_sigma(counts, 1.0, _config(N=1))
        assert sigma == pytest.approx(0.9994191629232528, rel=1e-12)
        assert abs(sigma - 1.0) < 0.002

    def test_consistent_bins_agree(self):
        # counts laid out exactly on the alpha=1 geometric profile
        h, M = 1.0e-3, 10_000_000
        k1 = 2.0 / np.pi
        base = h * M * k1 * (1.0 - 1.0 / 5.0)
        counts = BinCounts(
            np.array([base, base / 5.0, base / 25.0]),
            np.array([0.0, 0.0, 0.0]), M, h=h)
        sigma = estimate_sigma(counts, 1.0, _config(N=2))
        assert sigma == pytest.approx(1.0, rel=1e-12)

    def test_requires_h(self):
        counts = BinCounts(np.array([10, 1]), np.array([0, 0]), 100)
        with pytest.raises(DomainError):
            estimate_sigma(counts, 1.0, _config(N=1))

    def test_alpha_out_of_range(self):
        counts = BinCounts(np.array([10, 1]), np.array([0, 0]), 100, h=0.001)
        with pytest.raises(DomainError):
            estimate_sigma(counts, 2.0, _config(N=1))

    def test_all_empty_raises(self):
        counts = BinCounts(np.array([0, 0]), np.array([0, 0]), 100, h=0.001)
        with pytest.raises(InsufficientDataError):
            estimate_sigma(counts, 1.0, _config(N=1))


class TestCubeFilter:
    def test_large_width_keeps_all(self):
        rng = np.random.default_rng(2)
        Z = rng.uniform(-1, 1, (40, 2))
        X = Z + rng.uniform(-0.1, 0.1, (40, 2))
        data = DatasetPair.from_arrays(Z, X, 0.001)
        kept, fraction = cube_filter(data, 1e12)
        assert kept.M == 40 and fraction == 1.0

    def test_single_row_dropped(self):
        data = DatasetPair.from_arrays(np.zeros((1, 2)),
                                       np.array([[0.5, 2.0]]), 0.001)
        with pytest.raises(InsufficientDataError):
            cube_filter(data, 1.0)

    def test_boundary_row_kept(self):
        # closed cube: max |x - z| = half_width survives
        data = DatasetPair.from_arrays(np.zeros((2, 1)),
                                       np.array([[1.0], [1.00001]]), 0.001)
        kept, fraction = cube_filter(data, 1.0)
        assert kept.M == 1
        assert fraction == 0.5
        assert kept.rows(0, 1)[1][0, 0] == 1.0

    def test_order_preserved(self):
        Z = np.zeros((4, 1))
        X = np.array([[0.1], [5.0], [0.3], [0.2]])
        data = DatasetPair.from_arrays(Z, X, 0.001)
        kept, fraction = cube_filter(data, 1.0)
        np.testing.assert_array_equal(kept.rows(0, 3)[1][:, 0], [0.1, 0.3, 0.2])
        assert fraction == 0.75

    @pytest.mark.parametrize("half_width", [np.nan, np.inf])
    def test_half_width_must_be_positive_and_finite(self, half_width):
        data = DatasetPair.from_arrays(np.zeros((2, 1)), np.ones((2, 1)), 0.001)
        with pytest.raises(DomainError, match="half_width must be positive and finite"):
            cube_filter(data, half_width)


class TestBlockwisePasses:
    """estimate_levy and cube_filter read CHUNK_ROWS blocks; the results must
    equal whole-array references for any block size and worker count, from
    an in-memory pair and from a binary dataset file alike."""

    @staticmethod
    def _data():
        rng = np.random.default_rng(8)
        Z = rng.uniform(-1.0, 1.0, (500, 3))
        X = Z + 0.3 * rng.standard_cauchy((500, 3))
        return DatasetPair.from_arrays(Z, X, 0.001)

    @classmethod
    def _sources(cls, tmp_path):
        """The in-memory pair, and the same pair as a binary dataset file."""
        data = cls._data()
        path = tmp_path / "pairs.bin"
        write_dataset(data, path)
        return data, read_dataset(path)

    @pytest.mark.parametrize("workers", ["1", "2", "5"])
    def test_cube_filter_matches_whole_mask(self, monkeypatch, tmp_path, workers):
        sources = self._sources(tmp_path)
        data = sources[0]
        keep = np.max(np.abs(data.X - data.Z), axis=1) <= 0.5
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 7)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        for source in sources:
            kept, fraction = cube_filter(source, 0.5)
            assert kept.M == int(keep.sum()) and fraction == keep.sum() / 500
            Z, X = kept.rows(0, kept.M)
            np.testing.assert_array_equal(Z, data.Z[keep])
            np.testing.assert_array_equal(X, data.X[keep])

    @pytest.mark.parametrize("workers", ["1", "2", "5"])
    def test_levy_counts_match_whole_increments(self, monkeypatch, tmp_path,
                                                workers):
        sources = self._sources(tmp_path)
        data = sources[0]
        config = _config(epsilon=0.2, m=3.0, N=2)
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 7)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        for source in sources:
            for est in estimate_levy(source, config):
                Y = data.X[:, est.component - 1] - data.Z[:, est.component - 1]
                want = bin_counts(Y, config, h=data.h)
                np.testing.assert_array_equal(est.counts.pos, want.pos)
                np.testing.assert_array_equal(est.counts.neg, want.neg)
                assert (est.counts.M, est.counts.h) == (500, 0.001)


class TestDimensionalIndependence:
    def test_exact_equality(self):
        import warnings as w

        rng = np.random.default_rng(5)
        Y = np.concatenate([rng.uniform(-30, 30, 5000), [1.5, -2.0, 7.0]])
        junk = rng.uniform(-100, 100, Y.size)
        config = _config(N=1)
        with w.catch_warnings():
            # uniform values have no stable tail; clamp warnings expected
            w.simplefilter("ignore", EstimationWarning)
            one = estimate_levy(_pair_from_increments(Y), config)[0]
            stacked = _pair_from_increments(np.column_stack([Y, junk]))
            two = estimate_levy(stacked, config)[0]
        assert (one.alpha, one.beta, one.sigma) == (two.alpha, two.beta,
                                                    two.sigma)
        np.testing.assert_array_equal(one.counts.pos, two.counts.pos)
        np.testing.assert_array_equal(one.counts.neg, two.counts.neg)


class TestExactRecovery:
    def test_drift_exact(self):
        # increments are exactly h * (A @ c); h binary so h*v/h round-trips
        rng = np.random.default_rng(7)
        n, h = 2, 0.25
        dictionary = polynomial_dictionary(n, 2)
        Z = rng.uniform(-2, 2, (500, n))
        A = design_matrix(dictionary, Z)
        c_true = np.array([[1.5, -2.0, 0.5, 0.25, 0.0, 1.0],
                           [0.0, 3.0, -1.0, 0.0, 0.5, -0.5]])
        X = Z + h * (A @ c_true.T)
        data = DatasetPair.from_arrays(Z, X, h)
        table = regression_tables(data, 1.0, dictionary, None, _config())
        np.testing.assert_allclose(table.drift, c_true, rtol=0, atol=1e-10)
        # residuals come from the Gram identity c'Gc - 2c'C + |B|^2, whose
        # cancellation floor is sqrt(eps)*|B|, not zero
        for i in range(2):
            floor = 1e-7 * np.linalg.norm(A @ c_true[i])
            assert table.drift_residuals[i] <= floor

    def test_diffusion_exact_rank_one(self):
        # increments sqrt(h) * v_i make every target a_ij = v_i v_j constant
        n, h = 3, 0.25
        dictionary = polynomial_dictionary(n, 1)
        rng = np.random.default_rng(8)
        Z = rng.uniform(-2, 2, (400, n))
        v = np.array([0.7, -1.3, 0.4])
        X = Z + np.sqrt(h) * v
        data = DatasetPair.from_arrays(Z, X, h)
        table = regression_tables(data, 1.0, dictionary, None, _config())
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                want = np.zeros(dictionary.K)
                want[0] = v[i - 1] * v[j - 1]
                np.testing.assert_allclose(table.diffusion[(i, j)], want,
                                           rtol=0, atol=1e-10)

    def test_insufficient_rows(self):
        dictionary = polynomial_dictionary(2, 2)
        Z = np.zeros((3, 2))
        data = DatasetPair.from_arrays(Z, Z + 0.1, 0.25)
        with pytest.raises(InsufficientDataError):
            regression_tables(data, 1.0, dictionary, None, _config())


class TestRegressionOracle:
    def test_matches_dense_lstsq(self):
        rng = np.random.default_rng(10)
        n, h, fraction = 2, 0.001, 0.97
        dictionary = polynomial_dictionary(n, 3)  # K = 10
        M = 4000
        Z = rng.uniform(-2, 2, (M, n))
        X = Z + 0.05 * rng.standard_normal((M, n))
        data = DatasetPair.from_arrays(Z, X, h)
        levy = [StableParams(1.5, -0.5, 0.5), StableParams(0.8, 0.3, 1.2)]
        config = _config(epsilon=1.0, m=5.0, N=1, cube_epsilon=0.5)

        table = regression_tables(data, fraction, dictionary, levy, config)

        A = design_matrix(dictionary, Z)
        scale = fraction / h
        eps = config.cube_half_width
        for i in range(1, n + 1):
            Bi = scale * (X[:, i - 1] - Z[:, i - 1]) - correction_R(
                levy[i - 1], eps)
            c_ref, *_ = np.linalg.lstsq(A, Bi, rcond=None)
            np.testing.assert_allclose(table.drift[i - 1], c_ref,
                                       rtol=1e-8, atol=1e-10)
            resid_ref = np.linalg.norm(A @ c_ref - Bi)
            assert table.drift_residuals[i - 1] == pytest.approx(
                resid_ref, rel=1e-6, abs=1e-9)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                Bij = scale * (X[:, i - 1] - Z[:, i - 1]) * (
                    X[:, j - 1] - Z[:, j - 1]) - correction_S(
                        levy[i - 1], eps, i, j)
                d_ref, *_ = np.linalg.lstsq(A, Bij, rcond=None)
                np.testing.assert_allclose(table.diffusion[(i, j)], d_ref,
                                           rtol=1e-8, atol=1e-10)

    def test_chunked_path_matches_single_chunk(self, monkeypatch):
        # force multiple accumulation chunks and compare against one pass
        rng = np.random.default_rng(12)
        dictionary = polynomial_dictionary(1, 2)
        Z = rng.uniform(0, 5, (3000, 1))
        X = Z + 0.02 * rng.standard_normal((3000, 1))
        data = DatasetPair.from_arrays(Z, X, 0.001)
        config = _config()
        table_one = regression_tables(data, 1.0, dictionary, None, config)
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 256)
        table_many = regression_tables(data, 1.0, dictionary, None, config)
        np.testing.assert_allclose(table_many.drift, table_one.drift,
                                   rtol=1e-12, atol=1e-14)

    @staticmethod
    def _fresh_block_reference(data, fraction, dictionary, levy, eps, block):
        """The regression with a fresh design matrix and target matrix per
        block, the parts summed in block order, then solved."""
        n = data.n
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        scale = fraction / data.h
        G = C = bsq = None
        for start in range(0, data.M, block):
            Z = data.Z[start:start + block]
            D = data.X[start:start + block] - Z
            A = design_matrix(dictionary, Z)
            B = np.empty((len(Z), n + len(pairs)))
            for i in range(n):
                B[:, i] = scale * D[:, i] - correction_R(levy[i], eps)
            for col, (i, j) in enumerate(pairs):
                B[:, n + col] = (scale * D[:, i] * D[:, j]
                                 - correction_S(levy[i], eps, i, j))
            parts = A.T @ A, A.T @ B, (B * B).sum(axis=0)
            if G is None:
                G, C, bsq = parts
            else:
                G, C, bsq = G + parts[0], C + parts[1], bsq + parts[2]
        coef = solve_gram(G, C)
        fit = np.einsum("kt,kl,lt->t", coef, G, coef)
        res = np.sqrt(np.maximum(
            bsq - 2.0 * np.einsum("kt,kt->t", coef, C) + fit, 0.0))
        return coef, res, pairs

    @pytest.mark.parametrize("cache_rows", [16, None])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_reused_buffers_match_fresh_blocks(self, workers, cache_rows,
                                               monkeypatch):
        # 3 full 64-row blocks and a 5-row one: a partial block that read
        # rows a reused buffer kept from a full block would change the sums
        block = 64
        rng = np.random.default_rng(21)
        n, h, fraction = 2, 0.001, 0.9
        M = 3 * block + 5
        Z = rng.uniform(-2, 2, (M, n))
        X = Z + 0.05 * rng.standard_normal((M, n))
        data = DatasetPair.from_arrays(Z, X, h)
        dictionary = polynomial_dictionary(n, 2)
        levy = [StableParams(1.5, -0.5, 0.5), StableParams(0.7, 0.3, 1.2)]
        config = _config(epsilon=1.0, m=5.0, N=1, cube_epsilon=0.5)
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", block)
        if cache_rows is not None:
            monkeypatch.setattr(levysid.simulate, "CACHE_ROWS", cache_rows)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)

        table = regression_tables(data, fraction, dictionary, levy, config)

        coef, res, pairs = self._fresh_block_reference(
            data, fraction, dictionary, levy, config.cube_half_width, block)
        np.testing.assert_array_equal(table.drift, coef[:, :n].T)
        np.testing.assert_array_equal(table.drift_residuals, res[:n])
        for col, (i, j) in enumerate(pairs):
            np.testing.assert_array_equal(table.diffusion[(i + 1, j + 1)],
                                          coef[:, n + col])
            assert table.diffusion_residuals[(i + 1, j + 1)] == res[n + col]

    def test_example2_blocks_match_fresh_blocks(self):
        # the layout contract at K = 19: two full CHUNK_ROWS blocks and a
        # partial one, each filled through the component-major sub-block
        # scratch, give the bits of fresh row-major blocks. A Fortran-order
        # design-matrix block changes the Gram products' bits here
        block = levysid.simulate.CHUNK_ROWS
        M = 2 * block + 1234
        rng = np.random.default_rng(22)
        Z = rng.uniform(0.0, 5.0, (M, 1))
        X = Z + 0.05 * rng.standard_normal((M, 1))
        data = DatasetPair.from_arrays(Z, X, 0.001)
        dictionary = example2_dictionary()
        levy = [StableParams(1.5, -0.5, 0.5)]
        config = _config(epsilon=1.0, m=5.0, N=2, cube_epsilon=0.5)

        table = regression_tables(data, 0.9, dictionary, levy, config)

        coef, res, _ = self._fresh_block_reference(
            data, 0.9, dictionary, levy, config.cube_half_width, block)
        assert table.drift.tobytes() == coef[:, :1].T.tobytes()
        assert table.diffusion[(1, 1)].tobytes() == coef[:, 1].tobytes()
        assert table.drift_residuals.tobytes() == res[:1].tobytes()
        assert table.diffusion_residuals[(1, 1)] == res[1]


class TestRegressionMemory:
    def test_peak_flat_in_worker_count(self, monkeypatch):
        # numpy reports its data allocations to tracemalloc. Four full
        # blocks of lorenz3d's shape (n = 3, poly:2, K = 10): one set of
        # chunk buffers per call keeps 4 workers within one A buffer of 1
        rows = levysid.simulate.CHUNK_ROWS
        rng = np.random.default_rng(13)
        Z = rng.uniform(-2, 2, (4 * rows, 3))
        data = DatasetPair.from_arrays(
            Z, Z + 0.01 * rng.standard_normal(Z.shape), 0.001)
        dictionary = polynomial_dictionary(3, 2)
        levy = [StableParams(1.5, -0.5, 0.5)] * 3
        config = _config(cube_epsilon=0.5)
        peaks = {}
        for workers in (1, 2, 4):
            monkeypatch.setenv("LEVYSID_WORKERS", str(workers))
            tracemalloc.start()
            try:
                regression_tables(data, 1.0, dictionary, levy, config)
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4] - peaks[1] < rows * dictionary.K * 8, peaks

    def test_survivors_read_through_the_file(self, tmp_path, monkeypatch):
        # eight blocks of lorenz3d's shape in a binary file: the filter
        # keeps a mask byte per row, and the regression reads the
        # survivors from the file one sub-block at a time
        rows = 8192
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", rows)
        monkeypatch.setattr(levysid.simulate, "CACHE_ROWS", rows // 4)
        rng = np.random.default_rng(14)
        Z = rng.uniform(-2, 2, (8 * rows, 3))
        path = tmp_path / "pairs.bin"
        write_dataset(DatasetPair.from_arrays(
            Z, Z + 0.2 * rng.standard_normal(Z.shape), 0.001), path)
        source = read_dataset(path)
        dictionary = polynomial_dictionary(3, 2)
        levy = [StableParams(1.5, -0.5, 0.5)] * 3
        tracemalloc.start()
        try:
            kept, fraction = cube_filter(source, 0.5)
            regression_tables(kept, fraction, dictionary, levy,
                              _config(cube_epsilon=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 < fraction < 1.0
        assert peak < kept.M * 2 * 3 * 8


class TestCoefficientTableEvaluation:
    def test_drift_value_evaluates_fit(self):
        dictionary = polynomial_dictionary(1, 1)
        Z = np.linspace(0, 4, 200)[:, None]
        X = Z + 0.25 * (2.0 + 3.0 * Z)  # increments h*(2+3z) with h=0.25
        data = DatasetPair.from_arrays(Z, X, 0.25)
        table = regression_tables(data, 1.0, dictionary, None, _config())
        got = design_matrix(dictionary, np.array([[1.0], [2.0]])) @ table.drift[0]
        np.testing.assert_allclose(got, [5.0, 8.0], rtol=0, atol=1e-9)

    def test_diffusion_value_at_point(self):
        n = 2
        dictionary = polynomial_dictionary(n, 1)
        rng = np.random.default_rng(13)
        Z = rng.uniform(-1, 1, (200, n))
        X = Z + 0.5 * np.array([1.0, -0.5])  # sqrt(h)=0.5 rank-one increments
        data = DatasetPair.from_arrays(Z, X, 0.25)
        table = regression_tables(data, 1.0, dictionary, None, _config())
        point = np.array([[0.3, -0.7]])
        A = design_matrix(dictionary, point)
        a = np.array([[(A @ table.diffusion[min(i, j), max(i, j)])[0]
                       for j in (1, 2)] for i in (1, 2)])
        want = np.outer([1.0, -0.5], [1.0, -0.5])
        np.testing.assert_allclose(a, want, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(a, a.T)


PURE_LEVY_COMBOS = [
    (0.5, -0.5), (0.5, 0.0), (0.5, 0.5),
    (1.0, 0.0),
    (1.5, -0.5), (1.5, 0.0), (1.5, 0.5),
]


class TestScaleConsistency:
    """Full noise-identification chain on pure-jump data, M = 1e7."""

    @pytest.mark.parametrize("alpha,beta", PURE_LEVY_COMBOS)
    def test_error_within_bounds(self, alpha, beta):
        sigma = 1.0
        config = EstimationConfig(0.5, 5.0, 2)
        model = model_from_config({
            "dimension": 1, "drift": ["0"], "gaussian": None,
            "levy": [{"alpha": alpha, "beta": beta, "sigma": sigma}],
        })
        M, h = 10_000_000, 0.001
        for seed in (101, 102, 103):
            data = simulate_pairs(model, np.zeros((M, 1)), h, seed)
            est = estimate_levy(data, config)[0]
            assert abs(est.alpha - alpha) <= 0.08, (
                f"seed {seed}: alpha {est.alpha:.4f} vs {alpha}")
            assert abs(est.beta - beta) <= 0.08, (
                f"seed {seed}: beta {est.beta:.4f} vs {beta}")
            assert abs(est.sigma - sigma) <= 0.08, (
                f"seed {seed}: sigma {est.sigma:.4f} vs {sigma}")

    def test_symmetric_beta_small(self):
        # beta_true = 0 must come back nearly symmetric
        config = EstimationConfig(0.5, 5.0, 2)
        model = model_from_config({
            "dimension": 1, "drift": ["0"], "gaussian": None,
            "levy": [{"alpha": 1.2, "beta": 0.0, "sigma": 1.0}],
        })
        data = simulate_pairs(model, np.zeros((10_000_000, 1)), 0.001, 104)
        est = estimate_levy(data, config)[0]
        assert abs(est.beta) <= 0.05

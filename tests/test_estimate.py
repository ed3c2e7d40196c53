"""Noise identification, cube filtering, and coefficient regression."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levysid.simulate
from levysid import (
    BinCounts,
    ConfigError,
    DomainError,
    EstimationConfig,
    EstimationWarning,
    InsufficientDataError,
    StableParams,
    bin_counts,
    correction_R,
    correction_S,
    cube_filter,
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
from levysid.basis import build_dictionary
from levysid.estimate import load_est_config
from levysid.numeric import solve_gram

from json_values import JSON


def _config(epsilon=1.0, m=5.0, N=1, cube_epsilon=None):
    return EstimationConfig(epsilon, m, N, cube_epsilon)


def _pair_from_increments(dataset, Y, h=0.001):
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    Z = np.zeros_like(Y)
    return dataset(Z, Y, h)


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
    def test_large_width_keeps_all(self, dataset):
        rng = np.random.default_rng(2)
        Z = rng.uniform(-1, 1, (40, 2))
        X = Z + rng.uniform(-0.1, 0.1, (40, 2))
        data = dataset(Z, X, 0.001)
        kept, fraction = cube_filter(data, 1e12)
        assert kept.M == 40 and fraction == 1.0

    def test_single_row_dropped(self, dataset):
        data = dataset(np.zeros((1, 2)), np.array([[0.5, 2.0]]), 0.001)
        with pytest.raises(InsufficientDataError):
            cube_filter(data, 1.0)

    def test_boundary_row_kept(self, dataset):
        # closed cube: max |x - z| = half_width survives
        data = dataset(np.zeros((2, 1)), np.array([[1.0], [1.00001]]), 0.001)
        kept, fraction = cube_filter(data, 1.0)
        assert kept.M == 1
        assert fraction == 0.5
        assert kept.rows(0, 1)[1][0, 0] == 1.0

    def test_order_preserved(self, dataset):
        Z = np.zeros((4, 1))
        X = np.array([[0.1], [5.0], [0.3], [0.2]])
        data = dataset(Z, X, 0.001)
        kept, fraction = cube_filter(data, 1.0)
        np.testing.assert_array_equal(kept.rows(0, 3)[1][:, 0], [0.1, 0.3, 0.2])
        assert fraction == 0.75

    @pytest.mark.parametrize("half_width", [np.nan, np.inf])
    def test_half_width_must_be_positive_and_finite(self, dataset, half_width):
        data = dataset(np.zeros((2, 1)), np.ones((2, 1)), 0.001)
        with pytest.raises(DomainError, match="half_width must be positive and finite"):
            cube_filter(data, half_width)


_SPECS = (st.sampled_from(["poly:0", "poly:2", "poly:999", "poly:-1", "poly:x",
                           "example2", "bogus", ""])
          | st.lists(st.sampled_from(["1", "x1", "x1*x2", "ln(x1)", "x9", "2 +", "1"])
                     | st.text(max_size=8), max_size=4))


@st.composite
def _est_docs(draw):
    """Est-configs with in-range fields, so that some load, and up to three
    fields left out or replaced by any real number or JSON value."""
    doc = draw(st.fixed_dictionaries({
        "epsilon": st.floats(0.01, 5.0), "m": st.floats(1.5, 6.0),
        "N": st.integers(1, 4), "cube_epsilon": st.none() | st.floats(0.1, 2.0),
        "dictionary": _SPECS}))
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=3, unique=True)):
        value = draw(st.none() | st.floats() | st.integers(-1, 1001) | JSON)
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = value
    return doc


class TestEstConfigFuzz:
    @settings(max_examples=300, deadline=None, database=None)
    @given(doc=_est_docs() | JSON, n=st.integers(1, 3))
    @example(doc={"epsilon": 1.0, "m": 5.0, "N": True, "dictionary": "poly:1"}, n=1)
    @example(doc={"epsilon": 1.0, "m": 5.0, "N": 2, "dictionary": ["x1", "x1"]}, n=1)
    def test_loads_or_raises_config_error(self, doc, n):
        # what the CLI does with an est-config document: load it, then build
        # its dictionary for an n-component dataset
        try:
            config, spec = load_est_config(doc)
            dictionary = build_dictionary(spec, n)
        except (ConfigError, DomainError):
            return
        assert isinstance(config, EstimationConfig) and type(config.N) is int
        assert dictionary.n == n and dictionary.K >= 1


class TestBlockwisePasses:
    """estimate_levy and cube_filter read CHUNK_ROWS blocks; the results must
    equal whole-array references for any block size and worker count, from
    a binary and a text dataset file alike."""

    @staticmethod
    def _arrays():
        rng = np.random.default_rng(8)
        Z = rng.uniform(-1.0, 1.0, (500, 3))
        X = Z + 0.3 * rng.standard_cauchy((500, 3))
        return Z, X

    @classmethod
    def _sources(cls, tmp_path, dataset):
        """Z and X, and their rows read from a binary and a text file."""
        Z, X = cls._arrays()
        data = dataset(Z, X, 0.001)
        write_dataset(data, tmp_path / "pairs.csv")
        return (Z, X), (data, read_dataset(tmp_path / "pairs.csv"))

    @pytest.mark.parametrize("workers", ["1", "2", "5"])
    def test_cube_filter_matches_whole_mask(self, monkeypatch, tmp_path, dataset,
                                            workers):
        (Zw, Xw), sources = self._sources(tmp_path, dataset)
        keep = np.max(np.abs(Xw - Zw), axis=1) <= 0.5
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 7)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        for source in sources:
            kept, fraction = cube_filter(source, 0.5)
            assert kept.M == int(keep.sum()) and fraction == keep.sum() / 500
            Z, X = kept.rows(0, kept.M)
            np.testing.assert_array_equal(Z, Zw[keep])
            np.testing.assert_array_equal(X, Xw[keep])

    @pytest.mark.parametrize("workers", ["1", "2", "5"])
    def test_levy_counts_match_whole_increments(self, monkeypatch, tmp_path,
                                                dataset, workers):
        (Z, X), sources = self._sources(tmp_path, dataset)
        config = _config(epsilon=0.2, m=3.0, N=2)
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 7)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        for source in sources:
            for est in estimate_levy(source, config):
                Y = X[:, est.component - 1] - Z[:, est.component - 1]
                want = bin_counts(Y, config, h=0.001)
                np.testing.assert_array_equal(est.counts.pos, want.pos)
                np.testing.assert_array_equal(est.counts.neg, want.neg)
                assert (est.counts.M, est.counts.h) == (500, 0.001)


    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_each_mask_decoded_once_per_pass(self, monkeypatch, tmp_path,
                                             dataset, workers):
        # the regression reads the survivors 50 at a time, most reads
        # across a boundary of the 50-row blocks, and the reads below 4 at
        # a time, several per block; each block's mask is decoded on its
        # first read only, and the reads give the kept rows
        (Z, X), sources = self._sources(tmp_path, dataset)
        keep = np.max(np.abs(X - Z), axis=1) <= 0.5
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 50)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        unpackbits = np.unpackbits
        decoded = []

        def counted(*args, **kwargs):
            decoded.append(1)
            return unpackbits(*args, **kwargs)

        monkeypatch.setattr(np, "unpackbits", counted)
        dictionary = polynomial_dictionary(3, 1)
        for source in sources:
            kept, fraction = cube_filter(source, 0.5)
            assert kept.M > 3 * len(kept.masks)
            decoded.clear()
            regression_tables(kept, fraction, dictionary, None, _config())
            assert len(decoded) == len(kept.masks) == 10
            decoded.clear()
            read = [kept.block(lo, min(lo + 4, kept.M))
                    for lo in range(0, kept.M, 4)]
            assert len(decoded) == 10
            np.testing.assert_array_equal(
                np.concatenate(read), np.hstack([Z, X])[keep])


    def test_threads_share_decoded_masks(self, monkeypatch, dataset):
        # more threads than cores read one Survivors in different orders;
        # the kept (block, indices) pair is replaced whole, so every read
        # gives the kept rows whichever block another thread decoded last
        Z, X = self._arrays()
        data = dataset(Z, X, 0.001)
        keep = np.max(np.abs(X - Z), axis=1) <= 0.5
        want = np.hstack([Z, X])[keep]
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 20)
        kept, _ = cube_filter(data, 0.5)
        errors = []

        def read(offset):
            for lo in range(offset, offset + 3 * kept.M, 7):
                lo %= kept.M
                hi = min(lo + 9, kept.M)
                if not np.array_equal(kept.block(lo, hi), want[lo:hi]):
                    errors.append((lo, hi))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(5 * t,))
                       for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestDimensionalIndependence:
    def test_exact_equality(self, dataset):
        import warnings as w

        rng = np.random.default_rng(5)
        Y = np.concatenate([rng.uniform(-30, 30, 5000), [1.5, -2.0, 7.0]])
        junk = rng.uniform(-100, 100, Y.size)
        config = _config(N=1)
        with w.catch_warnings():
            # uniform values have no stable tail; clamp warnings expected
            w.simplefilter("ignore", EstimationWarning)
            one = estimate_levy(_pair_from_increments(dataset, Y), config)[0]
            stacked = _pair_from_increments(dataset, np.column_stack([Y, junk]))
            two = estimate_levy(stacked, config)[0]
        assert (one.alpha, one.beta, one.sigma) == (two.alpha, two.beta,
                                                    two.sigma)
        np.testing.assert_array_equal(one.counts.pos, two.counts.pos)
        np.testing.assert_array_equal(one.counts.neg, two.counts.neg)


class TestExactRecovery:
    def test_drift_exact(self, dataset):
        # increments are exactly h * (A @ c); h binary so h*v/h round-trips
        rng = np.random.default_rng(7)
        n, h = 2, 0.25
        dictionary = polynomial_dictionary(n, 2)
        Z = rng.uniform(-2, 2, (500, n))
        A = design_matrix(dictionary, Z)
        c_true = np.array([[1.5, -2.0, 0.5, 0.25, 0.0, 1.0],
                           [0.0, 3.0, -1.0, 0.0, 0.5, -0.5]])
        X = Z + h * (A @ c_true.T)
        data = dataset(Z, X, h)
        table = regression_tables(data, 1.0, dictionary, None, _config())
        np.testing.assert_allclose(table.drift, c_true, rtol=0, atol=1e-10)
        # residuals come from the Gram identity c'Gc - 2c'C + |B|^2, whose
        # cancellation floor is sqrt(eps)*|B|, not zero
        for i in range(2):
            floor = 1e-7 * np.linalg.norm(A @ c_true[i])
            assert table.drift_residuals[i] <= floor

    def test_diffusion_exact_rank_one(self, dataset):
        # increments sqrt(h) * v_i make every target a_ij = v_i v_j constant
        n, h = 3, 0.25
        dictionary = polynomial_dictionary(n, 1)
        rng = np.random.default_rng(8)
        Z = rng.uniform(-2, 2, (400, n))
        v = np.array([0.7, -1.3, 0.4])
        X = Z + np.sqrt(h) * v
        data = dataset(Z, X, h)
        table = regression_tables(data, 1.0, dictionary, None, _config())
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                want = np.zeros(dictionary.K)
                want[0] = v[i - 1] * v[j - 1]
                np.testing.assert_allclose(table.diffusion[(i, j)], want,
                                           rtol=0, atol=1e-10)

    def test_insufficient_rows(self, dataset):
        dictionary = polynomial_dictionary(2, 2)
        Z = np.zeros((3, 2))
        data = dataset(Z, Z + 0.1, 0.25)
        with pytest.raises(InsufficientDataError):
            regression_tables(data, 1.0, dictionary, None, _config())


class TestRegressionOracle:
    def test_matches_dense_lstsq(self, dataset):
        rng = np.random.default_rng(10)
        n, h, fraction = 2, 0.001, 0.97
        dictionary = polynomial_dictionary(n, 3)  # K = 10
        M = 4000
        Z = rng.uniform(-2, 2, (M, n))
        X = Z + 0.05 * rng.standard_normal((M, n))
        data = dataset(Z, X, h)
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

    @staticmethod
    def _fresh_rows(data, fraction, dictionary, levy, eps, start, stop):
        """Row-major design matrix A and targets B of rows start..stop-1,
        each made anew, and the diffusion pairs (i, j)."""
        n = data.n
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        scale = fraction / data.h
        Z, X = data.rows(start, min(stop, data.M))
        D = X - Z
        A = design_matrix(dictionary, Z)
        B = np.empty((len(Z), n + len(pairs)))
        for i in range(n):
            B[:, i] = scale * D[:, i] - correction_R(levy[i], eps)
        for col, (i, j) in enumerate(pairs):
            B[:, n + col] = (scale * D[:, i] * D[:, j]
                             - correction_S(levy[i], eps, i, j))
        return A, B, pairs

    @classmethod
    def _fresh_block_reference(cls, data, fraction, dictionary, levy, eps,
                               rows):
        """The regression with a fresh C-order W = [A^T; B^T] per block of
        ``rows`` rows and one W @ W.T of it, the products summed in block
        order, then solved."""
        K = dictionary.K
        total = None
        for start in range(0, data.M, rows):
            A, B, pairs = cls._fresh_rows(data, fraction, dictionary, levy,
                                          eps, start, start + rows)
            W = np.concatenate([A.T, B.T])
            total = W @ W.T if total is None else total + W @ W.T
        G, C, bsq = total[:K, :K], total[:K, K:], np.diagonal(total)[K:]
        coef = solve_gram(G, C)
        fit = np.einsum("kt,kl,lt->t", coef, G, coef)
        res = np.sqrt(np.maximum(
            bsq - 2.0 * np.einsum("kt,kt->t", coef, C) + fit, 0.0))
        return coef, res, pairs

    @staticmethod
    def _assert_table_is(table, coef, res, pairs):
        """Every coefficient and residual of ``table`` has the reference's
        bits."""
        n = table.drift.shape[0]
        assert table.drift.tobytes() == np.ascontiguousarray(
            coef[:, :n].T).tobytes()
        assert table.drift_residuals.tobytes() == res[:n].tobytes()
        for col, (i, j) in enumerate(pairs):
            assert table.diffusion[(i + 1, j + 1)].tobytes() == np.ascontiguousarray(
                coef[:, n + col]).tobytes()
            assert table.diffusion_residuals[(i + 1, j + 1)] == res[n + col]

    @pytest.mark.parametrize("chunk_rows", [16, 24, None])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_reused_buffers_match_fresh_blocks(self, dataset, workers, chunk_rows,
                                               monkeypatch):
        # 197 rows through the cube filter, whose masks are CHUNK_ROWS
        # blocks: the 179 survivors fill 16- or 24-row blocks and a partial
        # one, and a partial block that read columns the reused scratch
        # kept from a full one would change the sums
        rng = np.random.default_rng(21)
        n, h, M = 2, 0.001, 197
        Z = rng.uniform(-2, 2, (M, n))
        X = Z + 0.05 * rng.standard_normal((M, n))
        data = dataset(Z, X, h)
        dictionary = polynomial_dictionary(n, 2)
        levy = [StableParams(1.5, -0.5, 0.5), StableParams(0.7, 0.3, 1.2)]
        config = _config(epsilon=1.0, m=5.0, N=1, cube_epsilon=0.1)
        if chunk_rows is not None:
            monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", chunk_rows)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        keep = np.max(np.abs(X - Z), axis=1) <= config.cube_half_width
        survivors = dataset(Z[keep], X[keep], h)
        want = self._fresh_block_reference(
            survivors, keep.sum() / M, dictionary, levy,
            config.cube_half_width, levysid.simulate.CHUNK_ROWS)
        assert survivors.M % levysid.simulate.CHUNK_ROWS > 0

        kept, fraction = cube_filter(data, config.cube_half_width)
        self._assert_table_is(regression_tables(
            kept, fraction, dictionary, levy, config), *want)

    def test_example2_blocks_match_fresh_blocks(self, dataset, monkeypatch):
        # the layout contract at K = 19: eight full CHUNK_ROWS blocks and a
        # partial one, each filled into the columns of one reused scratch,
        # give the bits of a fresh C-order W per block, at any worker
        # count. Summing the same entries another way, such as A.T @ A of a
        # row-major block, changes the Gram products' last bits here
        rows = levysid.simulate.CHUNK_ROWS
        M = 8 * rows + 1234
        rng = np.random.default_rng(22)
        Z = rng.uniform(0.0, 5.0, (M, 1))
        X = Z + 0.05 * rng.standard_normal((M, 1))
        data = dataset(Z, X, 0.001)
        dictionary = example2_dictionary()
        levy = [StableParams(1.5, -0.5, 0.5)]
        config = _config(epsilon=1.0, m=5.0, N=2, cube_epsilon=0.5)
        want = self._fresh_block_reference(
            data, 0.9, dictionary, levy, config.cube_half_width, rows)

        for workers in ("1", "2"):
            monkeypatch.setenv("LEVYSID_WORKERS", workers)
            self._assert_table_is(regression_tables(
                data, 0.9, dictionary, levy, config), *want)

    @pytest.mark.parametrize("n,dictionary", [
        (1, example2_dictionary()), (3, polynomial_dictionary(3, 2))])
    def test_block_sums_match_row_major_products(self, dataset, n, dictionary,
                                                 monkeypatch):
        # one CHUNK_ROWS block of genereg1d's (K = 19) and lorenz3d's
        # (K = 10) shape: the parts of W @ W.T are the row-major products
        # A.T @ A and A.T @ B and the column sums of B*B, up to rounding
        rows = levysid.simulate.CHUNK_ROWS
        rng = np.random.default_rng(23)
        Z = rng.uniform(0.0, 5.0, (rows, n))
        data = dataset(Z, Z + 0.05 * rng.standard_normal(Z.shape), 0.001)
        levy = [StableParams(1.5, -0.5, 0.5)] * n
        config = _config(epsilon=1.0, m=5.0, N=2, cube_epsilon=0.5)
        seen = {}

        def solve(G, C):
            seen["G"], seen["C"] = G, C
            seen["coef"] = solve_gram(G, C)
            return seen["coef"]

        monkeypatch.setattr(levysid.estimate, "solve_gram", solve)
        table = regression_tables(data, 0.9, dictionary, levy, config)

        A, B, pairs = self._fresh_rows(data, 0.9, dictionary, levy,
                                       config.cube_half_width, 0, rows)
        G, C, coef = seen["G"], seen["C"], seen["coef"]
        res = np.concatenate([table.drift_residuals, [
            table.diffusion_residuals[(i + 1, j + 1)] for i, j in pairs]])
        # the residual is sqrt(bsq - 2 coef.C + coef.G.coef), each term at
        # most 2 bsq here, so bsq comes back to a few units in its last place
        bsq = (res ** 2 + 2.0 * np.einsum("kt,kt->t", coef, C)
               - np.einsum("kt,kl,lt->t", coef, G, coef))
        for got, want in ((G, A.T @ A), (C, A.T @ B), (bsq, (B * B).sum(0))):
            np.testing.assert_allclose(got, want, rtol=1e-12)


class TestRegressionMemory:
    def test_peak_flat_in_worker_count(self, dataset, monkeypatch):
        # numpy reports its data allocations to tracemalloc. Four full
        # blocks of lorenz3d's shape (n = 3, poly:2, K = 10): one set of
        # chunk buffers per call keeps 4 workers within one A buffer of 1
        rows = levysid.simulate.CHUNK_ROWS
        rng = np.random.default_rng(13)
        Z = rng.uniform(-2, 2, (4 * rows, 3))
        data = dataset(Z, Z + 0.01 * rng.standard_normal(Z.shape), 0.001)
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

    def test_survivors_read_through_the_file(self, dataset, monkeypatch):
        # 32 blocks of lorenz3d's shape in a binary file: the filter
        # keeps a mask bit per row, and the regression reads the
        # survivors from the file one block at a time
        rows = 2048
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", rows)
        rng = np.random.default_rng(14)
        Z = rng.uniform(-2, 2, (32 * rows, 3))
        source = dataset(Z, Z + 0.2 * rng.standard_normal(Z.shape), 0.001)
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
    def test_drift_value_evaluates_fit(self, dataset):
        dictionary = polynomial_dictionary(1, 1)
        Z = np.linspace(0, 4, 200)[:, None]
        X = Z + 0.25 * (2.0 + 3.0 * Z)  # increments h*(2+3z) with h=0.25
        data = dataset(Z, X, 0.25)
        table = regression_tables(data, 1.0, dictionary, None, _config())
        got = design_matrix(dictionary, np.array([[1.0], [2.0]])) @ table.drift[0]
        np.testing.assert_allclose(got, [5.0, 8.0], rtol=0, atol=1e-9)

    def test_diffusion_value_at_point(self, dataset):
        n = 2
        dictionary = polynomial_dictionary(n, 1)
        rng = np.random.default_rng(13)
        Z = rng.uniform(-1, 1, (200, n))
        X = Z + 0.5 * np.array([1.0, -0.5])  # sqrt(h)=0.5 rank-one increments
        data = dataset(Z, X, 0.25)
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

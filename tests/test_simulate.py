"""Grid generation and one-step Euler pair simulation."""

import numpy as np
import pytest

from levysid import (
    DatasetPair,
    DomainError,
    GridSizeError,
    RandomStream,
    SimulationError,
    euler_pair_step,
    generate_grid,
    model_from_config,
    builtin_model,
    sample_stable,
    simulate_pairs,
)
import levysid.rng
import levysid.simulate
from levysid.rng import stream_key
from levysid.simulate import map_chunks, row_stream_key

from oracles import ks_two_sample, row_noise_oracle


def _model(dimension, drift, gaussian, levy):
    return model_from_config({
        "dimension": dimension, "drift": drift,
        "gaussian": gaussian, "levy": levy,
    })


class TestGenerateGrid:
    def test_three_by_three(self):
        Z = generate_grid([[-2.0, 2.0], [-2.0, 2.0]], [3, 3])
        assert Z.shape == (9, 2)
        np.testing.assert_array_equal(Z[0], [-2.0, -2.0])
        np.testing.assert_array_equal(Z[4], [0.0, 0.0])
        np.testing.assert_array_equal(Z[8], [2.0, 2.0])

    def test_lexicographic_first_axis_slowest(self):
        Z = generate_grid([[0.0, 1.0], [0.0, 10.0]], [2, 3])
        want = [[0, 0], [0, 5], [0, 10], [1, 0], [1, 5], [1, 10]]
        np.testing.assert_array_equal(Z, want)

    def test_endpoints_inclusive(self):
        Z = generate_grid([[0.0, 5.0]], [11])
        assert Z[0, 0] == 0.0 and Z[-1, 0] == 5.0
        assert Z.shape == (11, 1)

    def test_degenerate_axis_lower_bound(self):
        Z = generate_grid([[0.0, 5.0]], [1])
        np.testing.assert_array_equal(Z, [[0.0]])

    def test_row_cap(self):
        with pytest.raises(GridSizeError):
            generate_grid([[0, 1]] * 3, [10_000, 10_000, 10])

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            generate_grid([[2.0, -2.0]], [5])
        with pytest.raises(DomainError):
            generate_grid([[0.0, 1.0]], [0])
        with pytest.raises(DomainError):
            generate_grid([[0.0, 1.0]], [3, 3])


class TestDatasetPair:
    def test_from_arrays(self):
        Z = np.zeros((4, 2))
        X = np.ones((4, 2))
        d = DatasetPair.from_arrays(Z, X, 0.5)
        assert d.M == 4 and d.n == 2 and d.h == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            DatasetPair.from_arrays(np.zeros((4, 2)), np.ones((3, 2)), 0.5)

    def test_bad_h(self):
        with pytest.raises(DomainError):
            DatasetPair.from_arrays(np.zeros((4, 2)), np.ones((4, 2)), 0.0)

    def test_nonfinite_rejected(self):
        X = np.ones((4, 2))
        X[2, 1] = np.inf
        with pytest.raises(DomainError):
            DatasetPair.from_arrays(np.zeros((4, 2)), X, 0.5)


class TestDeterministicStep:
    def test_linear_decay(self):
        model = _model(1, ["-x1"], None, None)
        x = euler_pair_step(model, [1.0], 0.001, RandomStream.from_seed(0))
        assert x[0] == pytest.approx(0.999, rel=1e-15)

    def test_noise_free_lorenz(self):
        cfg = {"dimension": 3,
               "drift": ["10*(-x1 + x2)", "4*x1 - x2 - x1*x3",
                         "-8/3*x3 + x1*x2"],
               "gaussian": None, "levy": None}
        model = model_from_config(cfg)
        x = euler_pair_step(model, [1.0, 1.0, 1.0], 0.001,
                            RandomStream.from_seed(0))
        assert x[0] == pytest.approx(1.0, abs=0.0)
        assert x[1] == pytest.approx(1.002, rel=1e-12)
        assert x[2] == pytest.approx(0.9983333, abs=5e-8)

    def test_identity_dynamics(self):
        model = _model(2, ["0", "0"], None, None)
        Z = generate_grid([[-1, 1], [-1, 1]], [5, 5])
        data = simulate_pairs(model, Z, 0.001, seed=3)
        np.testing.assert_array_equal(data.X, data.Z)

    def test_pure_drift_rows(self):
        cfg = {"dimension": 3,
               "drift": ["10*(-x1 + x2)", "4*x1 - x2 - x1*x3",
                         "-8/3*x3 + x1*x2"],
               "gaussian": None, "levy": None}
        model = model_from_config(cfg)
        Z = generate_grid([[-2, 2]] * 3, [7, 7, 7])
        h = 0.001
        data = simulate_pairs(model, Z, h, seed=1)
        want = Z + model.drift_at(Z) * h
        np.testing.assert_allclose(data.X, want, rtol=1e-15, atol=0.0)


class TestDeterminism:
    def test_same_seed_identical(self):
        model = builtin_model("lorenz3d")
        Z = generate_grid([[-2, 2]] * 3, [6, 6, 6])
        d1 = simulate_pairs(model, Z, 0.001, seed=7)
        d2 = simulate_pairs(model, Z, 0.001, seed=7)
        assert d1.X.tobytes() == d2.X.tobytes()

    def test_different_seeds_differ(self):
        model = builtin_model("lorenz3d")
        Z = generate_grid([[-2, 2]] * 3, [4, 4, 4])
        d1 = simulate_pairs(model, Z, 0.001, seed=7)
        d2 = simulate_pairs(model, Z, 0.001, seed=8)
        assert d1.X.tobytes() != d2.X.tobytes()

    @pytest.mark.parametrize("workers", ["1", "2", "5"])
    def test_worker_count_invariance(self, workers, monkeypatch):
        model = builtin_model("lorenz3d")
        Z = generate_grid([[-2, 2]] * 3, [9, 9, 9])
        # 729 rows in 100-row blocks, so workers 2 and 5 start the pool
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 100)
        monkeypatch.delenv("LEVYSID_WORKERS", raising=False)
        base = simulate_pairs(model, Z, 0.001, seed=11).X.tobytes()
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        again = simulate_pairs(model, Z, 0.001, seed=11).X.tobytes()
        assert base == again

    def test_row_order_independence(self):
        # each row draws from its own substream: permuting Z permutes X? no,
        # substreams are keyed by row index, so equal rows at equal indices
        # must produce equal outputs regardless of the surrounding rows
        model = builtin_model("genereg1d")
        Z1 = np.linspace(0.0, 5.0, 1000)[:, None]
        Z2 = Z1.copy()
        Z2[500:, 0] = 1.234
        d1 = simulate_pairs(model, Z1, 0.001, seed=5)
        d2 = simulate_pairs(model, Z2, 0.001, seed=5)
        np.testing.assert_array_equal(d1.X[:500], d2.X[:500])


class TestMapChunks:
    @pytest.mark.parametrize("workers", ["1", "2", "5"])
    def test_blocks_in_order_cover_range(self, workers, monkeypatch):
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 7)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        blocks = map_chunks(lambda start, stop: (start, stop), 50)
        assert blocks == [(s, min(s + 7, 50)) for s in range(0, 50, 7)]
        covered = [r for start, stop in blocks for r in range(start, stop)]
        assert covered == list(range(50))


class TestSingleStepMatchesBatch:
    def test_rows_agree(self):
        model = builtin_model("lorenz3d")
        Z = generate_grid([[-2, 2]] * 3, [20, 20, 20])
        h = 0.001
        seed = 13
        data = simulate_pairs(model, Z, h, seed)
        X = np.array([euler_pair_step(model, Z[row], h,
                                      RandomStream(row_stream_key(seed, row)))
                      for row in range(Z.shape[0])])
        np.testing.assert_array_equal(X, data.X)


class TestNoiseDistributions:
    def test_gaussian_covariance(self):
        model = _model(2, ["0", "0"], [["1", "0"], ["0", "1"]], None)
        Z = np.zeros((1_000_000, 2))
        data = simulate_pairs(model, Z, 0.001, seed=21)
        G = (data.X - data.Z) / np.sqrt(0.001)
        cov = np.cov(G.T)
        np.testing.assert_allclose(cov, np.eye(2), atol=0.02, rtol=0)
        np.testing.assert_allclose(G.mean(axis=0), [0.0, 0.0], atol=0.005)

    def test_pure_jump_increments_match_sampler(self):
        levy = [{"alpha": 0.5, "beta": 0.5, "sigma": 2.0},
                {"alpha": 1.0, "beta": 0.0, "sigma": 1.0},
                {"alpha": 1.5, "beta": -0.5, "sigma": 0.5}]
        model = _model(3, ["0", "0", "0"], None, levy)
        M = 1_000_000
        h = 0.001
        data = simulate_pairs(model, np.zeros((M, 3)), h, seed=31)
        for i, p in enumerate(levy):
            scale = p["sigma"] * h ** (1.0 / p["alpha"])
            ref = sample_stable(p["alpha"], p["beta"], scale, M,
                                RandomStream.from_seed(1000 + i))
            ks = ks_two_sample(data.X[:, i] - data.Z[:, i], ref)
            assert ks < 0.003, f"component {i + 1}: KS={ks:.5f}"


class TestGaussianOnlyNoise:
    DRIFT = ["-x1", "x1*x2"]
    GAUSSIAN = [["1 + x2", "0.5"], ["0", "x1"]]

    def test_rows_match_oracle_normals(self):
        model = _model(2, self.DRIFT, self.GAUSSIAN, None)
        Z = np.array([[0.3, -1.2], [1.5, 0.25], [-0.7, 2.0], [0.0, 0.0]])
        h, seed = 0.01, 41
        data = simulate_pairs(model, Z, h, seed)
        base = stream_key(seed, 0)
        for r, (z1, z2) in enumerate(Z):
            # the stable parameters only feed the oracle's unused stable draws
            _, g, _ = row_noise_oracle(base, r, (1.5, 1.5), (0.0, 0.0))
            b = np.array([-z1, z1 * z2])
            lam = np.array([[1.0 + z2, 0.5], [0.0, z1]])
            want = Z[r] + h * b + np.sqrt(h) * (lam @ np.array(g))
            np.testing.assert_allclose(data.X[r], want, rtol=1e-12, atol=0)

    def test_no_stable_draws(self, monkeypatch):
        def fail(*args):
            raise AssertionError("stable draws made without Levy noise")

        monkeypatch.setattr(levysid.rng, "_cms", fail)
        model = _model(2, self.DRIFT, self.GAUSSIAN, None)
        data = simulate_pairs(model, np.ones((10, 2)), 0.001, seed=3)
        x = euler_pair_step(model, [1.0, 1.0], 0.001,
                            RandomStream(row_stream_key(3, 0)))
        np.testing.assert_array_equal(x, data.X[0])


class TestErrors:
    def test_domain_fault_carries_row(self):
        model = _model(1, ["ln(x1)"], None, None)
        Z = np.array([[1.0], [2.0], [-1.0], [3.0]])
        with pytest.raises(SimulationError):
            simulate_pairs(model, Z, 0.001, seed=0)

    def test_empty_points_rejected(self):
        model = builtin_model("genereg1d")
        with pytest.raises(DomainError):
            simulate_pairs(model, np.zeros((0, 1)), 0.001, seed=0)

    def test_wrong_width_rejected(self):
        model = builtin_model("genereg1d")
        with pytest.raises(DomainError):
            simulate_pairs(model, np.zeros((5, 2)), 0.001, seed=0)

    def test_bad_h_rejected(self):
        model = builtin_model("genereg1d")
        with pytest.raises(DomainError):
            simulate_pairs(model, np.zeros((5, 1)), -0.1, seed=0)

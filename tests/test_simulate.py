"""Grid generation and one-step Euler pair simulation."""

import os
import subprocess
import sys

import numpy as np
import pytest

from levysid import (
    ConfigError,
    DatasetPair,
    DomainError,
    EvaluationDomainError,
    GridSizeError,
    SimulationError,
    generate_grid,
    model_from_config,
    builtin_model,
    simulate_pairs,
)
import levysid.rng
import levysid.simulate
from levysid.basis import design_matrix, example2_dictionary, polynomial_dictionary
from levysid.estimate import EstimationConfig, regression_tables
from levysid.rng import stream_key
from levysid.simulate import CHUNK_ROWS, map_chunks, worker_count

from oracles import ks_two_sample, row_noise_oracle
from stable_draws import sample_stable


def _X(data):
    """The stepped states of every row of a simulation, read as
    write_dataset reads them: its blocks, drained through map_chunks."""
    return np.concatenate(list(map_chunks(data.block, data.M)))[:, data.n:]


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
        for mesh in ([11.0], [np.int64(11)]):
            np.testing.assert_array_equal(generate_grid([[0, 5]], mesh), Z)

    def test_degenerate_axis_lower_bound(self):
        Z = generate_grid([[0.0, 5.0]], [1])
        np.testing.assert_array_equal(Z, [[0.0]])

    @pytest.mark.parametrize("bounds,mesh", [
        ([[0.0, 5.0]], [1001]),
        ([[-0.3, 0.7]], [1]),
        ([[-2.0, 2.0], [0.1, 0.9], [-1e-3, 3.7]], [7, 5, 11]),
        ([[-2.0, 2.0], [0.1, 0.9], [-1e-3, 3.7]], [1, 6, 1]),
        ([[0.0, 1.0], [-5.0, 5.0], [2.0, 3.0]], [4, 1, 9]),
    ], ids=["1d", "1d-mesh1", "3d", "3d-mesh1-outer", "3d-mesh1-middle"])
    def test_bytes_match_meshgrid(self, bounds, mesh):
        axes = [np.array([lo]) if m == 1 else np.linspace(lo, hi, m)
                for (lo, hi), m in zip(bounds, mesh)]
        grids = np.meshgrid(*axes, indexing="ij")
        want = np.stack([g.reshape(-1) for g in grids], axis=1)
        Z = generate_grid(bounds, mesh)
        assert Z.dtype == np.float64 and Z.flags.c_contiguous
        assert Z.shape == want.shape
        assert Z.tobytes() == want.tobytes()

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
        for mesh in ([2.5], [True], ["200"], [np.inf], [np.nan]):
            with pytest.raises(DomainError):
                generate_grid([[0.0, 1.0]], mesh)
        for bounds in ([[0.0]], 5, [["0", 1.0]], [[0.0, np.inf]]):
            with pytest.raises(DomainError):
                generate_grid(bounds, [3])


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
        x = _X(simulate_pairs(model, np.array([[1.0]]), 0.001, seed=0))[0]
        assert x[0] == pytest.approx(0.999, rel=1e-15)

    def test_noise_free_lorenz(self):
        cfg = {"dimension": 3,
               "drift": ["10*(-x1 + x2)", "4*x1 - x2 - x1*x3",
                         "-8/3*x3 + x1*x2"],
               "gaussian": None, "levy": None}
        model = model_from_config(cfg)
        data = simulate_pairs(model, np.array([[1.0, 1.0, 1.0]]), 0.001, seed=0)
        x = _X(data)[0]
        assert x[0] == pytest.approx(1.0, abs=0.0)
        assert x[1] == pytest.approx(1.002, rel=1e-12)
        assert x[2] == pytest.approx(0.9983333, abs=5e-8)

    def test_identity_dynamics(self):
        model = _model(2, ["0", "0"], None, None)
        Z = generate_grid([[-1, 1], [-1, 1]], [5, 5])
        data = simulate_pairs(model, Z, 0.001, seed=3)
        np.testing.assert_array_equal(_X(data), Z)

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
        np.testing.assert_allclose(_X(data), want, rtol=1e-15, atol=0.0)


class TestDeterminism:
    def test_same_seed_identical(self):
        model = builtin_model("lorenz3d")
        Z = generate_grid([[-2, 2]] * 3, [6, 6, 6])
        d1 = simulate_pairs(model, Z, 0.001, seed=7)
        d2 = simulate_pairs(model, Z, 0.001, seed=7)
        assert _X(d1).tobytes() == _X(d2).tobytes()

    def test_different_seeds_differ(self):
        model = builtin_model("lorenz3d")
        Z = generate_grid([[-2, 2]] * 3, [4, 4, 4])
        d1 = simulate_pairs(model, Z, 0.001, seed=7)
        d2 = simulate_pairs(model, Z, 0.001, seed=8)
        assert _X(d1).tobytes() != _X(d2).tobytes()

    @pytest.mark.parametrize("workers", ["1", "2", "5"])
    def test_worker_count_invariance(self, workers, monkeypatch):
        model = builtin_model("lorenz3d")
        Z = generate_grid([[-2, 2]] * 3, [9, 9, 9])
        # 729 rows in 100-row blocks, so workers 2 and 5 start the pool
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 100)
        monkeypatch.setenv("LEVYSID_WORKERS", "1")
        base = _X(simulate_pairs(model, Z, 0.001, seed=11)).tobytes()
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        again = _X(simulate_pairs(model, Z, 0.001, seed=11)).tobytes()
        assert base == again

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name,bounds,mesh", [
        ("lorenz3d", [[-2, 2]] * 3, [9, 9, 9]),
        ("genereg1d", [[0, 5]], [729]),
    ])
    def test_cache_sub_block_invariance(self, workers, name, bounds, mesh,
                                        monkeypatch):
        model = builtin_model(name)
        Z = generate_grid(bounds, mesh)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        base = _X(simulate_pairs(model, Z, 0.001, seed=11)).tobytes()
        # 100-row chunks stepped whole, then 7 rows at a time
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 100)
        chunked = _X(simulate_pairs(model, Z, 0.001, seed=11)).tobytes()
        monkeypatch.setattr(levysid.simulate, "CACHE_ROWS", 7)
        sub_blocked = _X(simulate_pairs(model, Z, 0.001, seed=11)).tobytes()
        assert chunked == base
        assert sub_blocked == base

    def test_any_span_reads_the_same_rows(self):
        # every row's stream is keyed by its absolute index, so a read of
        # any span gives those rows of a read of all of them
        model = builtin_model("lorenz3d")
        Z = generate_grid([[-2, 2]] * 3, [9, 9, 9])
        data = simulate_pairs(model, Z, 0.001, seed=11)
        whole = data.block(0, data.M)
        assert data.block(37, 411).tobytes() == whole[37:411].tobytes()
        z, x = data.rows(5, 9)
        assert z.tobytes() == Z[5:9].tobytes()
        assert x.tobytes() == whole[5:9, 3:].tobytes()

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
        np.testing.assert_array_equal(_X(d1)[:500], _X(d2)[:500])


class TestWorkerCount:
    @pytest.fixture
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(levysid.simulate.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)

    @pytest.mark.parametrize("raw", [None, ""], ids=["unset", "empty"])
    def test_default_is_affinity_count(self, three_cpus, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("LEVYSID_WORKERS", raising=False)
        else:
            monkeypatch.setenv("LEVYSID_WORKERS", raw)
        assert worker_count() == 3

    def test_explicit_value_wins(self, three_cpus, monkeypatch):
        monkeypatch.setenv("LEVYSID_WORKERS", "1")
        assert worker_count() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(levysid.simulate.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(levysid.simulate.os, "cpu_count", lambda: 5)
        monkeypatch.delenv("LEVYSID_WORKERS", raising=False)
        assert worker_count() == 5

    @pytest.mark.parametrize("raw", ["two", "0", "-1", "1.5"])
    def test_malformed_value_names_variable(self, monkeypatch, raw):
        monkeypatch.setenv("LEVYSID_WORKERS", raw)
        with pytest.raises(ConfigError, match="LEVYSID_WORKERS"):
            worker_count()
        # map_chunks reads it before it could start a pool, even for one block
        with pytest.raises(ConfigError, match="LEVYSID_WORKERS"):
            map_chunks(lambda start, stop: None, 10)


class TestMapChunks:
    @pytest.mark.parametrize("workers", ["1", "2", "5"])
    def test_blocks_in_order_cover_range(self, workers, monkeypatch):
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 7)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        blocks = list(map_chunks(lambda start, stop: (start, stop), 50))
        assert blocks == [(s, min(s + 7, 50)) for s in range(0, 50, 7)]
        covered = [r for start, stop in blocks for r in range(start, stop)]
        assert covered == list(range(50))

    @pytest.mark.parametrize("workers", ["2", "5"])
    def test_calls_start_at_most_a_window_ahead(self, workers, monkeypatch):
        # while the caller holds result k, at most the workers' calls and
        # one queued call have started beyond it, so a writer holds a few
        # blocks, never all of them
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 1)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        started = []

        def fn(start, stop):
            started.append(start)
            return start

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for taken, start in enumerate(map_chunks(fn, 100)):
                assert start == taken
                assert len(started) <= taken + int(workers) + 1
        finally:
            sys.setswitchinterval(interval)
        assert sorted(started) == list(range(100))


@pytest.fixture
def openblas():
    """(set, get, procs) for the OpenBLAS thread count that map_chunks caps,
    through the same symbols; skips where there are none. The count is
    restored afterwards, and the once-per-process cap forgotten so the next
    map_chunks caps again."""
    import ctypes

    found = levysid.simulate._openblas()
    if found is None:
        pytest.skip("no OpenBLAS thread-count setter found")
    lib, name = found
    setter = getattr(lib, name)
    getter = getattr(lib, name.replace("_set_", "_get_"), None)
    procs = getattr(lib, name.replace("set_num_threads", "get_num_procs"), None)
    if getter is None or procs is None:
        pytest.skip("no OpenBLAS thread-count getter found")
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    getter.restype = procs.restype = ctypes.c_int
    before = getter()
    yield setter, getter, procs
    setter(before)
    levysid.simulate._cap_blas_threads.cache_clear()


class TestBlasThreadCap:
    """map_chunks and regression_tables run OpenBLAS on one thread, so the
    pool is the only parallelism, and the Gram products do not depend on
    the count."""

    @pytest.mark.parametrize("workers", ["1", None])
    def test_one_thread_after_map_chunks(self, openblas, workers, monkeypatch):
        set_threads, get_threads, _ = openblas
        if workers is None:
            monkeypatch.delenv("LEVYSID_WORKERS", raising=False)
        else:
            monkeypatch.setenv("LEVYSID_WORKERS", workers)
        set_threads(2)
        levysid.simulate._cap_blas_threads.cache_clear()
        assert get_threads() == 2
        assert list(map_chunks(lambda start, stop: stop - start, 10)) == [10]
        assert get_threads() == 1

    def test_one_thread_after_regression_tables(self, openblas):
        # a library caller whose first pass is the regression: it starts
        # no pool, but its Gram products still run on one OpenBLAS thread
        set_threads, get_threads, _ = openblas
        Z = np.linspace(0.0, 1.0, 50)[:, None]
        data = DatasetPair.from_arrays(Z, Z + 0.01 * Z ** 2, 0.01)
        set_threads(2)
        levysid.simulate._cap_blas_threads.cache_clear()
        assert get_threads() == 2
        regression_tables(data, 1.0, polynomial_dictionary(1, 2), None,
                          EstimationConfig(1.0, 5.0, 1))
        assert get_threads() == 1

    @pytest.mark.parametrize("missing", ["library", "setter"])
    def test_nothing_found_is_harmless(self, missing, monkeypatch):
        if missing == "library":
            monkeypatch.setattr(levysid.simulate, "_openblas", lambda: None)
        else:  # the real scan, for a name no library exports
            monkeypatch.setattr(levysid.simulate, "BLAS_SETTERS",
                                ("no_such_set_num_threads",))
            assert levysid.simulate._openblas() is None
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 8)
        levysid.simulate._cap_blas_threads.cache_clear()
        try:
            blocks = list(map_chunks(lambda start, stop: (start, stop), 20))
        finally:
            levysid.simulate._cap_blas_threads.cache_clear()
        assert blocks == [(0, 8), (8, 16), (16, 20)]

    def test_gram_products_same_bytes_at_one_thread(self, openblas):
        # one full block of genereg1d's regression: the example2 design
        # matrix and two targets, as regression_tables multiplies them
        set_threads, _, get_procs = openblas
        Z = np.linspace(0.0, 5.0, CHUNK_ROWS)[:, None]
        A = design_matrix(example2_dictionary(), Z)
        B = np.random.default_rng(7).standard_normal((CHUNK_ROWS, 2))
        set_threads(get_procs())
        default = (A.T @ A).tobytes(), (A.T @ B).tobytes()
        set_threads(1)
        assert ((A.T @ A).tobytes(), (A.T @ B).tobytes()) == default


def _threads_after_import(**env):
    """The thread count and OPENBLAS_NUM_THREADS of a new interpreter right
    after ``import levysid``, with the variable removed from this process's
    environment and ``env`` added."""
    env = dict({k: v for k, v in os.environ.items()
                if k != "OPENBLAS_NUM_THREADS"}, **env)
    proc = subprocess.run(
        [sys.executable, "-c", "import os, levysid; print(len(os.listdir("
         "'/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.split()


class TestBlasThreadsAtImport:
    """``import levysid`` before numpy loads OpenBLAS with one thread and
    leaves no OPENBLAS_NUM_THREADS behind; a caller's value wins."""

    @pytest.fixture(autouse=True)
    def _threads_visible(self):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc to count threads in")
        if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("OpenBLAS starts no extra thread on one CPU")
        if levysid.simulate._openblas() is None:
            pytest.skip("no OpenBLAS thread-count setter found")

    def test_one_thread_and_no_variable(self):
        assert _threads_after_import() == ["1", "None"]

    def test_callers_value_wins(self):
        assert _threads_after_import(OPENBLAS_NUM_THREADS="2") == ["2", "2"]


class TestSingleStepMatchesBatch:
    """Each row of a batch is the scalar Euler step of that row alone: the
    full lorenz3d model (einsum path, three stable components) against
    Python arithmetic on the oracle's normals and stable draws."""

    def test_rows_agree(self):
        model = builtin_model("lorenz3d")
        Z = generate_grid([[-2, 2]] * 3, [20, 20, 20])
        h = 0.001
        seed = 13
        X = _X(simulate_pairs(model, Z, h, seed))
        levy = [(0.5, 0.5, 2.0), (1.0, 0.0, 1.0), (1.5, -0.5, 0.5)]
        base = stream_key(seed, 0)
        for r, (x1, x2, x3) in enumerate(Z):
            _, g, s = row_noise_oracle(base, r, [p[0] for p in levy],
                                       [p[1] for p in levy])
            b = [10 * (-x1 + x2), 4 * x1 - x2 - x1 * x3, -8 / 3 * x3 + x1 * x2]
            lam = [[1 + x3, 1, 0], [0, x2, 0], [0, 0, x1]]
            # beta = 0 at alpha = 1, so no component needs the log shift
            want = [Z[r, i] + h * b[i] + np.sqrt(h) * sum(lam[i][j] * g[j] for j in range(3))
                    + sigma * h ** (1 / alpha) * s[i]
                    for i, (alpha, _, sigma) in enumerate(levy)]
            np.testing.assert_allclose(X[r], want, rtol=1e-12, atol=0)


class TestNoiseDistributions:
    def test_gaussian_covariance(self):
        model = _model(2, ["0", "0"], [["1", "0"], ["0", "1"]], None)
        Z = np.zeros((1_000_000, 2))
        G = (_X(simulate_pairs(model, Z, 0.001, seed=21)) - Z) / np.sqrt(0.001)
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
        X = _X(simulate_pairs(model, np.zeros((M, 3)), h, seed=31))
        for i, p in enumerate(levy):
            scale = p["sigma"] * h ** (1.0 / p["alpha"])
            ref = sample_stable(p["alpha"], p["beta"], scale, M,
                                stream_key(1000 + i))
            ks = ks_two_sample(X[:, i], ref)
            assert ks < 0.003, f"component {i + 1}: KS={ks:.5f}"


class TestGaussianOnlyNoise:
    DRIFT = ["-x1", "x1*x2"]
    GAUSSIAN = [["1 + x2", "0.5"], ["0", "x1"]]

    def test_rows_match_oracle_normals(self):
        model = _model(2, self.DRIFT, self.GAUSSIAN, None)
        Z = np.array([[0.3, -1.2], [1.5, 0.25], [-0.7, 2.0], [0.0, 0.0]])
        h, seed = 0.01, 41
        X = _X(simulate_pairs(model, Z, h, seed))
        base = stream_key(seed, 0)
        for r, (z1, z2) in enumerate(Z):
            # the stable parameters only feed the oracle's unused stable draws
            _, g, _ = row_noise_oracle(base, r, (1.5, 1.5), (0.0, 0.0))
            b = np.array([-z1, z1 * z2])
            lam = np.array([[1.0 + z2, 0.5], [0.0, z1]])
            want = Z[r] + h * b + np.sqrt(h) * (lam @ np.array(g))
            np.testing.assert_allclose(X[r], want, rtol=1e-12, atol=0)

    def test_no_stable_draws(self, monkeypatch):
        def fail(*args):
            raise AssertionError("stable draws made without Levy noise")

        monkeypatch.setattr(levysid.rng, "_cms", fail)
        model = _model(2, self.DRIFT, self.GAUSSIAN, None)
        _X(simulate_pairs(model, np.ones((10, 2)), 0.001, seed=3))


class TestPureJumpNoise:
    """Without a Gaussian term no normals are drawn; the jumps read the same
    counters as before, so X is what the full draw gave."""

    DRIFT = ["-x1", "x1*x2"]
    LEVY = [{"alpha": 0.7, "beta": 0.3, "sigma": 1.5},
            {"alpha": 1.0, "beta": -0.5, "sigma": 0.5}]

    def test_rows_match_oracle_without_normals(self, monkeypatch):
        def fail(*args):
            raise AssertionError("normals drawn without a Gaussian term")

        monkeypatch.setattr(levysid.rng, "_box_muller", fail)
        model = _model(2, self.DRIFT, None, self.LEVY)
        Z = np.array([[0.3, -1.2], [1.5, 0.25], [-0.7, 2.0], [0.0, 0.0]])
        h, seed = 0.01, 41
        X = _X(simulate_pairs(model, Z, h, seed))
        alphas = [p["alpha"] for p in self.LEVY]
        betas = [p["beta"] for p in self.LEVY]
        base = stream_key(seed, 0)
        for r, (z1, z2) in enumerate(Z):
            _, _, s = row_noise_oracle(base, r, alphas, betas)
            # S_alpha(sigma h^(1/alpha), beta, 0) from standard draws; the
            # alpha = 1 law also shifts by (2/pi) beta scale ln(scale)
            jump = [1.5 * h ** (1 / 0.7) * s[0],
                    0.5 * (h * s[1] + 2 / np.pi * -0.5 * h * np.log(h))]
            want = Z[r] + h * np.array([-z1, z1 * z2]) + jump
            np.testing.assert_allclose(X[r], want, rtol=1e-12, atol=0)

    def test_zero_gaussian_matches_drawn_normals(self, monkeypatch):
        # an explicit all-zero Lambda skips the normals too, and the bits of
        # X equal those of a Lambda that evaluates to zero with draws made
        model = _model(2, self.DRIFT, [["0", "0"], ["0", "0"]], self.LEVY)
        drawn = _model(2, self.DRIFT, [["0*x1", "0"], ["0", "0"]], self.LEVY)
        assert not model.gaussian_enabled and drawn.gaussian_enabled
        Z = generate_grid([[-2, 2]] * 2, [30, 30])
        want = _X(simulate_pairs(drawn, Z, 0.001, seed=9))
        monkeypatch.setattr(levysid.rng, "_box_muller", None)
        got = _X(simulate_pairs(model, Z, 0.001, seed=9))
        assert got.tobytes() == want.tobytes()


class TestErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_single_step_non_finite_z(self, bad):
        with pytest.raises(DomainError, match="Z entries must all be finite"):
            simulate_pairs(builtin_model("lorenz3d"), np.array([[bad, 0.0, 0.0]]),
                           0.001, seed=1)

    def test_domain_fault_carries_row(self):
        # a coefficient domain fault is the model's, not the step's: it
        # raises EvaluationDomainError, naming the rows of its sub-block
        model = _model(1, ["ln(x1)"], None, None)
        Z = np.array([[1.0], [2.0], [-1.0], [3.0]])
        data = simulate_pairs(model, Z, 0.001, seed=0)
        with pytest.raises(EvaluationDomainError,
                           match=r"coefficient evaluation failed on rows 0\.\.3"):
            data.rows(0, 4)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_state_is_simulation_error(self):
        # finite coefficients whose Euler step overflows: the step fails
        model = _model(1, ["x1"], None, None)
        Z = np.array([[1.0], [1.7e308]])
        data = simulate_pairs(model, Z, 0.5, seed=0)
        with pytest.raises(SimulationError,
                           match="non-finite state at row 1, component 1"):
            data.rows(0, 2)

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

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_non_finite_h_rejected(self, h):
        model = builtin_model("lorenz3d")
        with pytest.raises(DomainError, match="h must be positive and finite"):
            simulate_pairs(model, np.zeros((5, 3)), h, seed=0)

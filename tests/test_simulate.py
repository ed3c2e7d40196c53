"""Grid generation and one-step Euler pair simulation."""

import builtins
import ctypes
import glob
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from levysid import (
    ConfigError,
    DataFormatError,
    DomainError,
    EvaluationDomainError,
    GridSizeError,
    SimulationError,
    generate_grid,
    model_from_config,
    builtin_model,
    read_dataset,
    simulate_pairs,
    write_dataset,
)
import levysid.rng
import levysid.simulate
from levysid.basis import design_matrix, example2_dictionary
from levysid.rng import stream_key
from levysid.simulate import CHUNK_ROWS, Grid, map_chunks, worker_count

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


def _spans(M, chunk):
    """Row slices around the block boundaries at chunk and 2 chunk, one
    row, the last row and two empty slices; a span past M is clipped as an
    array slice clips it."""
    return [(0, M), (chunk - 1, chunk + 1), (chunk - 1, chunk), (chunk, chunk + 1),
            (chunk + 1, 2 * chunk + 1), (chunk - 3, 3 * chunk + 2), (3, 4),
            (M - 1, M), (M, M), (5, 5)]


class TestGrid:
    GRIDS = [
        ([[0.5, 3.0]], [1000]),
        ([[-0.3, 0.7]], [1]),
        ([[-1.0, 2.5], [0.1, 0.9]], [37, 29]),
        ([[-2.0, 2.0], [0.1, 0.9], [-1e-3, 3.7]], [7, 5, 11]),
        ([[-2.0, 2.0], [0.1, 0.9], [-1e-3, 3.7]], [1, 6, 1]),
        ([[0.0, 1.0], [-5.0, 5.0], [2.0, 3.0]], [4, 1, 9]),
    ]
    IDS = ["1d", "1d-mesh1", "2d", "3d", "3d-mesh1-outer", "3d-mesh1-middle"]

    @pytest.mark.parametrize("bounds,mesh", GRIDS, ids=IDS)
    def test_slices_match_generate_grid(self, bounds, mesh, monkeypatch):
        Z = generate_grid(bounds, mesh)
        grid = Grid(bounds, mesh)
        assert (grid.M, grid.n, grid.shape) == (Z.shape[0], Z.shape[1], Z.shape)
        # 16-row slices, as the passes read 16-row CHUNK_ROWS blocks
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 16)
        for lo, hi in _spans(grid.M, levysid.simulate.CHUNK_ROWS):
            rows = grid[lo:hi]
            assert rows.dtype == np.float64 and rows.flags.c_contiguous
            assert rows.shape == Z[lo:hi].shape, (lo, hi)
            assert rows.tobytes() == Z[lo:hi].tobytes(), (lo, hi)

    def test_slices_across_a_full_block(self):
        # 41^3 rows are one full CHUNK_ROWS block and part of another
        bounds, mesh = [[-2.0, 1.0], [0.25, 4.0], [-3.0, -1.5]], [41, 41, 41]
        Z = generate_grid(bounds, mesh)
        grid = Grid(bounds, mesh)
        for lo, hi in _spans(grid.M, CHUNK_ROWS):
            assert grid[lo:hi].tobytes() == Z[lo:hi].tobytes(), (lo, hi)

    @pytest.mark.parametrize("bounds,mesh", [
        ([[0.5, 3.0]], [1]),
        ([[-0.0, 1.0]], [1]),
        ([[0.5, 3.0]], [2]),
        ([[-0.0, 1.0]], [9]),
        ([[-7.3, -0.1]], [1001]),
        ([[-1 / 3, 2 / 7], [1e-300, 3e-300]], [12345, 3]),
        ([[-0.1, 0.7], [-2.0, 5.0], [0.3, 0.31]], [13, 2, 17]),
        ([[0, 5]], [10**6]),
    ], ids=["m1", "m1-negzero", "m2", "negzero", "negative", "odd",
            "3d", "1d-million"])
    def test_rows_match_linspace_meshgrid(self, bounds, mesh):
        # entry i * step + lo, and hi last, are linspace's bits
        axes = [np.array([float(lo)]) if m == 1 else np.linspace(lo, hi, m)
                for (lo, hi), m in zip(bounds, mesh)]
        want = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")],
                        axis=1)
        grid = Grid(bounds, mesh)
        assert grid[0:grid.M].tobytes() == want.tobytes()
        last = [hi if m > 1 else lo for (lo, hi), m in zip(bounds, mesh)]
        assert grid[grid.M - 1:grid.M].tobytes() == np.array(
            [last], dtype=np.float64).tobytes()

    def test_step_must_be_positive_and_finite(self):
        # linspace makes a step that underflows to 0 another way, and one
        # that overflows gives NaN rows; both are refused. One point needs
        # no step
        for bounds in ([[0.0, 5e-324]], [[-1e308, 1e308]]):
            with pytest.raises(DomainError, match="not positive and finite"):
                Grid(bounds, [3])
            assert Grid(bounds, [1])[0:1].tobytes() == np.array(
                [[bounds[0][0]]]).tobytes()
        assert Grid([[0.0, 5e-324]], [2])[0:2].tolist() == [[0.0], [5e-324]]

    def test_checks_its_input(self):
        with pytest.raises(GridSizeError):
            Grid([[0, 1]] * 3, [10_000, 10_000, 10])
        with pytest.raises(DomainError):
            Grid([[2.0, -2.0]], [5])
        with pytest.raises(TypeError):
            Grid([[0.0, 1.0]], [5])[::2]


_TEXT_HEAD = "#levy-sid-pairs v1 n=2 M=4 h=0.5\n"
_BINARY_HEAD = b"LSID" + struct.pack("<BIQd", 1, 2, 4, 0.5)


class TestDatasetPair:
    """Pairs as the tests hold them: the ``dataset`` fixture writes Z beside
    X as a binary file and read_dataset reads it back, so every check on
    them is the reader's, as it is for a file in either encoding."""

    def test_from_arrays(self, dataset):
        Z = np.zeros((4, 2))
        X = np.ones((4, 2))
        d = dataset(Z, X, 0.5)
        assert d.M == 4 and d.n == 2 and d.h == 0.5
        np.testing.assert_array_equal(d.block(0, 4), np.hstack([Z, X]))

    def test_one_dim_arrays_are_one_column(self, dataset):
        d = dataset([1.0, 2.0], [3, 4], 0.5)
        block = d.block(0, 2)
        assert d.n == 1 and block.dtype == np.float64
        np.testing.assert_array_equal(block, [[1.0, 3.0], [2.0, 4.0]])

    def test_shape_mismatch(self, tmp_path):
        # fewer or more text rows than the header promises
        path = tmp_path / "pairs.csv"
        for rows, found in ((3, "3"), (5, "more")):
            path.write_text(_TEXT_HEAD + "0,0,1,1\n" * rows)
            with pytest.raises(DataFormatError, match=f"promises 4 rows, found {found}$"):
                read_dataset(path)

    @pytest.mark.parametrize("body", [
        (_TEXT_HEAD + "0,0,1\n" * 4).encode(),
        _BINARY_HEAD + np.zeros((3, 4)).tobytes(),
        _BINARY_HEAD + np.zeros((4, 4), np.float32).tobytes(),
        _BINARY_HEAD + np.zeros((4, 4, 2)).tobytes(),
        (_TEXT_HEAD + "[0.0, 0.0, 1.0, 1.0]\n" * 4).encode(),
    ], ids=["odd-columns", "short", "float32", "3-d", "list"])
    def test_constructor_shape_rejected(self, tmp_path, body):
        # anything but M rows of 2n float64 values, in either encoding
        path = tmp_path / "pairs"
        path.write_bytes(body)
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_bad_h(self, tmp_path, dataset):
        path = tmp_path / "pairs.csv"
        for h in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DataFormatError, match="h must be positive"):
                dataset(np.zeros((4, 2)), np.ones((4, 2)), h)
            path.write_text(_TEXT_HEAD.replace("0.5", repr(h)) + "0,0,1,1\n" * 4)
            with pytest.raises(DataFormatError, match="h must be positive"):
                read_dataset(path)

    def test_nonfinite_rejected(self, tmp_path, dataset):
        # a binary file's block that holds the value is rejected when it is
        # read, a text file as it is read
        path = tmp_path / "pairs.csv"
        for value in (np.nan, np.inf, -np.inf):
            X = np.ones((4, 2))
            X[2, 1] = value
            d = dataset(np.zeros((4, 2)), X, 0.5)
            d.block(0, 2)
            with pytest.raises(DataFormatError, match="finite"):
                d.block(2, 4)
            path.write_text(_TEXT_HEAD + "0,0,1,1\n" * 3 + f"0,0,1,{value!r}\n")
            with pytest.raises(DataFormatError, match="finite"):
                read_dataset(path)

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_blocks_are_buffers_of_their_own(self, tmp_path, dataset, fmt):
        # a block is the caller's to write into; the next read is unchanged
        pairs = np.arange(40.0).reshape(10, 4)
        d = dataset(pairs[:, :2], pairs[:, 2:], 0.5)
        if fmt == "csv":
            write_dataset(d, tmp_path / "pairs.csv")
            d = read_dataset(tmp_path / "pairs.csv")
        block = d.block(3, 7)
        np.testing.assert_array_equal(block, pairs[3:7])
        block[:] = -1.0
        np.testing.assert_array_equal(d.block(3, 7), pairs[3:7])
        with pytest.raises(DomainError):
            d.block(8, 11)


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
        # 100-row blocks, then 7-row blocks
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 100)
        chunked = _X(simulate_pairs(model, Z, 0.001, seed=11)).tobytes()
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 7)
        small_blocks = _X(simulate_pairs(model, Z, 0.001, seed=11)).tobytes()
        assert chunked == base
        assert small_blocks == base

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("chunk", [None, 100, 7],
                             ids=["default", "chunked", "sub-blocked"])
    @pytest.mark.parametrize("name,bounds,mesh", [
        ("lorenz3d", [[-2, 1.5], [-1, 2], [0.5, 2]], [9, 10, 11]),
        ("genereg1d", [[0.5, 5]], [729]),
    ])
    def test_grid_steps_match_array(self, workers, chunk, name, bounds, mesh,
                                    monkeypatch):
        # a Grid's rows, made block by block, step to the bytes of the
        # array generate_grid builds
        model = builtin_model(name)
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        if chunk is not None:
            monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", chunk)
        want = simulate_pairs(model, generate_grid(bounds, mesh), 0.001, seed=11)
        got = simulate_pairs(model, Grid(bounds, mesh), 0.001, seed=11)
        assert np.hstack(got.rows(0, got.M)).tobytes() == (
            np.hstack(want.rows(0, want.M)).tobytes())
        assert _X(got).tobytes() == _X(want).tobytes()

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_malloc_fixed_before_the_first_call(self, workers):
        # glibc's malloc is fixed before the pass's first call allocates,
        # also on one worker and for a single block, where no pool starts:
        # an 8 MiB buffer comes from the heap, not from a mapping of its own
        out = _after_import(
            "def fn(start, stop):\n"
            "    before = mapped()\n"
            "    ones = np.ones(1 << 20)\n"
            "    return mapped() - before\n"
            "print(*levysid.simulate.map_chunks(fn, 10))\n",
            LEVYSID_WORKERS=workers)
        assert out.split() == ["0"]


class TestGridMemory:
    def test_no_axis_held(self):
        # numpy reports its data allocations to tracemalloc. A 10^6-point
        # axis would be 8 MB; the rows are made from the index instead
        tracemalloc.start()
        try:
            grid = Grid([[0, 5]], [10**6])
            rows = grid[10**6 - 100:10**6]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[-1, 0] == 5.0
        assert peak < 64 * 1024, peak

    def test_peak_flat_in_grid_size(self, tmp_path, monkeypatch):
        # numpy reports its data allocations to tracemalloc. lorenz3d grids
        # of 16 and 64 blocks of 1024 rows: each block's grid rows are made
        # when it is stepped, so the grid's size adds nothing to the peak,
        # where a built grid would add 24 blocks. On one worker the blocks
        # in flight do not depend on thread timing
        rows = 1024
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", rows)
        monkeypatch.setenv("LEVYSID_WORKERS", "1")
        model = builtin_model("lorenz3d")
        peaks = {}
        for blocks in (16, 64):
            path = tmp_path / f"pairs{blocks}.bin"
            tracemalloc.start()
            try:
                write_dataset(simulate_pairs(
                    model, Grid([[-2, 2]] * 3, [blocks * 4, 16, 16]), 0.001,
                    seed=5), path)
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        block = rows * 2 * 3 * 8
        assert abs(peaks[64] - peaks[16]) < 4 * block, (
            {b: p / block for b, p in peaks.items()})


@pytest.fixture
def openblas():
    """(set, get, procs) for the OpenBLAS thread count that levysid caps,
    through the same symbols; skips where there are none. The count is
    restored afterwards."""
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


def _blas_threads_after(code, **env):
    """The OpenBLAS thread count of a new interpreter right after it runs
    ``code``, read through the getter twin of the setter ``_openblas()``
    finds; OPENBLAS_NUM_THREADS is removed from its environment and ``env``
    added."""
    env = dict({k: v for k, v in os.environ.items()
                if k != "OPENBLAS_NUM_THREADS"}, **env)
    read = ("import ctypes, levysid.simulate as s\n"
            "lib, name = s._openblas()\n"
            "get = getattr(lib, name.replace('_set_', '_get_'))\n"
            "get.restype = ctypes.c_int\n"
            "print(get())")
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{read}"], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return int(proc.stdout)


class TestBlasThreadCap:
    """levysid runs OpenBLAS on one thread from the moment ``import
    levysid`` returns, whatever came first, so the pool is the only
    parallelism and the products do not depend on the count OpenBLAS was
    loaded with: on two threads, a long curve's matrix-vector product
    rounds differently than on one."""

    def test_one_thread_after_numpy_then_levysid(self, openblas):
        assert _blas_threads_after("import numpy; import levysid") == 1

    def test_one_thread_with_callers_variable(self, openblas):
        # OpenBLAS loads with two threads, and both stay; it runs on one
        assert _blas_threads_after("import levysid",
                                   OPENBLAS_NUM_THREADS="2") == 1

    @pytest.mark.parametrize("missing", ["library", "setter"])
    def test_nothing_found_is_harmless(self, missing, monkeypatch):
        if missing == "library":
            monkeypatch.setattr(levysid.simulate, "_openblas", lambda: None)
        else:  # the real lookup, for a name numpy's extension cannot resolve
            monkeypatch.setattr(levysid.simulate, "BLAS_SETTERS",
                                ("no_such_set_num_threads",))
            assert levysid.simulate._openblas() is None
        assert levysid.simulate._cap_blas_threads() is None

    def test_found_without_proc(self, openblas, monkeypatch):
        # numpy's extension names its OpenBLAS: no /proc/self/maps to read
        # and no library file found by name takes the setter away
        real_open = builtins.open

        def no_proc(file, *args, **kwargs):
            if str(file).startswith("/proc"):
                raise OSError(f"no {file}")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", no_proc)
        monkeypatch.setattr(glob, "glob", lambda *args, **kwargs: [])
        found = levysid.simulate._openblas()
        assert found is not None
        lib, name = found
        set_threads, _, _ = openblas
        assert name in levysid.simulate.BLAS_SETTERS
        assert (ctypes.cast(getattr(lib, name), ctypes.c_void_p).value
                == ctypes.cast(set_threads, ctypes.c_void_p).value)

    def test_gram_products_same_bytes_at_one_thread(self, openblas):
        # one full block of genereg1d's regression, the example2 design
        # matrix and two targets stacked as the regression's W: for this
        # shape W @ W.T is the same bytes on one thread as on every CPU
        set_threads, _, get_procs = openblas
        Z = np.linspace(0.0, 5.0, CHUNK_ROWS)[:, None]
        B = np.random.default_rng(7).standard_normal((CHUNK_ROWS, 2))
        W = np.concatenate([design_matrix(example2_dictionary(), Z).T, B.T])
        set_threads(get_procs())
        default = (W @ W.T).tobytes()
        set_threads(1)
        assert (W @ W.T).tobytes() == default


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


def _after_import(body, **env):
    """The output of a new interpreter that runs ``body`` right after
    ``import levysid``, with ``env`` added, where ``mapped()`` returns
    glibc's ``mallinfo2().hblkhd``: the bytes malloc has mapped one
    allocation at a time, which glibc's default mmap threshold (128 KiB)
    grows by any 8 MiB buffer. A new interpreter, since glibc raises that
    threshold to the size of each mapped buffer it frees. Skips where libc
    has no mallinfo2."""
    try:
        ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError, TypeError):
        pytest.skip("libc has no mallinfo2")
    code = (
        "import ctypes, levysid, numpy as np\n"
        "class Info(ctypes.Structure):\n"
        "    _fields_ = [(f, ctypes.c_size_t) for f in ('arena', 'ordblks',"
        " 'smblks', 'hblks', 'hblkhd', 'usmblks', 'fsmblks', 'uordblks',"
        " 'fordblks', 'keepcost')]\n"
        "info = ctypes.CDLL(None).mallinfo2\n"
        "info.restype = Info\n"
        "def mapped():\n"
        "    return info().hblkhd\n" + body)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, **env),
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


class TestMallocAtImport:
    def test_block_buffers_come_from_the_heap(self):
        # right after ``import levysid``, before any pass, an 8 MiB buffer
        # comes from the heap: glibc's default mmap threshold (128 KiB)
        # would map it, and mallinfo2's mapped bytes (hblkhd) would grow
        out = _after_import("before = mapped()\n"
                            "ones = np.ones(1 << 20)\n"
                            "print(mapped() - before)\n")
        assert int(out) == 0


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
        # raises EvaluationDomainError, naming the rows of its block
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

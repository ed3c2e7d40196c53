"""Dataset and report serialization."""

import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levysid import (
    BinCounts,
    CoefficientTable,
    DataFormatError,
    DomainError,
    EstimationConfig,
    LevyEstimate,
    Report,
    builtin_model,
    cube_filter,
    polynomial_dictionary,
    read_dataset,
    read_report,
    simulate_pairs,
    write_dataset,
)
import levysid.estimate
import levysid.rng
import levysid.simulate
from levysid.cli import main
from levysid.dataio import DatasetFile
from levysid.estimate import ALPHA_CLAMP
from levysid.simulate import CHUNK_ROWS


def _sample_pair(dataset, M=50, n=3, seed=0):
    rng = np.random.default_rng(seed)
    Z = rng.uniform(-2.0, 2.0, size=(M, n))
    X = Z + 0.01 * rng.standard_normal((M, n))
    return dataset(Z, X, 0.001)


def _arrays(source):
    """Z and X of every row, through the rows() both readers' results share."""
    return source.rows(0, source.M)


class TestCsvFormat:
    def test_round_trip_exact(self, tmp_path, dataset):
        data = _sample_pair(dataset)
        path = tmp_path / "pairs.csv"
        write_dataset(data, path)
        back = read_dataset(path)
        assert back.n == data.n and back.M == data.M and back.h == data.h
        np.testing.assert_array_equal(back.block(0, back.M), data.block(0, data.M))

    def test_header_line(self, tmp_path, dataset):
        data = _sample_pair(dataset, M=7, n=2)
        path = tmp_path / "pairs.csv"
        write_dataset(data, path)
        first = path.read_text().splitlines()[0]
        assert first == "#levy-sid-pairs v1 n=2 M=7 h=0.001"

    def test_row_layout(self, tmp_path, dataset):
        # columns are z_1..z_n then x_1..x_n
        data = _sample_pair(dataset, M=3, n=2)
        path = tmp_path / "pairs.csv"
        write_dataset(data, path)
        row = path.read_text().splitlines()[1].split(",")
        assert len(row) == 4
        Z, X = _arrays(data)
        assert float(row[0]) == Z[0, 0]
        assert float(row[3]) == X[0, 1]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#levy-sid-pairs v1 n=2 M=1 h=0.001\n1.0,2.0,3.0\n")
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#levy-sid-pairs v1 n=1 M=3 h=0.001\n1.0,2.0\n")
        with pytest.raises(DataFormatError):
            read_dataset(path)


class TestBinaryFormat:
    def test_round_trip_exact(self, tmp_path, dataset):
        data = _sample_pair(dataset, M=123, n=4, seed=9)
        path = tmp_path / "pairs.bin"
        write_dataset(data, path)
        back = read_dataset(path)
        assert (back.n, back.M, back.h) == (data.n, data.M, data.h)
        np.testing.assert_array_equal(back.block(0, back.M), data.block(0, data.M))

    def test_magic_bytes(self, tmp_path, dataset):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(dataset, M=2, n=1), path)
        assert path.read_bytes()[:4] == b"LSID"

    def test_truncated_payload_rejected(self, tmp_path, dataset):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(dataset, M=10, n=2), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path, dataset):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(dataset, M=10, n=2), path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(DataFormatError, match="trailing"):
            read_dataset(path)

    def test_bad_version_rejected(self, tmp_path, dataset):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(dataset, M=2, n=1), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version byte
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises((DataFormatError, OSError)):
            read_dataset(tmp_path / "nope.bin")


class TestDatasetFile:
    @pytest.fixture
    def written(self, tmp_path, monkeypatch, dataset):
        """Z and X of 50 three-component rows, and the binary file they
        were written to."""
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 7)
        data = _sample_pair(dataset, M=50, n=3, seed=3)
        path = tmp_path / "pairs.bin"
        write_dataset(data, path)
        return _arrays(data), path

    def test_binary_read_is_a_file_source(self, written):
        _, path = written
        source = read_dataset(path)
        assert isinstance(source, DatasetFile)
        assert (source.n, source.M, source.h) == (3, 50, 0.001)

    @pytest.mark.parametrize("start,stop", [(0, 7), (7, 14), (49, 50), (3, 40), (0, 50)])
    def test_rows_match_written(self, written, start, stop):
        (Zw, Xw), path = written
        Z, X = read_dataset(path).rows(start, stop)
        np.testing.assert_array_equal(Z, Zw[start:stop])
        np.testing.assert_array_equal(X, Xw[start:stop])

    def test_rows_check_again_after_read(self, written):
        _, path = written
        source = read_dataset(path)
        # row 30, column 2 turns NaN after the file has been validated
        with open(path, "r+b") as fh:
            fh.seek(25 + 8 * (30 * 6 + 2))
            fh.write(struct.pack("<d", float("nan")))
        with pytest.raises(DataFormatError, match="finite"):
            source.rows(28, 35)
        source.rows(0, 28)

    def test_rows_of_a_shrunk_file(self, written):
        # the file is cut short after it was opened; the open file it holds
        # is the one that shrank
        _, path = written
        source = read_dataset(path)
        path.write_bytes(path.read_bytes()[:-48])
        with pytest.raises(DataFormatError, match="ends inside"):
            source.rows(42, 50)
        source.rows(0, 42)

    def test_non_positive_h_rejected(self, tmp_path):
        path = tmp_path / "pairs.bin"
        for h in (0.0, -1.0, float("nan"), float("inf")):
            path.write_bytes(b"LSID" + struct.pack("<BIQd", 1, 1, 1, h)
                             + struct.pack("<2d", 0.0, 0.0))
            with pytest.raises(DataFormatError, match="h must be positive"):
                read_dataset(path)


class TestRowRanges:
    """Every row-block source reads rows start..stop-1 only for
    0 <= start <= stop <= M, and raises one DomainError otherwise."""

    @pytest.fixture(params=["pair", "simulation", "file", "survivors"])
    def source(self, request, tmp_path, dataset):
        data = _sample_pair(dataset, M=50, n=3, seed=3)
        if request.param == "pair":
            # the same rows read from a text file
            write_dataset(data, tmp_path / "pairs.csv")
            return read_dataset(tmp_path / "pairs.csv")
        if request.param == "simulation":
            return simulate_pairs(builtin_model("lorenz3d"), _arrays(data)[0], 0.001, 1)
        write_dataset(data, tmp_path / "pairs.bin")
        source = read_dataset(tmp_path / "pairs.bin")
        # every increment is far inside the cube, so all 50 rows survive
        return cube_filter(source, 1.0)[0] if request.param == "survivors" else source

    @pytest.mark.parametrize("start,stop", [(0, 55), (-5, 3), (10, 5), (51, 52)])
    def test_outside_rows_raise(self, source, start, stop):
        assert source.M == 50
        for read in (source.block, source.rows):
            with pytest.raises(DomainError, match=rf"^rows {start}\.\.{stop - 1} "
                               r"are not a range of the 50 rows 0\.\.49$"):
                read(start, stop)

    @pytest.mark.parametrize("start,stop", [(0, 50), (50, 50), (7, 7)])
    def test_edge_ranges_read(self, source, start, stop):
        assert source.block(start, stop).shape == (stop - start, 6)


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestMalformedFuzz:
    """Damaged copies of valid files never read back as data."""

    @pytest.fixture
    def blob(self, tmp_path, dataset):
        def make(fmt):
            path = tmp_path / f"good.{fmt}"
            write_dataset(_sample_pair(dataset, M=20, n=2, seed=6), path)
            return path.read_bytes()
        return make

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.integers(0, 25 + 20 * 4 * 8 - 1))
    def test_truncated_binary(self, tmp_path, blob, cut):
        path = tmp_path / "cut.bin"
        path.write_bytes(blob("bin")[:cut])
        with pytest.raises(DataFormatError):
            read_dataset(path)

    @settings(max_examples=30, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(extra=st.binary(min_size=1, max_size=24))
    def test_trailing_binary(self, tmp_path, blob, extra):
        path = tmp_path / "long.bin"
        path.write_bytes(blob("bin") + extra)
        with pytest.raises(DataFormatError, match="trailing"):
            read_dataset(path)

    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(index=st.integers(0, 20 * 4 - 1), value=st.sampled_from(_NON_FINITE))
    def test_non_finite_binary(self, tmp_path, blob, index, value):
        # read_dataset reads only the header and the size; the rows() call
        # of the block that holds the value rejects it, and no other does
        blob = bytearray(blob("bin"))
        blob[25 + 8 * index:33 + 8 * index] = struct.pack("<d", value)
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(blob))
        source = read_dataset(path)
        for start in range(0, 20, 6):
            stop = min(start + 6, 20)
            if start <= index // 4 < stop:
                with pytest.raises(DataFormatError, match="finite"):
                    source.rows(start, stop)
            else:
                source.rows(start, stop)

    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_csv_row(self, tmp_path, blob, data):
        lines = blob("csv").decode("ascii").splitlines()
        row = data.draw(st.integers(1, len(lines) - 1))
        values = lines[row].split(",")
        damage = data.draw(st.sampled_from(
            ["drop-row", "drop-value", "extra-value", "non-finite", "garbage"]))
        if damage == "drop-row":
            del lines[row]
        elif damage == "drop-value":
            del values[data.draw(st.integers(0, len(values) - 1))]
            lines[row] = ",".join(values)
        elif damage == "extra-value":
            lines[row] = ",".join(values + ["1.0"])
        elif damage == "non-finite":
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
                st.sampled_from(["nan", "inf", "-inf"]))
            lines[row] = ",".join(values)
        else:
            lines[row] = data.draw(st.sampled_from(["x", "1.0,,2", "\u00e9"]))
        path = tmp_path / "bad.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        with pytest.raises(DataFormatError):
            read_dataset(path)


def _reference_bytes(data, fmt):
    """The whole-payload encodings the chunked writer must reproduce."""
    payload = data.block(0, data.M)
    if fmt == "csv":
        lines = [f"#levy-sid-pairs v1 n={data.n} M={data.M} h={data.h!r}"]
        lines += [",".join(repr(v) for v in row) for row in payload.tolist()]
        return ("\n".join(lines) + "\n").encode("ascii")
    head = b"LSID" + struct.pack("<BIQd", 1, data.n, data.M, data.h)
    return head + payload.astype("<f8").tobytes()


class TestChunkedWriter:
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_across_chunk_boundary(self, tmp_path, dataset, fmt):
        data = _sample_pair(dataset, M=CHUNK_ROWS + 5, n=2, seed=4)
        path = tmp_path / f"pairs.{fmt}"
        write_dataset(data, path)
        assert path.read_bytes() == _reference_bytes(data, fmt)
        back = read_dataset(path)
        assert (back.n, back.M, back.h) == (data.n, data.M, data.h)
        np.testing.assert_array_equal(back.block(0, back.M), data.block(0, data.M))

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failing_block_leaves_no_file(self, tmp_path, dataset, fmt, existing):
        data = _sample_pair(dataset, M=CHUNK_ROWS + 5, n=2, seed=4)

        class FailsInSecondBlock:
            n, M, h = data.n, data.M, data.h

            def block(self, start, stop):
                if start > 0:
                    raise DataFormatError("block failed")
                return data.block(start, stop)

        path = tmp_path / f"pairs.{fmt}"
        if existing:
            path.write_bytes(b"earlier file")
        with pytest.raises(DataFormatError, match="block failed"):
            write_dataset(FailsInSecondBlock(), path)
        # no temporary file is left next to the target either
        assert [p.name for p in tmp_path.iterdir()] == (
            [path.name] if existing else [])
        if existing:
            assert path.read_bytes() == b"earlier file"


class TestStreamedSimulation:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_writer_holds_a_few_blocks(self, tmp_path, monkeypatch, workers):
        # numpy reports its data allocations to tracemalloc. 96 blocks of
        # lorenz3d, whose states alone are 48 blocks of pairs: the writer
        # holds the blocks in flight, and each worker the block it steps
        # and its step's temporaries
        rows = 1024
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", rows)
        monkeypatch.setenv("LEVYSID_WORKERS", str(workers))
        Z = np.random.default_rng(3).uniform(-2.0, 2.0, (96 * rows, 3))
        data = simulate_pairs(builtin_model("lorenz3d"), Z, 0.001, seed=5)
        tracemalloc.start()
        try:
            write_dataset(data, tmp_path / "pairs.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = rows * 2 * 3 * 8
        assert peak < 4 * (3 * workers + 2) * block, peak / block


class TestInPlaceWriter:
    """Binary rows are written at their own offsets by the calls that read
    them. The 1037 rows are no multiple of the 30-row blocks, so the last
    block is a short one."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 30)

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_bytes_equal_across_workers(self, tmp_path, monkeypatch, dataset,
                                        small_blocks, workers):
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        data = _sample_pair(dataset, M=1037, n=2, seed=6)
        write_dataset(data, tmp_path / "pairs.bin")
        assert (tmp_path / "pairs.bin").read_bytes() == _reference_bytes(data, "bin")
        # a simulation's rows are stepped by the call that writes them
        Z = np.random.default_rng(2).uniform(-2.0, 2.0, (1037, 3))
        sim = simulate_pairs(builtin_model("lorenz3d"), Z, 0.001, seed=3)
        write_dataset(sim, tmp_path / "sim.bin")
        assert (tmp_path / "sim.bin").read_bytes() == _reference_bytes(sim, "bin")

    def test_short_write_is_retried(self, tmp_path, monkeypatch, dataset,
                                    small_blocks):
        monkeypatch.setenv("LEVYSID_WORKERS", "1")
        data = _sample_pair(dataset, M=1037, n=2, seed=6)
        pwrite = os.pwrite
        shorts = []

        def short_once(fd, buf, offset):
            # the first block after the header is written in part
            if not shorts and offset > 0:
                shorts.append(offset)
                return pwrite(fd, memoryview(buf)[:len(buf) // 3], offset)
            return pwrite(fd, buf, offset)

        monkeypatch.setattr(os, "pwrite", short_once)
        write_dataset(data, tmp_path / "pairs.bin")
        assert len(shorts) == 1
        assert (tmp_path / "pairs.bin").read_bytes() == _reference_bytes(data, "bin")

    @pytest.mark.parametrize("workers", ["1", "3"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_block_failing_mid_file_leaves_no_file(self, tmp_path, monkeypatch, dataset,
                                                  small_blocks, workers, existing):
        monkeypatch.setenv("LEVYSID_WORKERS", workers)
        data = _sample_pair(dataset, M=1037, n=2, seed=6)

        class FailsMidFile:
            n, M, h = data.n, data.M, data.h

            def block(self, start, stop):
                if start <= 520 < stop:
                    raise DataFormatError("block failed")
                return data.block(start, stop)

        # an existing target, or one in directories that do not exist yet
        path = tmp_path / ("pairs.bin" if existing else "new/dir/pairs.bin")
        if existing:
            path.write_bytes(b"earlier file")
        with pytest.raises(DataFormatError, match="block failed"):
            write_dataset(FailsMidFile(), path)
        assert [p.name for p in tmp_path.iterdir()] == (
            [path.name] if existing else [])
        if existing:
            assert path.read_bytes() == b"earlier file"


def _peak(fn, *args):
    """The tracemalloc peak of one call, in bytes; numpy reports its data
    allocations to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneSubBlockPerPass:
    """On one worker every pass holds the one CHUNK_ROWS block it reads and
    its temporaries, never four blocks of rows."""

    ROWS = 1024
    BLOCK = ROWS * 2 * 3 * 8   # one CHUNK_ROWS block of lorenz3d rows

    @pytest.fixture
    def simulation(self, monkeypatch):
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", self.ROWS)
        monkeypatch.setenv("LEVYSID_WORKERS", "1")
        # 96 blocks of grid rows, made as they are stepped
        grid = levysid.simulate.Grid([[-2, 2]] * 3, [24 * 16, 16, 16])
        return simulate_pairs(builtin_model("lorenz3d"), grid, 0.001, seed=5)

    def test_sub_block_step(self, simulation):
        # a block's grid rows, its x scratch, its step's temporaries and
        # then its (rows, 2n) array read 4.3 blocks, and the step alone
        # 3.1; with the (rows, 2n) array held through the step they read
        # 5.3 and 3.1, and with the noise drawn out of place, Lambda copied
        # to row-major and the drift, normals and stable draws all held at
        # once 7.8 and 5.6
        rows = self.ROWS
        block = _peak(simulation.block, 0, rows)
        Z, X = simulation.Z[0:rows], np.empty((rows, 3))
        keys = levysid.rng.row_keys(simulation.key, 0, rows)
        step = _peak(levysid.simulate._step_block, simulation.model, Z,
                     simulation.h, keys, X, 0)
        assert block < 6 * self.BLOCK, block / self.BLOCK
        assert step < 3.5 * self.BLOCK, step / self.BLOCK

    def test_simulated_write(self, tmp_path, simulation):
        # the writer adds about two thirds of a block to what stepping one
        # block alone holds, where holding a stepped block would add one
        # block and its writer's queue more
        one = _peak(simulation.block, 0, self.ROWS)
        peak = _peak(write_dataset, simulation, tmp_path / "pairs.bin")
        assert peak < one + 0.75 * self.BLOCK, ((peak - one) / self.BLOCK)

    def test_estimate_passes(self, tmp_path, simulation):
        write_dataset(simulation, tmp_path / "pairs.bin")
        data = read_dataset(tmp_path / "pairs.bin")
        config = EstimationConfig(epsilon=0.2, m=3.0, N=2)
        for peak in (_peak(levysid.estimate.estimate_levy, data, config),
                     _peak(cube_filter, data, 0.5)):
            assert peak < 4 * self.BLOCK, peak / self.BLOCK

    def test_survivor_masks_are_bits(self, tmp_path, monkeypatch, dataset):
        # the last block has 13 rows, 2 mask bytes
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 100)
        data = _sample_pair(dataset, M=313, n=2, seed=6)
        kept, _ = cube_filter(data, 0.02)
        assert [bits.nbytes for bits in kept.masks] == [13, 13, 13, 2]
        Zw, Xw = _arrays(data)
        keep = np.max(np.abs(Xw - Zw), axis=1) <= 0.02
        assert 0 < kept.M < data.M
        Z, X = _arrays(kept)
        np.testing.assert_array_equal(Z, Zw[keep])
        np.testing.assert_array_equal(X, Xw[keep])


class TestTextHeldOnce:
    def test_read_peaks_below_one_and_a_half_pairs(self, tmp_path):
        # 2^18 lorenz3d rows, 16 blocks, parsed one block at a time into a
        # temporary file: the read holds one parsed block and the parser's
        # buffers, never the pairs (TestTextInBlocks bounds it by rows)
        grid = levysid.simulate.Grid([[-2, 2]] * 3, [64] * 3)
        path = tmp_path / "pairs.csv"
        write_dataset(simulate_pairs(builtin_model("lorenz3d"), grid, 0.001, seed=4),
                      path)
        pairs = grid.M * 2 * 3 * 8
        peak = _peak(read_dataset, path)
        assert peak < 1.5 * pairs, peak / pairs


class TestTextInBlocks:
    def test_estimate_peak_flat_in_rows(self, tmp_path, monkeypatch):
        # lorenz3d text datasets of 4 and of 16 blocks: the rows are parsed
        # a block at a time into a temporary file, so reading either holds
        # one parsed block and the parser's buffers (2.8-3.1 blocks), never
        # the pairs, and estimating the longer one holds less than one
        # block more
        rows = 1024
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", rows)
        monkeypatch.setenv("LEVYSID_WORKERS", "1")
        est = tmp_path / "est.json"
        est.write_text(json.dumps({"epsilon": 0.02, "m": 3.0, "N": 2,
                                   "cube_epsilon": 0.5, "dictionary": "poly:2"}))
        reads, peaks = [], []
        for blocks in (4, 16):
            grid = levysid.simulate.Grid([[-2, 2]] * 3, [blocks * 16, 8, 8])
            path = tmp_path / f"pairs{blocks}.csv"
            write_dataset(simulate_pairs(builtin_model("lorenz3d"), grid, 0.001,
                                         seed=4), path)
            reads.append(_peak(read_dataset, path))
            peaks.append(_peak(main, ["estimate", str(path), "--est-config", str(est),
                                      "--report", str(tmp_path / "r.json")]))
        block = rows * 2 * 3 * 8
        assert max(reads) < 4 * block, [r / block for r in reads]
        assert abs(peaks[1] - peaks[0]) < block, [p / block for p in peaks]


# text rows as a writer might damage them: numbers, non-finite and malformed
# tokens, empty fields and comments, with any separator and line end
_TOKENS = st.sampled_from(["0.5", "-1e3", "7", "+.25", "nan", "inf", "-inf",
                           "1e999", "", " ", "x", "0x1p3", "1_0", "1,5", "#"])


@st.composite
def _text_datasets(draw):
    """(n, M, text after the header): rows of such tokens or of 2n finite
    floats, or any text."""
    n, M = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    row = st.lists(_TOKENS, max_size=5) | st.lists(floats, min_size=2 * n,
                                                   max_size=2 * n)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    rows = st.lists(row.map(",".join), max_size=4).map(lambda r: end.join(r) + end)
    return n, M, draw(rows | st.text(st.characters(blacklist_categories=("Cs",)),
                                     max_size=30))


class TestTextFuzz:
    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_text_datasets())
    def test_loads_or_exits_3(self, tmp_path, capsys, doc):
        # any text after a header reads as a dataset or raises
        # DataFormatError, and estimate on a file that raises exits 3 with
        # one error line and no report
        n, M, body = doc
        path = tmp_path / "fuzz.csv"
        path.write_bytes(f"#levy-sid-pairs v1 n={n} M={M} h=0.001\n{body}".encode())
        try:
            data = read_dataset(path)
        except DataFormatError:
            est = tmp_path / "est.json"
            est.write_text(json.dumps({"epsilon": 1.0, "m": 5.0, "N": 1,
                                       "dictionary": "poly:1"}))
            report = tmp_path / "r.json"
            capsys.readouterr()
            assert main(["estimate", str(path), "--est-config", str(est),
                         "--report", str(report)]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error category=data: ")
            assert not report.exists()
            return
        assert isinstance(data, DatasetFile) and (data.n, data.M) == (n, M)
        assert np.isfinite(data.block(0, M)).all()


# -0.0, subnormals, and the neighbours of 1e16 and 1e-4, where repr switches
# between positional and exponent notation
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.225073858507201e-308, 1e16,
                9999999999999998.0, 1.0000000000000002e16, 1e-4,
                9.999999999999999e-05, 0.00010000000000000002]


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 3))
    M = draw(st.integers(1, 6))
    value = st.one_of(st.sampled_from(_EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    flat = draw(st.lists(value, min_size=2 * n * M, max_size=2 * n * M))
    return np.array(flat, dtype=np.float64).reshape(M, 2 * n)


class TestRoundTripProperty:
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=_datasets())
    def test_bitwise_round_trip(self, tmp_path, dataset, fmt, rows):
        n = rows.shape[1] // 2
        data = dataset(rows[:, :n], rows[:, n:], 0.001)
        path = tmp_path / f"pairs.{fmt}"
        write_dataset(data, path)
        assert path.read_bytes() == _reference_bytes(data, fmt)
        back = read_dataset(path)
        assert (back.n, back.M, back.h) == (data.n, data.M, data.h)
        np.testing.assert_array_equal(back.block(0, back.M).view(np.uint64),
                                      rows.view(np.uint64))


class TestDefaultFormat:
    @pytest.mark.parametrize("name,magic", [
        ("pairs.csv", b"#levy-sid-pairs"), ("pairs.bin", b"LSID"),
        ("pairs", b"LSID"), ("pairs.txt", b"LSID"), ("pairs.CSV", b"LSID"),
        ("pairs.csv.bin", b"LSID"), (".csv", b"LSID"),
    ])
    def test_suffix_picks_encoding(self, tmp_path, dataset, name, magic):
        data = _sample_pair(dataset, M=3, n=2)
        write_dataset(data, tmp_path / name)
        assert (tmp_path / name).read_bytes().startswith(magic)
        back = read_dataset(tmp_path / name)
        np.testing.assert_array_equal(back.block(0, 3), data.block(0, 3))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _reports(draw):
    """Reports of 1 to 3 components; sigma may be inf, as estimate_sigma
    gives it when a clamped alpha overflows, cube_epsilon None and the seed
    absent."""
    n, N, M = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 10**12))
    h = draw(st.floats(1e-9, 1e3))
    config = EstimationConfig(draw(st.floats(1e-6, 1e3)), draw(st.floats(1.001, 1e3)), N,
                              draw(st.none() | st.floats(1e-6, 1e3)))
    dictionary = polynomial_dictionary(n, draw(st.integers(0, 2)))

    def vector(size, values=_FINITE):
        return np.array(draw(st.lists(values, min_size=size, max_size=size)))

    levy = tuple(
        LevyEstimate(i, draw(st.floats(1e-9, 2 - 1e-9)), draw(st.floats(-1, 1)),
                     draw(st.floats(0, 1e300) | st.just(math.inf)),
                     BinCounts(vector(N + 1, st.integers(0, M)),
                               vector(N + 1, st.integers(0, M)), M, h))
        for i in range(1, n + 1))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    table = CoefficientTable(
        dictionary, draw(st.floats(0, 1, exclude_min=True)),
        np.array([vector(dictionary.K) for _ in range(n)]),
        {p: vector(dictionary.K) for p in pairs}, vector(n, st.floats(0, 1e300)),
        {p: draw(st.floats(0, 1e300)) for p in pairs})
    return Report(n, M, h, config, draw(st.sampled_from([f"poly:{n}", "custom"])),
                  levy, table, tuple(draw(st.lists(st.text(), max_size=3))),
                  draw(st.none() | st.integers()))


def _report_doc(**levy):
    """A valid 1-D poly:1 report as a JSON document, with its one levy
    entry's fields replaced by ``levy``."""
    counts = BinCounts(np.array([5, 2, 1]), np.array([4, 1, 0]), 100, 0.01)
    table = CoefficientTable(polynomial_dictionary(1, 1), 0.9, np.array([[0.1, -1.0]]),
                             {(1, 1): np.array([1.0, 0.0])}, np.array([0.2]),
                             {(1, 1): 0.3})
    report = Report(1, 100, 0.01, EstimationConfig(1.0, 5.0, 2), "poly:1",
                    (LevyEstimate(1, 1.5, -0.5, 0.5, counts),), table, ())
    doc = json.loads(report.to_json())
    doc["levy"][0].update(levy)
    return doc


# one value per field that estimate never writes
_OUT_OF_RANGE = {
    "alpha-above-clamp": lambda doc: doc["levy"][0].update(alpha=2.0),
    "alpha-below-clamp": lambda doc: doc["levy"][0].update(alpha=0.0),
    "beta": lambda doc: doc["levy"][0].update(beta=1.5),
    "sigma": lambda doc: doc["levy"][0].update(sigma=-1.0),
    "survival_fraction-zero": lambda doc: doc.update(survival_fraction=0.0),
    "survival_fraction-above-one": lambda doc: doc.update(survival_fraction=7.5),
    "drift_residuals": lambda doc: doc.update(drift_residuals=[-0.2]),
    "diffusion residuals": lambda doc: doc["diffusion"][0].update(residual=-0.3),
}


class TestReports:
    @pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
    def test_out_of_range_rejected(self, tmp_path, capsys, case):
        doc = _report_doc()
        _OUT_OF_RANGE[case](doc)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        field = case.split("-")[0]
        with pytest.raises(DataFormatError, match=field):
            read_report(path)
        out = tmp_path / "curve.csv"
        assert main(["plot-data", "--report", str(path), "--component", "b1",
                     "--range", "0:1:0.5", "--out", str(out)]) == 3
        assert "error category=data" in capsys.readouterr().err
        assert not out.exists()

    def test_range_edges_accepted(self):
        # a clamped alpha, and the sigma it can underflow to
        doc = _report_doc(alpha=ALPHA_CLAMP, sigma=0.0)
        doc.update(survival_fraction=1.0, drift_residuals=[0.0])
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert Report.from_json(text).to_json() == text
        doc["levy"][0].update(alpha=2.0 - ALPHA_CLAMP, sigma=math.inf)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert Report.from_json(text).to_json() == text


    @settings(max_examples=60, deadline=None)
    @given(report=_reports())
    def test_round_trip_byte_identical(self, report):
        text = report.to_json()
        assert Report.from_json(text).to_json() == text

    @settings(max_examples=30, deadline=None)
    @given(report=_reports())
    def test_canonical_json_sorts_keys(self, report):
        # canonical text: sorted keys, two-space indent, trailing newline
        text = report.to_json()
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
        keys = list(json.loads(text))
        assert keys == sorted(keys)
        assert text.index('"dataset"') < text.index('"levy"')

    def test_malformed_report_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            read_report(path)

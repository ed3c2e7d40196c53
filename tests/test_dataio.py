"""Dataset and report serialization."""

import json
import math
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
    DatasetPair,
    EstimationConfig,
    LevyEstimate,
    Report,
    builtin_model,
    polynomial_dictionary,
    read_dataset,
    read_report,
    simulate_pairs,
    write_dataset,
)
import levysid.simulate
from levysid.cli import main
from levysid.dataio import DatasetFile
from levysid.estimate import ALPHA_CLAMP
from levysid.simulate import CHUNK_ROWS


def _sample_pair(M=50, n=3, seed=0):
    rng = np.random.default_rng(seed)
    Z = rng.uniform(-2.0, 2.0, size=(M, n))
    X = Z + 0.01 * rng.standard_normal((M, n))
    return DatasetPair.from_arrays(Z, X, 0.001)


def _arrays(source):
    """Z and X of every row, through the rows() both readers' results share."""
    return source.rows(0, source.M)


class TestCsvFormat:
    def test_round_trip_exact(self, tmp_path):
        data = _sample_pair()
        path = tmp_path / "pairs.csv"
        write_dataset(data, path)
        back = read_dataset(path)
        assert back.n == data.n and back.M == data.M and back.h == data.h
        np.testing.assert_array_equal(back.Z, data.Z)
        np.testing.assert_array_equal(back.X, data.X)

    def test_header_line(self, tmp_path):
        data = _sample_pair(M=7, n=2)
        path = tmp_path / "pairs.csv"
        write_dataset(data, path)
        first = path.read_text().splitlines()[0]
        assert first == "#levy-sid-pairs v1 n=2 M=7 h=0.001"

    def test_row_layout(self, tmp_path):
        # columns are z_1..z_n then x_1..x_n
        data = _sample_pair(M=3, n=2)
        path = tmp_path / "pairs.csv"
        write_dataset(data, path)
        row = path.read_text().splitlines()[1].split(",")
        assert len(row) == 4
        assert float(row[0]) == data.Z[0, 0]
        assert float(row[3]) == data.X[0, 1]

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
    def test_round_trip_exact(self, tmp_path):
        data = _sample_pair(M=123, n=4, seed=9)
        path = tmp_path / "pairs.bin"
        write_dataset(data, path)
        back = read_dataset(path)
        assert (back.n, back.M, back.h) == (data.n, data.M, data.h)
        Z, X = _arrays(back)
        np.testing.assert_array_equal(Z, data.Z)
        np.testing.assert_array_equal(X, data.X)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(M=2, n=1), path)
        assert path.read_bytes()[:4] == b"LSID"

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(M=10, n=2), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(M=10, n=2), path)
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(DataFormatError, match="trailing"):
            read_dataset(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(M=2, n=1), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version byte
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises((DataFormatError, OSError)):
            read_dataset(tmp_path / "nope.bin")


class TestDatasetFile:
    def _file(self, tmp_path, monkeypatch, M=50, n=3):
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 7)
        data = _sample_pair(M=M, n=n, seed=3)
        path = tmp_path / "pairs.bin"
        write_dataset(data, path)
        return data, path

    def test_binary_read_is_a_file_source(self, tmp_path, monkeypatch):
        data, path = self._file(tmp_path, monkeypatch)
        source = read_dataset(path)
        assert isinstance(source, DatasetFile)
        assert (source.n, source.M, source.h) == (3, 50, 0.001)

    @pytest.mark.parametrize("start,stop", [(0, 7), (7, 14), (49, 50), (3, 40), (0, 50)])
    def test_rows_match_written(self, tmp_path, monkeypatch, start, stop):
        data, path = self._file(tmp_path, monkeypatch)
        Z, X = read_dataset(path).rows(start, stop)
        np.testing.assert_array_equal(Z, data.Z[start:stop])
        np.testing.assert_array_equal(X, data.X[start:stop])

    def test_rows_check_again_after_read(self, tmp_path, monkeypatch):
        data, path = self._file(tmp_path, monkeypatch)
        source = read_dataset(path)
        # row 30, column 2 turns NaN after the file has been validated
        with open(path, "r+b") as fh:
            fh.seek(25 + 8 * (30 * 6 + 2))
            fh.write(struct.pack("<d", float("nan")))
        with pytest.raises(DataFormatError, match="finite"):
            source.rows(28, 35)
        source.rows(0, 28)

    def test_rows_of_a_shrunk_file(self, tmp_path, monkeypatch):
        data, path = self._file(tmp_path, monkeypatch)
        source = read_dataset(path)
        path.write_bytes(path.read_bytes()[:-48])
        with pytest.raises(DataFormatError, match="ends inside"):
            source.rows(42, 50)

    def test_non_positive_h_rejected(self, tmp_path):
        path = tmp_path / "pairs.bin"
        for h in (0.0, -1.0, float("nan"), float("inf")):
            path.write_bytes(b"LSID" + struct.pack("<BIQd", 1, 1, 1, h)
                             + struct.pack("<2d", 0.0, 0.0))
            with pytest.raises(DataFormatError, match="h must be positive"):
                read_dataset(path)


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestMalformedFuzz:
    """Damaged copies of valid files never read back as data."""

    @staticmethod
    def _blob(fmt, tmp_path):
        path = tmp_path / f"good.{fmt}"
        write_dataset(_sample_pair(M=20, n=2, seed=6), path)
        return path.read_bytes()

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.integers(0, 25 + 20 * 4 * 8 - 1))
    def test_truncated_binary(self, tmp_path, cut):
        path = tmp_path / "cut.bin"
        path.write_bytes(self._blob("bin", tmp_path)[:cut])
        with pytest.raises(DataFormatError):
            read_dataset(path)

    @settings(max_examples=30, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(extra=st.binary(min_size=1, max_size=24))
    def test_trailing_binary(self, tmp_path, extra):
        path = tmp_path / "long.bin"
        path.write_bytes(self._blob("bin", tmp_path) + extra)
        with pytest.raises(DataFormatError, match="trailing"):
            read_dataset(path)

    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(index=st.integers(0, 20 * 4 - 1), value=st.sampled_from(_NON_FINITE))
    def test_non_finite_binary(self, tmp_path, index, value):
        # read_dataset reads only the header and the size; the rows() call
        # of the block that holds the value rejects it, and no other does
        blob = bytearray(self._blob("bin", tmp_path))
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
    def test_damaged_csv_row(self, tmp_path, data):
        lines = self._blob("csv", tmp_path).decode("ascii").splitlines()
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
    payload = np.hstack([data.Z, data.X])
    if fmt == "csv":
        lines = [f"#levy-sid-pairs v1 n={data.n} M={data.M} h={data.h!r}"]
        lines += [",".join(repr(v) for v in row) for row in payload.tolist()]
        return ("\n".join(lines) + "\n").encode("ascii")
    head = b"LSID" + struct.pack("<BIQd", 1, data.n, data.M, data.h)
    return head + payload.astype("<f8").tobytes()


class TestChunkedWriter:
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_across_chunk_boundary(self, tmp_path, fmt):
        data = _sample_pair(M=CHUNK_ROWS + 5, n=2, seed=4)
        path = tmp_path / f"pairs.{fmt}"
        write_dataset(data, path)
        assert path.read_bytes() == _reference_bytes(data, fmt)
        back = read_dataset(path)
        assert (back.n, back.M, back.h) == (data.n, data.M, data.h)
        Z, X = _arrays(back)
        np.testing.assert_array_equal(Z, data.Z)
        np.testing.assert_array_equal(X, data.X)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failing_block_leaves_no_file(self, tmp_path, fmt, existing):
        data = _sample_pair(M=CHUNK_ROWS + 5, n=2, seed=4)

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
        # numpy reports its data allocations to tracemalloc. 24 blocks of
        # lorenz3d, whose states alone are 12 blocks of pairs: the writer
        # holds the block it writes, and each worker the block it steps
        # and its sub-block's temporaries
        rows = 4096
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", rows)
        monkeypatch.setattr(levysid.simulate, "CACHE_ROWS", rows // 4)
        monkeypatch.setenv("LEVYSID_WORKERS", str(workers))
        Z = np.random.default_rng(3).uniform(-2.0, 2.0, (24 * rows, 3))
        data = simulate_pairs(builtin_model("lorenz3d"), Z, 0.001, seed=5)
        tracemalloc.start()
        try:
            write_dataset(data, tmp_path / "pairs.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = rows * 2 * 3 * 8
        assert peak < (3 * workers + 2) * block, peak / block


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
    rows = np.array(flat, dtype=np.float64).reshape(M, 2 * n)
    return DatasetPair.from_arrays(rows[:, :n], rows[:, n:], 0.001)


class TestRoundTripProperty:
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_datasets())
    def test_bitwise_round_trip(self, tmp_path, fmt, data):
        path = tmp_path / f"pairs.{fmt}"
        write_dataset(data, path)
        assert path.read_bytes() == _reference_bytes(data, fmt)
        back = read_dataset(path)
        assert (back.n, back.M, back.h) == (data.n, data.M, data.h)
        Z, X = _arrays(back)
        np.testing.assert_array_equal(Z.view(np.uint64), data.Z.view(np.uint64))
        np.testing.assert_array_equal(X.view(np.uint64), data.X.view(np.uint64))


class TestDefaultFormat:
    @pytest.mark.parametrize("name,magic", [
        ("pairs.csv", b"#levy-sid-pairs"), ("pairs.bin", b"LSID"),
        ("pairs", b"LSID"), ("pairs.txt", b"LSID"), ("pairs.CSV", b"LSID"),
        ("pairs.csv.bin", b"LSID"), (".csv", b"LSID"),
    ])
    def test_suffix_picks_encoding(self, tmp_path, name, magic):
        data = _sample_pair(M=3, n=2)
        write_dataset(data, tmp_path / name)
        assert (tmp_path / name).read_bytes().startswith(magic)
        Z, X = _arrays(read_dataset(tmp_path / name))
        np.testing.assert_array_equal(Z, data.Z)
        np.testing.assert_array_equal(X, data.X)


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

"""Dataset and report serialization."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levysid import (
    DataFormatError,
    DatasetPair,
    DomainError,
    read_dataset,
    read_report,
    write_dataset,
    write_report,
)
from levysid.dataio import canonical_json, default_format
from levysid.simulate import CHUNK_ROWS


def _sample_pair(M=50, n=3, seed=0):
    rng = np.random.default_rng(seed)
    Z = rng.uniform(-2.0, 2.0, size=(M, n))
    X = Z + 0.01 * rng.standard_normal((M, n))
    return DatasetPair.from_arrays(Z, X, 0.001)


class TestCsvFormat:
    def test_round_trip_exact(self, tmp_path):
        data = _sample_pair()
        path = tmp_path / "pairs.csv"
        write_dataset(data, path, "csv")
        back = read_dataset(path)
        assert back.n == data.n and back.M == data.M and back.h == data.h
        np.testing.assert_array_equal(back.Z, data.Z)
        np.testing.assert_array_equal(back.X, data.X)

    def test_header_line(self, tmp_path):
        data = _sample_pair(M=7, n=2)
        path = tmp_path / "pairs.csv"
        write_dataset(data, path, "csv")
        first = path.read_text().splitlines()[0]
        assert first == "#levy-sid-pairs v1 n=2 M=7 h=0.001"

    def test_row_layout(self, tmp_path):
        # columns are z_1..z_n then x_1..x_n
        data = _sample_pair(M=3, n=2)
        path = tmp_path / "pairs.csv"
        write_dataset(data, path, "csv")
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
        write_dataset(data, path, "bin")
        back = read_dataset(path)
        assert (back.n, back.M, back.h) == (data.n, data.M, data.h)
        np.testing.assert_array_equal(back.Z, data.Z)
        np.testing.assert_array_equal(back.X, data.X)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(M=2, n=1), path, "bin")
        assert path.read_bytes()[:4] == b"LSID"

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(M=10, n=2), path, "bin")
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(M=10, n=2), path, "bin")
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(DataFormatError, match="trailing"):
            read_dataset(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_dataset(_sample_pair(M=2, n=1), path, "bin")
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version byte
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises((DataFormatError, OSError)):
            read_dataset(tmp_path / "nope.bin")


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
        write_dataset(data, path, fmt)
        assert path.read_bytes() == _reference_bytes(data, fmt)
        back = read_dataset(path)
        assert (back.n, back.M, back.h) == (data.n, data.M, data.h)
        np.testing.assert_array_equal(back.Z, data.Z)
        np.testing.assert_array_equal(back.X, data.X)


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
        write_dataset(data, path, fmt)
        assert path.read_bytes() == _reference_bytes(data, fmt)
        back = read_dataset(path)
        assert (back.n, back.M, back.h) == (data.n, data.M, data.h)
        np.testing.assert_array_equal(back.Z.view(np.uint64), data.Z.view(np.uint64))
        np.testing.assert_array_equal(back.X.view(np.uint64), data.X.view(np.uint64))


class TestDefaultFormat:
    def test_threshold(self):
        assert default_format(1000) == "csv"
        assert default_format(2_000_000) == "bin"
        assert default_format(10_000_000) == "bin"

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            write_dataset(_sample_pair(M=2, n=1), tmp_path / "x", "xml")
        assert not (tmp_path / "x").exists()


class TestReports:
    def test_round_trip_byte_identical(self, tmp_path):
        report = {"b": [1, 2, 3], "a": {"z": 0.5, "y": None},
                  "text": "hello", "flag": True}
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        write_report(report, p1)
        back = read_report(p1)
        assert back == report
        write_report(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_canonical_json_sorts_keys(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_malformed_report_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            read_report(path)

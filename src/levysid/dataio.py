"""Dataset and report file formats.

Datasets exist in two interchangeable encodings, auto-detected on read:

* text: a header line ``#levy-sid-pairs v1 n=<n> M=<M> h=<h>`` followed by
  M CSV rows of 2n shortest-round-trip decimal floats, z before x;
* binary: magic ``LSID``, a version byte (1), little-endian u32 n, u64 M,
  f64 h, then the same M x 2n row-major float64 payload. A file is exactly
  the 25-byte header plus M*2n*8 payload bytes; a short file and trailing
  bytes are both rejected.

A text file is read into a DatasetPair, every entry checked. A binary file
is read as a DatasetFile, which reads and checks its rows one block at a
time, so the estimators never hold the whole payload.

Reports are JSON with sorted keys and two-space indentation, so a report
read back and re-serialized is byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DomainError
from .simulate import CHUNK_ROWS, DatasetPair, check_header

MAGIC = b"LSID"
BINARY_VERSION = 1
_BINARY_HEADER = struct.Struct("<BIQd")
_BINARY_HEADER_BYTES = len(MAGIC) + _BINARY_HEADER.size
_HEADER_RE = re.compile(
    r"#levy-sid-pairs v1 n=(\d+) M=(\d+) h=([^\s]+)\s*$")

def _header_line(data):
    return f"#levy-sid-pairs v1 n={data.n} M={data.M} h={data.h!r}\n"


def _csv_block(block):
    # float.__repr__ is the shortest round-trip text, the same as repr(v)
    columns = [map(float.__repr__, block[:, k].tolist())
               for k in range(block.shape[1])]
    return ("\n".join(map(",".join, zip(*columns))) + "\n").encode("ascii")


def _binary_block(block):
    return block.astype("<f8", copy=False)


def write_dataset(data, path, fmt="bin"):
    """Write a row-block source to ``path`` as 'csv' or 'bin'.

    Rows are encoded and written in blocks of ``CHUNK_ROWS``, so the writer
    holds one block of the payload at a time, never a copy of all of it.
    They go to a temporary file next to ``path``, which replaces ``path``
    only once every block is written: a block that raises leaves neither
    file behind, and an existing ``path`` unchanged.
    """
    if fmt == "csv":
        header = _header_line(data).encode("ascii")
        encode = _csv_block
    elif fmt == "bin":
        header = MAGIC + _BINARY_HEADER.pack(BINARY_VERSION, data.n, data.M, data.h)
        encode = _binary_block
    else:
        raise DomainError(f"unknown dataset format {fmt!r}; use 'csv' or 'bin'")
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for start in range(0, data.M, CHUNK_ROWS):
                fh.write(encode(data.block(start, min(start + CHUNK_ROWS, data.M))))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@dataclass(frozen=True)
class DatasetFile:
    """A binary dataset file, read one block of rows at a time.

    A row-block source like DatasetPair. ``block`` is the one method that
    reads the file, and it checks every block it reads; ``rows`` splits a
    block into Z and X. ``read_dataset`` builds it after checking the header
    and the file size; ``levysid pipeline`` builds it directly over the
    dataset it has just written.
    """

    path: str
    n: int
    M: int
    h: float

    def __post_init__(self):
        check_header(self.n, self.M, self.h)

    def block(self, start, stop):
        """Rows start..stop-1 as they are stored, one (rows, 2n) array with
        z before x, read into a buffer of their own.

        Every call checks its rows: a non-finite entry, or a file that ends
        before them, raises DataFormatError.
        """
        block = np.empty((stop - start, 2 * self.n), dtype="<f8")
        with open(self.path, "rb") as fh:
            fh.seek(_BINARY_HEADER_BYTES + 16 * self.n * start)
            # a buffered readinto reads until the block is full or EOF
            if fh.readinto(block) < block.nbytes:
                raise DataFormatError(
                    f"{self.path}: file ends inside rows {start}..{stop - 1}")
        if not np.isfinite(block).all():
            raise DataFormatError(
                f"{self.path}: dataset entries must all be finite; "
                f"rows {start}..{stop - 1} hold a non-finite value")
        return block

    def rows(self, start, stop):
        """Z and X of rows start..stop-1: the column halves of ``block``."""
        block = self.block(start, stop)
        return block[:, :self.n], block[:, self.n:]


def _source(path, build, *args):
    """``build(*args)``, with the dataset's DomainError reported as a
    DataFormatError of the file at ``path``."""
    try:
        return build(*args)
    except DomainError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _read_binary(path):
    with open(path, "rb") as fh:
        head = fh.read(_BINARY_HEADER_BYTES)
        size = os.fstat(fh.fileno()).st_size - _BINARY_HEADER_BYTES
    if len(head) < _BINARY_HEADER_BYTES or head[:4] != MAGIC:
        raise DataFormatError(f"{path}: truncated or invalid binary header")
    version, n, M, h = _BINARY_HEADER.unpack(head[4:])
    if version != BINARY_VERSION:
        raise DataFormatError(f"{path}: unsupported binary version {version}")
    source = _source(path, DatasetFile, os.fspath(path), n, M, h)
    count = M * 2 * n
    if size < count * 8:
        raise DataFormatError(f"{path}: expected {count} values, found {size // 8}")
    if size > count * 8:
        raise DataFormatError(
            f"{path}: found {size - count * 8} trailing bytes after "
            f"the {count} payload values")
    return source


def _read_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        m = _HEADER_RE.match(header)
        if m is None:
            raise DataFormatError(
                f"{path}: missing or malformed '#levy-sid-pairs v1' header")
        n = int(m.group(1))
        M = int(m.group(2))
        try:
            h = float(m.group(3))
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad h in header: {m.group(3)!r}") from exc
        _source(path, check_header, n, M, h)
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}: malformed data row: {exc}") from exc
    if rows.shape != (M, 2 * n):
        raise DataFormatError(
            f"{path}: header promises {M} rows of {2 * n} values, "
            f"found shape {rows.shape}")
    return _source(path, DatasetPair.from_arrays, rows[:, :n], rows[:, n:], h)


def read_dataset(path):
    """Read a dataset file, sniffing the binary magic to pick the decoder.

    Returns a DatasetPair for a text file, every entry checked to be
    finite. For a binary file only the header and the file size are read:
    the DatasetFile it returns checks each block of rows as it reads it.
    """
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    if magic == MAGIC:
        return _read_binary(path)
    try:
        return _read_csv(path)
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: neither a binary dataset nor ASCII text: {exc}") from exc


def canonical_json(obj):
    """Stable JSON encoding: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report))


def read_report(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc

"""Dataset and report file formats.

Datasets exist in two interchangeable encodings, auto-detected on read:

* text: a header line ``#levy-sid-pairs v1 n=<n> M=<M> h=<h>`` followed by
  M CSV rows of 2n shortest-round-trip decimal floats, z before x;
* binary: magic ``LSID``, a version byte (1), little-endian u32 n, u64 M,
  f64 h, then the same M x 2n row-major float64 payload. A file is exactly
  the 25-byte header plus M*2n*8 payload bytes; a short file and trailing
  bytes are both rejected.

A text file is parsed into one (M, 2n) array, held once as a DatasetPair
with every entry checked. A binary file is read as a DatasetFile, which
reads and checks its rows one block at a time, so the estimators never hold
the whole payload. Any row-block source is written one block at a time, a
binary one at the rows' own offsets, so the writer never holds it either.

A report is the JSON text of a Report, with sorted keys and two-space
indentation; its reader checks every section, and a report read back and
written again is byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import struct
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .basis import build_dictionary
from .errors import ConfigError, DataFormatError, DomainError, number
from .estimate import (ALPHA_CLAMP, BinCounts, CoefficientTable,
                       EstimationConfig, LevyEstimate, load_est_config)
from .simulate import BlockRows, DatasetPair, check_header, check_rows, map_chunks

MAGIC = b"LSID"
BINARY_VERSION = 1
_BINARY_HEADER = struct.Struct("<BIQd")
_BINARY_HEADER_BYTES = len(MAGIC) + _BINARY_HEADER.size
_HEADER_RE = re.compile(
    r"#levy-sid-pairs v1 n=(\d+) M=(\d+) h=([^\s]+)\s*$")

def _header_line(data):
    return f"#levy-sid-pairs v1 n={data.n} M={data.M} h={data.h!r}\n"


def csv_block(block):
    """The rows of a 2-D float block as ASCII CSV lines, newline-ended."""
    # float.__repr__ is the shortest round-trip text, the same as repr(v)
    columns = [map(float.__repr__, block[:, k].tolist())
               for k in range(block.shape[1])]
    return ("\n".join(map(",".join, zip(*columns))) + "\n").encode("ascii")


def _pwrite(fd, buf, offset):
    """Write all of ``buf``'s bytes at byte ``offset`` of ``fd``, again
    from where a short write stopped."""
    view = memoryview(buf).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


def write_dataset(data, path):
    """Write a row-block source to ``path``: the text encoding when the
    path ends in ``.csv``, the binary encoding otherwise.

    The source's blocks are read through ``map_chunks``, so a
    ``Simulation`` is stepped here and the writer never holds all the rows.
    In the binary encoding every row's offset is known, so each call reads
    its CHUNK_ROWS block and writes it at its own offset with
    ``os.pwrite``; the caller only drains the calls, and no read block
    waits for a writer. Text rows have no known offset: each block is
    encoded and written in block order as it comes, while the workers read
    the next ones. The rows go to a temporary file in the nearest existing
    directory on the way up from the directory of ``path``, which replaces
    ``path`` only once every block is written; the missing directories are
    made just before. A block that raises leaves neither file nor directory
    behind, and an existing ``path`` unchanged.
    """
    path = os.fspath(path)
    text = os.path.splitext(path)[1] == ".csv"
    head, name = os.path.split(path)
    home = head or os.curdir
    while not os.path.isdir(home):
        home = os.path.dirname(os.path.abspath(home))
    tmp = os.path.join(home, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            if text:
                fh.write(_header_line(data).encode("ascii"))
                for block in map_chunks(data.block, data.M):
                    fh.write(csv_block(block))
            else:
                fd = fh.fileno()
                _pwrite(fd, MAGIC + _BINARY_HEADER.pack(
                    BINARY_VERSION, data.n, data.M, data.h), 0)

                def place(start, stop):
                    _pwrite(fd, np.ascontiguousarray(data.block(start, stop), "<f8"),
                            _BINARY_HEADER_BYTES + 16 * data.n * start)

                for _ in map_chunks(place, data.M):
                    pass
        os.makedirs(head or os.curdir, exist_ok=True)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@dataclass(frozen=True)
class DatasetFile(BlockRows):
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
        check_rows(start, stop, self.M)
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
        try:
            with warnings.catch_warnings():  # no rows is a count like any other
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                pairs = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}: malformed data row: {exc}") from exc
    if len(pairs) != M:
        raise DataFormatError(f"{path}: header promises {M} rows, found {len(pairs)}")
    return _source(path, DatasetPair, n, M, h, pairs)


def read_dataset(path):
    """Read a dataset file, sniffing the binary magic to pick the decoder.

    Returns a DatasetPair over the (M, 2n) array parsed from a text file,
    every entry checked. For a binary file only the header and the file size
    are read: the DatasetFile it returns checks each block as it reads it.
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


REPORT_FORMAT = "levy-sid-report v1"


def _numbers(values, shape, what, kinds=(int, float), inf=False):
    """``values`` as an array of ``shape``, if it is nested lists of finite
    JSON numbers of ``kinds``, or +inf where ``inf``; else DataFormatError.
    The array is int64 for ``kinds`` (int,), float64 otherwise."""
    cells = np.array(values, dtype=object)
    # no bools, as in errors.number; NaN, -inf and too large ints fail
    if cells.shape != shape or not all(
            type(v) in kinds and (abs(v) <= sys.float_info.max or inf and v == np.inf)
            for v in cells.flat):
        raise DataFormatError(f"report {what} must be numbers of shape {shape}")
    return cells.astype(np.int64 if kinds == (int,) else np.float64)


def _require(ok, what, rule):
    """DataFormatError unless ``ok`` holds everywhere."""
    if not np.all(ok):
        raise DataFormatError(f"report {what} must be {rule}")


def _field(doc, key, kind):
    """``doc[key]``, if its JSON type is ``kind``; a bool is no int."""
    if type(doc.get(key)) is not kind:
        raise DataFormatError(f"report {key!r} must be a JSON {kind.__name__}")
    return doc[key]


def _columns(doc, key, count, names):
    """The values of each of ``names`` across the list ``doc[key]`` of
    ``count`` JSON objects."""
    entries = _field(doc, key, list)
    if len(entries) != count or not all(type(e) is dict for e in entries):
        raise DataFormatError(f"report {key!r} must be a list of {count} objects")
    return [[e.get(name) for e in entries] for name in names]


@dataclass(frozen=True, eq=False)
class Report:
    """The identified law as ``report.json`` states it. ``kind`` is the
    dictionary spec's kind, 'poly:<d>', 'example2' or 'custom'; ``seed`` is
    None when none was given."""

    n: int
    M: int
    h: float
    config: EstimationConfig
    kind: str
    levy: tuple
    table: CoefficientTable
    warnings: tuple
    seed: int | None = None

    def to_json(self):
        """The report's text: sorted keys, two-space indent, trailing newline."""
        table = self.table
        doc = {
            "format": REPORT_FORMAT,
            "dataset": {"n": self.n, "M": self.M, "h": self.h},
            "estimation": asdict(self.config),
            "dictionary": {"kind": self.kind, "n": table.dictionary.n,
                           "names": list(table.dictionary.names)},
            "levy": [{"component": e.component, "alpha": e.alpha, "beta": e.beta,
                      "sigma": e.sigma, "bins_positive": e.counts.pos.tolist(),
                      "bins_negative": e.counts.neg.tolist()} for e in self.levy],
            "survival_fraction": table.fraction,
            "drift": table.drift.tolist(),
            "drift_residuals": table.drift_residuals.tolist(),
            "diffusion": [{"i": i, "j": j,
                           "coefficients": table.diffusion[i, j].tolist(),
                           "residual": table.diffusion_residuals[i, j]}
                          for i, j in sorted(table.diffusion)],
            "warnings": list(self.warnings),
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        """The Report that ``text`` states. Every section is checked, and
        what to_json would not write raises DataFormatError."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise DataFormatError(f"report is not valid JSON: {exc}") from exc
        if type(doc) is not dict or doc.get("format") != REPORT_FORMAT:
            raise DataFormatError(f"report format must be {REPORT_FORMAT!r}")
        dataset, spec = _field(doc, "dataset", dict), _field(doc, "dictionary", dict)
        n, M = _field(dataset, "n", int), _field(dataset, "M", int)
        if _field(spec, "n", int) != n:
            raise DataFormatError(f"report dictionary n must be the dataset's {n}")
        # n comes from the file: the lengths are checked before pairs is built
        component, alpha, beta, sigma, pos, neg = _columns(doc, "levy", n, (
            "component", "alpha", "beta", "sigma", "bins_positive", "bins_negative"))
        rows, cols, coefs, residuals = _columns(
            doc, "diffusion", n * (n + 1) // 2, ("i", "j", "coefficients", "residual"))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        if component != list(range(1, n + 1)) or list(zip(rows, cols)) != pairs:
            raise DataFormatError("report levy entries must be in component "
                                  "order, and diffusion entries in (i, j) order")
        kind = _field(spec, "kind", str)
        try:
            h = number("h", dataset.get("h"))
            check_header(n, M, h)
            # the estimation section is an estimation config without a dictionary
            config, _ = load_est_config(
                dict(_field(doc, "estimation", dict), dictionary=kind))
            dictionary = build_dictionary(_field(spec, "names", list), n)
            pos, neg = _numbers([pos, neg], (2, n, config.N + 1), "levy bins", (int,))
            counts = [BinCounts(p, q, M, h) for p, q in zip(pos, neg)]
        except (ConfigError, DomainError, OverflowError) as exc:
            raise DataFormatError(f"report: {exc}") from exc
        alpha, beta = _numbers([alpha, beta], (2, n), "levy alpha and beta")
        # estimate_sigma gives 0 or inf when a clamped alpha under- or
        # overflows its exponent
        sigma = _numbers(sigma, (n,), "levy sigma", inf=True)
        _require((alpha >= ALPHA_CLAMP) & (alpha <= 2.0 - ALPHA_CLAMP), "levy alpha",
                 f"in [{ALPHA_CLAMP}, {2.0 - ALPHA_CLAMP}]")
        _require(np.abs(beta) <= 1.0, "levy beta", "in [-1, 1]")
        _require(sigma >= 0.0, "levy sigma", ">= 0")
        levy = tuple(map(LevyEstimate, range(1, n + 1), alpha.tolist(),
                         beta.tolist(), sigma.tolist(), counts))

        K = dictionary.K
        fraction = float(_numbers(doc.get("survival_fraction"), (), "survival_fraction"))
        _require(0.0 < fraction <= 1.0, "survival_fraction", "in (0, 1]")
        drift_res = _numbers(doc.get("drift_residuals"), (n,), "drift_residuals")
        residuals = _numbers(residuals, (len(pairs),), "diffusion residuals")
        _require(drift_res >= 0.0, "drift_residuals", ">= 0")
        _require(residuals >= 0.0, "diffusion residuals", ">= 0")
        table = CoefficientTable(
            dictionary, fraction,
            _numbers(doc.get("drift"), (n, K), "drift"),
            dict(zip(pairs, _numbers(coefs, (len(pairs), K), "diffusion"))),
            drift_res, dict(zip(pairs, residuals.tolist())))
        warnings = _field(doc, "warnings", list)
        seed = _field(doc, "seed", int) if "seed" in doc else None
        if not all(type(w) is str for w in warnings):
            raise DataFormatError("report warnings must be strings")
        return cls(n, M, h, config, kind, levy, table, tuple(warnings), seed)

    def coefficients(self, parsed):
        """The coefficient vector of a ``parse_component`` result:
        ("drift", i) or ("diffusion", i, j), in either order of i and j."""
        if parsed[0] == "drift":
            i = parsed[1]
            if not 1 <= i <= self.n:
                raise ConfigError(f"report has no drift component b{i}")
            return self.table.drift[i - 1]
        key = tuple(sorted(parsed[1:]))
        if key not in self.table.diffusion:
            raise ConfigError(f"report has no diffusion entry a{key[0]}{key[1]}")
        return self.table.diffusion[key]


def write_report(report, path):
    """Write a Report to ``path`` as its to_json text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())


def read_report(path):
    """The Report in the file at ``path``, every section checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Report.from_json(fh.read())
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from exc

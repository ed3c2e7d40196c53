"""Command-line interface: subcommands, exit codes, artifacts."""

import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest

from levysid import (
    ConfigError,
    DataFormatError,
    Report,
    design_matrix,
    model_from_config,
    polynomial_dictionary,
    read_dataset,
    read_report,
    write_dataset,
    write_report,
)
import levysid.cli
import levysid.simulate
from levysid.cli import main, parse_component, parse_range
from levysid.dataio import DatasetFile
from levysid.expr import evaluate_trees
from levysid.rng import stream_key

from stable_draws import sample_stable


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _small_lorenz(tmp_path, mesh=20):
    return _write_json(tmp_path / "model.json", {
        "name": "lorenz3d",
        "grid": {"bounds": [[-2, 2]] * 3, "mesh": [mesh] * 3},
    })


def _cauchy_dataset(dataset, tmp_path, M=200_000):
    # symmetric unit Cauchy increments: every bin well occupied at eps=1
    Y = sample_stable(1.0, 0.0, 1.0, M, stream_key(77))
    Z = np.linspace(0.0, 1.0, M)[:, None]
    data = dataset(Z, Z + Y[:, None], 0.001)
    path = tmp_path / "pairs.csv"
    write_dataset(data, path)
    return str(path)


def _est_config(tmp_path, **overrides):
    doc = {"epsilon": 1.0, "m": 5.0, "N": 1, "dictionary": "poly:1"}
    doc.update(overrides)
    return _write_json(tmp_path / "est.json", doc)


class TestParsePieces:
    def test_component_forms(self):
        assert parse_component("b2") == ("drift", 2)
        assert parse_component("a11") == ("diffusion", 1, 1)
        assert parse_component("a1,3") == ("diffusion", 1, 3)
        assert parse_component("a12,3") == ("diffusion", 12, 3)

    def test_component_rejects(self):
        for bad in ("c1", "b", "a1", "b1.5", "a123", ""):
            with pytest.raises(Exception):
                parse_component(bad)

    def test_range_klein(self):
        xs = parse_range("0:5:0.01")
        assert xs.size == 501
        assert xs[0] == 0.0
        assert xs[-1] == pytest.approx(5.0, abs=1e-12)

    def test_range_rejects(self):
        for bad in ("0:5", "5:0:0.1", "0:5:-1", "a:b:c", "nan:1:0.1",
                    "0:inf:0.1", "0:1:nan", "0:1:1e-300"):
            with pytest.raises(ConfigError):
                parse_range(bad)


class TestSimulateCommand:
    def test_lorenz_mesh20(self, tmp_path, capsys):
        cfg = _small_lorenz(tmp_path)
        out = tmp_path / "data.csv"
        code = main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", "1"])
        assert code == 0
        text = capsys.readouterr().out
        assert "M=8000" in text and "n=3" in text
        data = read_dataset(out)
        assert data.M == 8000 and data.n == 3 and data.h == 0.001

    def test_genereg_small(self, tmp_path):
        cfg = _write_json(tmp_path / "model.json", {
            "name": "genereg1d",
            "grid": {"bounds": [[0, 5]], "mesh": [100_000]},
        })
        out = tmp_path / "data.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        data = read_dataset(out)
        assert data.n == 1 and data.M == 100_000

    def test_binary_is_default_at_small_m(self, tmp_path):
        cfg = _small_lorenz(tmp_path, mesh=5)
        out = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes()[:4] == b"LSID"
        assert read_dataset(out).M == 125

    def test_csv_suffix_picks_csv(self, tmp_path):
        cfg = _small_lorenz(tmp_path, mesh=5)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"#levy-sid-pairs")
        assert read_dataset(out).M == 125

    def test_malformed_expression_exits_2(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "model.json", {
            "dimension": 1, "drift": ["x1 + * 2"], "gaussian": None,
            "levy": None,
            "grid": {"bounds": [[0, 1]], "mesh": [4]}, "h": 0.001,
        })
        code = main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "d.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "category=config" in err
        assert "offset 5" in err

    @pytest.mark.parametrize("blob", [
        b"\xff\xfe" + json.dumps({"name": "genereg1d"}).encode("utf-16-le"),
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, blob):
        cfg = tmp_path / "model.json"
        cfg.write_bytes(blob)
        out = tmp_path / "d.bin"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error category=config" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_3(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "d.csv")])
        assert code == 3
        assert "category=data" in capsys.readouterr().err

    @pytest.mark.parametrize("overlay", [
        {"h": math.inf},
        {"levy": [{"alpha": 1.5, "beta": -0.5, "sigma": math.inf}]},
        {"h": True},
        {"h": 10**400},
        {"levy": [{"alpha": True, "beta": -0.5, "sigma": 0.5}]},
        {"levy": [{"alpha": 1.5, "beta": "0", "sigma": 0.5}]},
        {"levy": [{"alpha": 1.5, "beta": -0.5, "sigma": True}]},
        {"name": ["genereg1d"]},
        {"dimension": 10**30, "gaussian": None},
        {"dimension": True, "drift": ["-x1"]},
    ], ids=["h-inf", "sigma-inf", "h-bool", "h-huge-int", "alpha-bool",
            "beta-string", "sigma-bool", "name-list", "dimension-huge",
            "dimension-bool"])
    def test_non_finite_model_value_exits_2(self, tmp_path, capsys, overlay):
        cfg = _write_json(tmp_path / "model.json", {
            "name": "genereg1d", "grid": {"bounds": [[0, 5]], "mesh": [100]},
            **overlay})
        out = tmp_path / "d.bin"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "error category=config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [
        {"bounds": [[5, 0]], "mesh": [10]},
        {"bounds": [[0, 5]], "mesh": [2.5]},
        {"bounds": [[0, 5]], "mesh": [True]},
        {"bounds": [[0, 5]], "mesh": ["200"]},
        {"bounds": [[0, 5]], "mesh": [math.inf]},
        {"bounds": [[0, 5]], "mesh": [math.nan]},
        {"bounds": [[0]], "mesh": [10]},
        {"bounds": 5, "mesh": [10]},
        {"bounds": [[0, 5]], "mesh": [300_000_000]},
    ], ids=["reversed-bounds", "mesh-fraction", "mesh-bool", "mesh-string",
            "mesh-inf", "mesh-nan", "bound-not-pair", "bounds-not-list",
            "over-row-cap"])
    def test_bad_grid_exits_2(self, tmp_path, capsys, grid):
        cfg = _write_json(tmp_path / "model.json",
                          {"name": "genereg1d", "grid": grid})
        out = tmp_path / "d.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "error category=config" in capsys.readouterr().err
        assert not out.exists()

    def test_coefficient_domain_fault_exits_2(self, tmp_path, capsys):
        # sqrt(x1) faults on the negative half of the grid: a config error,
        # as in estimate, and no dataset file or temporary file is left
        cfg = _write_json(tmp_path / "model.json", {
            "dimension": 1, "drift": ["sqrt(x1)"], "gaussian": None,
            "levy": None, "grid": {"bounds": [[-1, 1]], "mesh": [11]},
            "h": 0.01})
        out = tmp_path / "pairs.bin"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error category=config" in err
        assert "coefficient evaluation failed on rows 0..10" in err
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_overflowing_step_prints_one_line(self, tmp_path):
        # x1 + h*x1 overflows on the second grid point; the failure is the
        # one error line, with no numpy RuntimeWarning before it
        cfg = _write_json(tmp_path / "model.json", {
            "dimension": 1, "drift": ["x1"], "gaussian": None, "levy": None,
            "grid": {"bounds": [[1e308, 1.7e308]], "mesh": [2]}, "h": 0.5})
        proc = subprocess.run(
            [sys.executable, "-m", "levysid.cli", "simulate", "--config", cfg,
             "--out", str(tmp_path / "pairs.bin")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error category=error: non-finite state at row 1, component 1"]

    def test_summary_times_stepping_and_writing(self, tmp_path, capsys,
                                               monkeypatch):
        # the rows are stepped while they are written: the seconds printed
        # by simulate, and pipeline's simulate seconds, cover the write
        def slow_write(data, path):
            time.sleep(0.2)
            write_dataset(data, path)

        monkeypatch.setattr(levysid.cli, "write_dataset", slow_write)
        cfg = _small_lorenz(tmp_path, mesh=5)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "data")]) == 0
        seconds = re.search(r"\((\d+\.\d+)s, ", capsys.readouterr().out)
        assert float(seconds.group(1)) >= 0.2
        est = _est_config(tmp_path, epsilon=0.05, m=3.0, N=2,
                          cube_epsilon=0.5, dictionary="poly:2")
        assert main(["pipeline", "--config", cfg, "--est-config", est,
                     "--workdir", str(tmp_path / "run")]) == 0
        seconds = re.search(r"simulate (\d+\.\d+)s", capsys.readouterr().out)
        assert float(seconds.group(1)) >= 0.2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_in_a_later_block_leaves_no_file(self, tmp_path, capsys,
                                                      monkeypatch):
        # 300 rows in 100-row blocks on two workers: the first two blocks
        # are written before row 211's step x + 0.5 x overflows
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 100)
        monkeypatch.setenv("LEVYSID_WORKERS", "2")
        cfg = _write_json(tmp_path / "model.json", {
            "dimension": 1, "drift": ["x1"], "gaussian": None, "levy": None,
            "grid": {"bounds": [[0, 1.7e308]], "mesh": [300]}, "h": 0.5})
        out = tmp_path / "pairs.bin"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error category=error: non-finite state at row 211, component 1\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_out_creates_missing_directories(self, tmp_path):
        out = tmp_path / "a" / "b" / "pairs.bin"
        assert main(["simulate", "--config", _small_lorenz(tmp_path, 5),
                     "--out", str(out), "--seed", "3"]) == 0
        assert read_dataset(out).M == 125
        assert sorted(p.name for p in (tmp_path / "a" / "b").iterdir()) == [
            "pairs.bin"]

    def test_failed_simulation_creates_no_directory(self, tmp_path, capsys):
        # the file is staged in tmp_path, the nearest existing directory,
        # and a/b would be made only after the last block; 1/x1 faults at
        # the grid point x1 = 0
        cfg = _write_json(tmp_path / "model.json", {
            "dimension": 1, "drift": ["1/x1"], "gaussian": None, "levy": None,
            "grid": {"bounds": [[0, 1]], "mesh": [11]}, "h": 0.01})
        out = tmp_path / "a" / "b" / "pairs.bin"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "coefficient evaluation failed on rows 0..10" in (
            capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_grid_over_row_cap_makes_nothing(self, tmp_path, capsys, command):
        # the grid's rows are never built, but its size is still checked
        # before any file or directory is made: GridSizeError, exit 2
        cfg = _write_json(tmp_path / "model.json", {
            "name": "lorenz3d",
            "grid": {"bounds": [[-2, 2]] * 3, "mesh": [10_000, 10_000, 10]}})
        est = _est_config(tmp_path)
        out = tmp_path / "a" / "b"
        if command == "simulate":
            argv = ["simulate", "--config", cfg, "--out", str(out / "pairs.bin")]
        else:
            argv = ["pipeline", "--config", cfg, "--est-config", est,
                    "--workdir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error category=config: grid would contain 1000000000 rows, "
            "cap is 200000000\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "est.json", "model.json"]


class TestEstimateCommand:
    def test_report_written(self, dataset, tmp_path):
        data_path = _cauchy_dataset(dataset, tmp_path)
        report_path = tmp_path / "report.json"
        code = main(["estimate", data_path,
                     "--est-config", _est_config(tmp_path),
                     "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["dataset"] == {"n": 1, "M": 200_000, "h": 0.001}
        assert len(report["levy"]) == 1
        entry = report["levy"][0]
        assert set(entry) >= {"component", "alpha", "beta", "sigma",
                              "bins_positive", "bins_negative"}
        assert len(entry["bins_positive"]) == 2
        assert 0.0 < report["survival_fraction"] <= 1.0
        assert isinstance(report["warnings"], list)
        assert len(report["drift"]) == 1
        assert report["diffusion"][0]["i"] == 1

    def test_summary_times_reading(self, tmp_path, capsys, monkeypatch):
        # the seconds estimate prints cover reading the dataset, which
        # parses the whole of a text file
        def slow_read(path):
            time.sleep(0.2)
            return read_dataset(path)

        data = str(tmp_path / "pairs.bin")
        assert main(["simulate", "--config", _small_lorenz(tmp_path, mesh=5),
                     "--out", data]) == 0
        monkeypatch.setattr(levysid.cli, "read_dataset", slow_read)
        est = _est_config(tmp_path, epsilon=0.05, m=3.0, N=2,
                          cube_epsilon=0.5, dictionary="poly:2")
        capsys.readouterr()
        assert main(["estimate", data, "--est-config", est,
                     "--report", str(tmp_path / "report.json")]) == 0
        seconds = re.search(r"estimated in (\d+\.\d+)s", capsys.readouterr().out)
        assert float(seconds.group(1)) >= 0.2

    def test_report_bytes_independent_of_blas_threads(self, tmp_path):
        # a lorenz3d poly:4 (K = 35) report and its 40001-row curves, made
        # in one process per way of loading OpenBLAS. A curve's product
        # splits its rows between OpenBLAS threads, and on two threads a row
        # at the split can round differently than on one, so the bytes hold
        # only because levysid runs OpenBLAS on one thread, however it was
        # loaded. The report's W @ W.T products gave the same bytes on two
        # threads in every case tried
        data = tmp_path / "pairs.bin"
        assert main(["simulate", "--config", _small_lorenz(tmp_path, 30),
                     "--out", str(data), "--seed", "7"]) == 0
        est = _est_config(tmp_path, epsilon=0.2, m=3, N=2, cube_epsilon=0.5,
                          dictionary="poly:4")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        runs = {"unset": ({}, ""), "1": ({"OPENBLAS_NUM_THREADS": "1"}, ""),
                "2": ({"OPENBLAS_NUM_THREADS": "2"}, ""),
                "numpy_first": ({}, "import numpy; ")}
        outputs = []
        for name, (extra, first) in runs.items():
            out = tmp_path / name
            out.mkdir()
            report = str(out / "report.json")
            commands = [["estimate", str(data), "--est-config", est,
                         "--report", report]] + [
                ["plot-data", "--report", report, "--component", component,
                 "--range=-2:2:0.0001", "--at=-1.5,0.3,0.7",
                 "--out", str(out / f"{component}.csv")]
                for component in ("b2", "a13", "a23")]
            subprocess.run(
                [sys.executable, "-c", f"{first}import json, sys; from "
                 "levysid.cli import main; sys.exit(any(main(argv) for argv "
                 "in json.loads(sys.argv[1])))", json.dumps(commands)],
                env=dict(env, **extra), capture_output=True, timeout=120,
                check=True)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outputs[0]) == 4
        for name, files in zip(runs, outputs):
            assert files == outputs[0], name

    def test_report_reserialization_byte_identical(self, dataset, tmp_path):
        data_path = _cauchy_dataset(dataset, tmp_path)
        report_path = tmp_path / "report.json"
        main(["estimate", data_path, "--est-config", _est_config(tmp_path),
              "--report", str(report_path)])
        blob = report_path.read_bytes()
        write_report(read_report(report_path), report_path)
        assert report_path.read_bytes() == blob

    def test_insufficient_rows_exits_4(self, dataset, tmp_path):
        Y = np.linspace(2.0, 3.0, 5)
        data = dataset(np.zeros((5, 1)), Y[:, None], 0.001)
        path = tmp_path / "tiny.csv"
        write_dataset(data, path)
        code = main(["estimate", str(path),
                     "--est-config", _est_config(tmp_path, dictionary="poly:9"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 4

    def test_bad_est_config_exits_2(self, dataset, tmp_path):
        data_path = _cauchy_dataset(dataset, tmp_path)
        bad = _write_json(tmp_path / "est.json", {"m": 5.0, "N": 1,
                                                  "dictionary": "poly:1"})
        assert main(["estimate", data_path, "--est-config", bad,
                     "--report", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("field,value", [
        ("epsilon", math.nan), ("epsilon", math.inf), ("m", math.nan),
        ("m", math.inf), ("cube_epsilon", math.nan), ("cube_epsilon", math.inf),
        ("N", math.inf), ("N", 2.7), ("N", True), ("N", "2"), ("N", 1e30),
        ("N", 10**9), ("epsilon", True), ("epsilon", "1.0"), ("m", "5"),
        ("cube_epsilon", True)])
    def test_non_finite_est_config_exits_2(self, dataset, tmp_path, capsys, field, value):
        data_path = _cauchy_dataset(dataset, tmp_path, M=2000)
        report = tmp_path / "r.json"
        assert main(["estimate", data_path,
                     "--est-config", _est_config(tmp_path, **{field: value}),
                     "--report", str(report)]) == 2
        assert "error category=config" in capsys.readouterr().err
        assert not report.exists()

    def test_missing_dataset_exits_3(self, tmp_path):
        assert main(["estimate", str(tmp_path / "none.csv"),
                     "--est-config", _est_config(tmp_path),
                     "--report", str(tmp_path / "r.json")]) == 3

    def test_corrupt_dataset_exits_3(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not a dataset\n1,2\n")
        assert main(["estimate", str(path),
                     "--est-config", _est_config(tmp_path),
                     "--report", str(tmp_path / "r.json")]) == 3

    # tiny-h: targets ~1e159, so the sum of their squares is inf;
    # huge-z: x1^2 = 1e200, so the Gram sum of x1^4 is inf
    @pytest.mark.parametrize("h,big_rows", [(1e-160, []), (0.001, [10, 200, 390])],
                             ids=["tiny-h", "huge-z"])
    def test_overflowing_sums_exit_5(self, dataset, tmp_path, capsys, h, big_rows):
        Y = sample_stable(1.0, 0.0, 1.0, 400, stream_key(77))
        Z = np.linspace(-1.0, 1.0, 400)[:, None]
        Z[big_rows] = 1e100
        path = tmp_path / "pairs.bin"
        write_dataset(dataset(Z, Z + Y[:, None], h), path)
        report = tmp_path / "r.json"
        assert main(["estimate", str(path),
                     "--est-config", _est_config(tmp_path, dictionary="poly:2"),
                     "--report", str(report)]) == 5
        assert "error category=numeric" in capsys.readouterr().err
        assert not report.exists()


# a multi-block binary dataset: 100 rows in blocks of BLOCK rows
BLOCK = 16
_HEADER = struct.Struct("<4sBIQd")


def _binary_blob(M=100, n=2, h=0.001):
    rng = np.random.default_rng(5)
    Z = rng.uniform(-1.0, 1.0, (M, n))
    payload = np.hstack([Z, Z + 0.01 * rng.standard_normal((M, n))])
    return _HEADER.pack(b"LSID", 1, n, M, h) + payload.astype("<f8").tobytes()


def _with_value(blob, index, value):
    """blob with a payload value set; index -1 is the last value."""
    out = bytearray(blob)
    at = len(out) + 8 * index
    out[at:at + 8] = struct.pack("<d", value)
    return bytes(out)


_CSV = "#levy-sid-pairs v1 n=1 M=2 h=0.001\n0.5,0.6\n0.7,0.8\n"

MALFORMED = {
    "truncated-header": lambda: _binary_blob()[:10],
    "bad-version": lambda: _binary_blob()[:4] + b"\x07" + _binary_blob()[5:],
    "n-zero": lambda: _HEADER.pack(b"LSID", 1, 0, 100, 0.001),
    "M-zero": lambda: _HEADER.pack(b"LSID", 1, 2, 0, 0.001),
    "h-inf": lambda: _binary_blob(h=math.inf),
    "short-payload": lambda: _binary_blob()[:-8],
    "trailing-bytes": lambda: _binary_blob() + b"\0",
    "nan-in-last-block": lambda: _with_value(_binary_blob(), -1, math.nan),
    "inf-in-last-block": lambda: _with_value(_binary_blob(), -3, math.inf),
    "csv-missing-row": lambda: _CSV.replace("0.7,0.8\n", "").encode(),
    "csv-no-rows": lambda: _CSV.split("\n")[0].encode() + b"\n",
    "csv-extra-row": lambda: (_CSV + "0.9,1.0\n").encode(),
    "csv-short-row": lambda: _CSV.replace("0.5,0.6", "0.5").encode(),
    "csv-long-row": lambda: _CSV.replace("0.5,0.6", "0.5,0.6,0.7").encode(),
    "csv-non-ascii": lambda: _CSV.replace("0.5", "0\u00b75").encode("utf-8"),
    "csv-h-nan": lambda: _CSV.replace("h=0.001", "h=nan").encode(),
    "csv-h-inf": lambda: _CSV.replace("h=0.001", "h=inf").encode(),
    "csv-comment-in-row": lambda: _CSV.replace("0.5,0.6", "0.5,0.6#,9").encode(),
}


class TestMalformedDatasets:
    """Every malformed file fails in the reader, read_dataset or the rows()
    of a block, and exits 3 from the CLI, leaving no report."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", BLOCK)
        path = tmp_path / "pairs"
        path.write_bytes(MALFORMED[case]())
        with pytest.raises(DataFormatError):
            source = read_dataset(path)
            for start in range(0, source.M, BLOCK):
                source.rows(start, min(start + BLOCK, source.M))
        report = tmp_path / "r.json"
        assert main(["estimate", str(path), "--est-config", _est_config(tmp_path),
                     "--report", str(report)]) == 3
        assert "error category=data" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("body,found", [("", 0), ("0.5,0.6\n", 1)])
    def test_row_count_is_one_error_line(self, tmp_path, body, found):
        # the console sees the one error line, no parser warning before it
        path = tmp_path / "pairs.csv"
        path.write_text(_CSV.split("\n")[0] + "\n" + body)
        report = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "levysid.cli", "estimate", str(path),
             "--est-config", _est_config(tmp_path), "--report", str(report)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"error category=data: {path}: header promises 2 rows, found {found}"]
        assert not report.exists()

    def test_good_blob_accepted(self, tmp_path):
        # the malformed cases above differ from this valid file in one place
        path = tmp_path / "pairs"
        path.write_bytes(_binary_blob())
        assert read_dataset(path).M == 100


def _lorenz_data(tmp_path):
    """An 8000-row lorenz3d binary dataset and an estimation config for it."""
    path = tmp_path / "pairs.bin"
    assert main(["simulate", "--config", _small_lorenz(tmp_path),
                 "--out", str(path), "--seed", "3"]) == 0
    est = _write_json(tmp_path / "est.json", {
        "epsilon": 0.05, "m": 3.0, "N": 2, "cube_epsilon": 0.5,
        "dictionary": "poly:2"})
    return path, est


class TestBinaryFileSource:
    @pytest.mark.parametrize("workers", ["1", "2", "5", pytest.param(None, id="unset")])
    def test_report_matches_in_memory(self, tmp_path, monkeypatch, workers):
        # 8000 rows in 16 blocks of 500; the text copy is parsed into an
        # unnamed binary file, and gives the binary file's report
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 500)
        if workers is None:
            monkeypatch.delenv("LEVYSID_WORKERS", raising=False)
        else:
            monkeypatch.setenv("LEVYSID_WORKERS", workers)
        path, est = _lorenz_data(tmp_path)
        text = tmp_path / "pairs.csv"
        write_dataset(read_dataset(path), text)
        assert isinstance(read_dataset(text), DatasetFile)
        for source, report in ((path, "r_file.json"), (text, "r_text.json")):
            assert main(["estimate", str(source), "--est-config", est,
                         "--report", str(tmp_path / report)]) == 0
        assert (tmp_path / "r_file.json").read_bytes() == (
            tmp_path / "r_text.json").read_bytes()

    def test_read_only_pairs_give_the_same_report(self, tmp_path, monkeypatch):
        # no pass writes into a block it reads: read-only blocks of the
        # text copy give the binary file's report
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 500)
        monkeypatch.setenv("LEVYSID_WORKERS", "2")
        path, est = _lorenz_data(tmp_path)
        text = tmp_path / "pairs.csv"
        write_dataset(read_dataset(path), text)
        assert main(["estimate", str(path), "--est-config", est,
                     "--report", str(tmp_path / "r_file.json")]) == 0
        read_block = DatasetFile.block
        reads = []

        def read_only(self, start, stop):
            block = read_block(self, start, stop)
            block.flags.writeable = False
            reads.append(stop - start)
            return block

        monkeypatch.setattr(DatasetFile, "block", read_only)
        assert main(["estimate", str(text), "--est-config", est,
                     "--report", str(tmp_path / "r_held.json")]) == 0
        assert sum(reads) >= 2 * 8000
        assert (tmp_path / "r_file.json").read_bytes() == (
            tmp_path / "r_held.json").read_bytes()

    def test_estimate_reads_only_blocks(self, tmp_path, monkeypatch):
        # block is the one method that reads the file; rows splits a block
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 300)
        path, _ = _lorenz_data(tmp_path)
        # a cube that drops rows in every block
        est = _est_config(tmp_path, epsilon=0.05, m=3.0, N=2,
                          cube_epsilon=0.05, dictionary="poly:2")
        Z, X = read_dataset(path).rows(0, 8000)
        survivors = np.flatnonzero(np.max(np.abs(X - Z), axis=1) <= 0.05)
        read_block = DatasetFile.block
        spans = []

        def counted_block(self, start, stop):
            assert stop - start <= 300, f"block({start}, {stop}) spans more than a block"
            spans.append(stop - start)
            return read_block(self, start, stop)

        monkeypatch.setattr(DatasetFile, "block", counted_block)
        assert main(["estimate", str(path), "--est-config", est,
                     "--report", str(tmp_path / "r.json")]) == 0
        # bin counts and the cube mask read every row once, in blocks of
        # at most 300 rows. The regression reads its 300-survivor blocks,
        # and each is read from the file in one span per 300-row file
        # block, from its first to its last survivor there
        spans_read = 0
        for start in range(0, survivors.size, 300):
            rows = survivors[start:start + 300]
            for block in np.unique(rows // 300):
                inside = rows[rows // 300 == block]
                spans_read += int(inside[-1] - inside[0]) + 1
        assert spans_read < 8000
        assert sum(spans) == 2 * 8000 + spans_read

    def test_one_pool_per_pass(self, tmp_path, monkeypatch):
        # the regression reads its 100-row blocks on the calling thread
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 100)
        monkeypatch.setenv("LEVYSID_WORKERS", "2")
        path, est = _lorenz_data(tmp_path)
        pool = levysid.simulate.ThreadPoolExecutor
        pools = []

        def counted(**kwargs):
            pools.append(kwargs["max_workers"])
            return pool(**kwargs)

        monkeypatch.setattr(levysid.simulate, "ThreadPoolExecutor", counted)
        assert main(["estimate", str(path), "--est-config", est,
                     "--report", str(tmp_path / "r.json")]) == 0
        # bin counts, and the cube filter's mask; the survivors are read
        # on the calling thread
        assert pools == [2, 2]


def _estimate_process(path, tmp_path, env=None):
    """``levysid estimate`` of the dataset at ``path`` in a child process."""
    return subprocess.run(
        [sys.executable, "-m", "levysid.cli", "estimate", str(path),
         "--est-config", _est_config(tmp_path), "--report", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=120, env=env)


class TestTextDatasets:
    """A text dataset is parsed one CHUNK_ROWS block at a time into an
    unnamed temporary file, whose DatasetFile the estimate reads."""

    def test_comment_character_is_a_malformed_row(self, tmp_path):
        # '#' starts no comment: the row is damaged, not cut short
        path = tmp_path / "pairs.csv"
        path.write_text(_CSV.replace("0.5,0.6", "0.5,0.6#,9"))
        with pytest.raises(DataFormatError, match="malformed data row"):
            read_dataset(path)
        proc = _estimate_process(path, tmp_path)
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"error category=data: {path}: malformed data row")
        assert not (tmp_path / "r.json").exists()

    def test_blank_lines_are_skipped_silently(self, tmp_path, dataset):
        # blank lines among the rows, inside a block and at its ends, are
        # skipped as a whole-file parse skips them, with no parser warning
        plain = _cauchy_dataset(dataset, tmp_path, M=2000)
        with open(plain) as fh:
            lines = fh.read().split("\n")
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join(lines[:2] + [""] + lines[2:900] + ["", ""]
                                   + lines[900:]) + "\n")
        reports = []
        for path in (plain, blank):
            proc = _estimate_process(path, tmp_path)
            assert (proc.returncode, proc.stderr) == (0, "")
            reports.append((tmp_path / "r.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.fixture
    def tmpdir_files(self, tmp_path, monkeypatch):
        """An empty directory that tempfile makes its files in, and the
        temporary files made in this test."""
        home = tmp_path / "tmp"
        home.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(home))
        made = []
        make = tempfile.TemporaryFile

        def recorded(*args, **kwargs):
            made.append(make(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
        return home, made

    def test_no_temporary_file_after_success(self, tmp_path, dataset, tmpdir_files):
        home, made = tmpdir_files
        path = _cauchy_dataset(dataset, tmp_path, M=2000)
        source = read_dataset(path)
        # the copy has no name, even while it is open
        assert len(made) == 1 and list(home.iterdir()) == []
        assert source.file is made[0] and source.path == path
        assert main(["estimate", path, "--est-config", _est_config(tmp_path),
                     "--report", str(tmp_path / "r.json")]) == 0
        assert len(made) == 2 and list(home.iterdir()) == []

    def test_no_temporary_file_after_malformed_rows(self, tmp_path, tmpdir_files):
        home, made = tmpdir_files
        path = tmp_path / "pairs.csv"
        path.write_text(_CSV + "0.9,1.0\n")
        assert main(["estimate", str(path), "--est-config", _est_config(tmp_path),
                     "--report", str(tmp_path / "r.json")]) == 3
        assert len(made) == 1 and made[0].closed and list(home.iterdir()) == []

    def test_no_temporary_file_after_interrupt(self, tmp_path, dataset, monkeypatch,
                                               tmpdir_files):
        # Ctrl-C while the second block is parsed
        home, made = tmpdir_files
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 500)
        path = _cauchy_dataset(dataset, tmp_path, M=2000)
        loadtxt = np.loadtxt
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", interrupted)
        with pytest.raises(KeyboardInterrupt):
            read_dataset(path)
        assert len(made) == 1 and made[0].closed and list(home.iterdir()) == []


def _v1_report(kind, names, drift, diffusion):
    """A complete levy-sid-report v1 document: one drift row per component,
    and the diffusion coefficients of each 1-based (i, j), i <= j."""
    n = len(drift)
    return {
        "format": "levy-sid-report v1",
        "dataset": {"n": n, "M": 1000, "h": 0.01},
        "estimation": {"epsilon": 0.5, "m": 2.0, "N": 1, "cube_epsilon": None},
        "dictionary": {"kind": kind, "n": n, "names": names},
        "levy": [{"component": i, "alpha": 1.5, "beta": 0.0, "sigma": 0.5,
                  "bins_positive": [40, 12], "bins_negative": [38, 13]}
                 for i in range(1, n + 1)],
        "survival_fraction": 0.9,
        "drift": drift,
        "drift_residuals": [0.0] * n,
        "diffusion": [{"i": i, "j": j, "coefficients": c, "residual": 0.0}
                      for (i, j), c in sorted(diffusion.items())],
        "warnings": [],
    }


class TestPlotDataCommand:
    def _handmade_report(self, tmp_path):
        return _write_json(tmp_path / "report.json", _v1_report(
            "poly:2", ["1", "x1", "x1^2"], [[2.0, 0.0, 0.0]],
            {(1, 1): [1.0, 0.5, 0.0]}))

    def test_true_diffusion_uses_row_major_lambda(self):
        # gaussian_at returns a C-contiguous Lambda, which einsum gets as it
        # is; at n = 4 einsum's sums over a component-major layout differ in
        # the last bits, and the true curve keeps those of the row-major one
        n = 4
        model = model_from_config({
            "dimension": n, "drift": ["0"] * n, "levy": None,
            "gaussian": [[f"x{(i + j) % n + 1}*{i + 1}.{j + 3} + x{j + 1}"
                          for j in range(n)] for i in range(n)]})
        pts = np.random.default_rng(4).uniform(-2.0, 2.0, (2001, n))
        lam = evaluate_trees([t for row in model.gaussian for t in row],
                             pts).reshape(-1, n, n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                want = np.einsum("rk,rk->r", lam[:, i - 1, :], lam[:, j - 1, :])
                got = levysid.cli._true_values(model, "diffusion", (i, j), pts)
                assert got.tobytes() == want.tobytes(), (i, j)

    def test_curve_bytes_independent_of_blas_threads(self, tmp_path):
        # 40001 rows of the 19-entry example2 basis: OpenBLAS splits the
        # product between its threads, and without the cap the last row of
        # this b1 curve rounds differently on two threads than on one (the
        # a11 curve of this report does not differ at 20001 to 50001 rows)
        cfg = _write_json(tmp_path / "model.json", {
            "name": "genereg1d", "grid": {"bounds": [[0, 5]], "mesh": [100_000]}})
        est = _est_config(tmp_path, N=2, cube_epsilon=0.5, dictionary="example2")
        workdir = tmp_path / "run"
        assert main(["pipeline", "--config", cfg, "--est-config", est,
                     "--workdir", str(workdir), "--seed", "4242"]) == 0
        curves = []
        for threads in ("1", "2"):
            curves.append(tmp_path / f"b1_{threads}.csv")
            subprocess.run(
                [sys.executable, "-m", "levysid.cli", "plot-data", "--report",
                 str(workdir / "report.json"), "--component", "b1",
                 "--range", "0:5:0.000125", "--out", str(curves[-1])],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, timeout=60, check=True)
        assert curves[0].read_bytes() == curves[1].read_bytes()

    def test_constant_drift_curve(self, tmp_path):
        report = self._handmade_report(tmp_path)
        out = tmp_path / "curve.csv"
        code = main(["plot-data", "--report", report, "--component", "b1",
                     "--range", "0:5:0.01", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 501
        values = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert values.shape == (501, 2)
        assert np.all(values[:, 1] == 2.0)
        assert values[0, 0] == 0.0 and values[-1, 0] == pytest.approx(5.0)

    def test_diffusion_component_curve(self, tmp_path):
        report = self._handmade_report(tmp_path)
        out = tmp_path / "curve.csv"
        assert main(["plot-data", "--report", report, "--component", "a11",
                     "--range", "0:2:0.5", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()]
        assert len(rows) == 5
        # learned a11 = 1 + 0.5 x
        assert float(rows[4][1]) == pytest.approx(2.0, rel=1e-12)

    A12 = [0.25, -1.5, 0.75]

    def _planar_report(self, tmp_path):
        # 2-D poly:1 report whose entries differ in every coefficient, so a
        # wrong entry, sweep axis or fixed coordinate changes the values
        names = list(polynomial_dictionary(2, 1).names)
        return _write_json(tmp_path / "report.json", _v1_report(
            "poly:1", names, [[1.0, 2.0, 3.0], [-1.0, 0.5, 4.0]],
            {(1, 1): [2.0, 0.5, -0.5], (1, 2): self.A12,
             (2, 2): [3.0, -0.25, 1.25]}))

    def test_off_diagonal_curve_along_axis(self, tmp_path):
        dictionary = polynomial_dictionary(2, 1)
        path = self._planar_report(tmp_path)
        outs = {}
        for component in ("a2,1", "a12"):
            outs[component] = tmp_path / f"curve_{component}.csv"
            assert main(["plot-data", "--report", path, "--component", component,
                         "--axis", "2", "--at", "0.3,0", "--range=-1:1:0.5",
                         "--out", str(outs[component])]) == 0
        rows = np.array([[float(v) for v in r.split(",")]
                         for r in outs["a2,1"].read_text().splitlines()])
        pts = np.column_stack([np.full(len(rows), 0.3), rows[:, 0]])
        np.testing.assert_array_equal(rows[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])
        np.testing.assert_array_equal(
            rows[:, 1], design_matrix(dictionary, pts) @ np.array(self.A12))
        assert outs["a2,1"].read_bytes() == outs["a12"].read_bytes()

    def test_negative_range_as_separate_argument(self, tmp_path):
        report = self._handmade_report(tmp_path)
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(["plot-data", "--report", report, "--component", "a11",
                     "--range", "-1:1:0.5", "--out", str(spaced)]) == 0
        assert main(["plot-data", "--report", report, "--component", "a11",
                     "--range=-1:1:0.5", "--out", str(joined)]) == 0
        rows = [r.split(",") for r in spaced.read_text().splitlines()]
        assert [float(r[0]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert spaced.read_bytes() == joined.read_bytes()

    def test_negative_point_as_separate_argument(self, tmp_path):
        path = self._planar_report(tmp_path)
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main(["plot-data", "--report", path, "--component", "a12",
                     "--axis", "2", "--at", "-0.5,0", "--range", "0:1:0.5",
                     "--out", str(spaced)]) == 0
        assert main(["plot-data", "--report", path, "--component", "a12",
                     "--axis", "2", "--at=-0.5,0", "--range", "0:1:0.5",
                     "--out", str(joined)]) == 0
        rows = np.array([[float(v) for v in r.split(",")]
                         for r in spaced.read_text().splitlines()])
        pts = np.column_stack([np.full(len(rows), -0.5), rows[:, 0]])
        np.testing.assert_array_equal(
            rows[:, 1], design_matrix(polynomial_dictionary(2, 1), pts)
            @ np.array(self.A12))
        assert spaced.read_bytes() == joined.read_bytes()

    def test_true_column_from_config(self, tmp_path):
        report = self._handmade_report(tmp_path)
        cfg = _write_json(tmp_path / "model.json", {
            "dimension": 1, "drift": ["2"], "gaussian": [["sqrt(1 + x1)"]],
            "levy": None,
        })
        out = tmp_path / "curve.csv"
        assert main(["plot-data", "--report", report, "--config", cfg,
                     "--component", "a11", "--range", "0:2:1", "--out",
                     str(out)]) == 0
        rows = np.array([[float(v) for v in r.split(",")]
                         for r in out.read_text().splitlines()])
        assert rows.shape == (3, 3)
        # true a11 = (sqrt(1+x))^2 = 1 + x
        np.testing.assert_allclose(rows[:, 2], 1.0 + rows[:, 0], rtol=1e-12)

    def test_unknown_component_exits_2(self, tmp_path):
        report = self._handmade_report(tmp_path)
        assert main(["plot-data", "--report", report, "--component", "b2",
                     "--range", "0:1:0.5",
                     "--out", str(tmp_path / "c.csv")]) == 2

    @pytest.mark.parametrize("extra", [
        ["--range", "5:0:0.5"],
        ["--range", "nan:1:0.1"],
        ["--range", "0:inf:0.1"],
        ["--range", "0:1:nan"],
        ["--range", "0:1:1e-300"],
        ["--range", "0:1:0.5", "--at", "x"],
        ["--range", "0:1:0.5", "--at", "inf"],
    ], ids=["reversed", "nan-start", "inf-stop", "nan-step", "too-many-points",
            "at-not-a-number", "at-not-finite"])
    def test_bad_range_exits_2(self, tmp_path, capsys, extra):
        report = self._handmade_report(tmp_path)
        assert main(["plot-data", "--report", report, "--component", "b1",
                     "--out", str(tmp_path / "c.csv")] + extra) == 2
        assert "error category=config" in capsys.readouterr().err

    def test_range_outside_dictionary_domain_exits_2(self, tmp_path, capsys):
        path = _write_json(tmp_path / "report.json", _v1_report(
            "custom", ["1", "ln(x1)"], [[2.0, 1.0]], {(1, 1): [1.0, 0.0]}))
        assert main(["plot-data", "--report", path, "--component", "b1",
                     "--range", "0:1:0.5", "--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert "error category=config" in err and "'ln(x1)'" in err

    @pytest.mark.parametrize("component,corrupt", [
        ("b1", lambda r: r["dictionary"].pop("n")),
        ("b1", lambda r: r["dictionary"].update(names="x1")),
        ("b1", lambda r: r["drift"][0].pop()),
        ("a11", lambda r: r["diffusion"][0].pop("i")),
        ("b1", lambda r: r["drift"][0].__setitem__(0, math.nan)),
        ("b1", lambda r: r.update(drift=[[True, 0.0, False]])),
        ("a11", lambda r: r["diffusion"][0]["coefficients"].__setitem__(1, True)),
        ("b1", lambda r: r["drift"][0].__setitem__(1, 10 ** 400)),
        ("b1", lambda r: r["dictionary"].update(names=["1", "x1 +", "x1^2"])),
        ("b1", lambda r: r["dictionary"].update(names=[])),
        ("b1", lambda r: r["dictionary"].update(names=["1", "x1", "x1"])),
        ("b1", lambda r: r.update(drift=5)),
        ("a11", lambda r: r.update(diffusion=5)),
        ("b1", lambda r: b"\xff\xfe" + json.dumps(r).encode("utf-16-le")),
        ("b1", lambda r: r.pop("levy")),
        ("b1", lambda r: r["levy"][0]["bins_positive"].__setitem__(0, -1)),
        ("b1", lambda r: r.update(format="levy-sid-report v2")),
        ("b1", lambda r: b"[" * 100_000 + b"]" * 100_000),
    ], ids=["no-dictionary-n", "names-not-a-list", "short-drift-row",
            "diffusion-without-i", "nan-drift-coefficient",
            "bool-drift-coefficients", "bool-diffusion-coefficient",
            "int-beyond-float-range", "unparsable-name",
            "empty-names", "duplicate-names", "drift-not-a-list",
            "diffusion-not-a-list", "not-utf8", "no-levy",
            "negative-bin-count", "format-v2", "nested-too-deep"])
    def test_malformed_report_exits_3(self, tmp_path, capsys, component, corrupt):
        # each case corrupts the raw JSON of a complete v1 report; a case
        # that returns bytes writes them in place of the JSON
        self._handmade_report(tmp_path)
        path = tmp_path / "report.json"
        report = json.loads(path.read_text())
        raw = corrupt(report)
        path.write_bytes(raw if isinstance(raw, bytes) else json.dumps(report).encode())
        out = tmp_path / "c.csv"
        assert main(["plot-data", "--report", str(path), "--component", component,
                     "--range", "0:1:0.5", "--out", str(out)]) == 3
        assert "error category=data" in capsys.readouterr().err
        assert not out.exists()


class TestPipelineCommand:
    def _run(self, tmp_path, workdir):
        cfg = _write_json(tmp_path / "model.json", {
            "name": "genereg1d",
            "grid": {"bounds": [[0, 5]], "mesh": [200_000]},
        })
        est = _write_json(tmp_path / "est.json", {
            "epsilon": 0.25, "m": 5.0, "N": 2, "cube_epsilon": 1.0,
            "dictionary": "example2",
        })
        return main(["pipeline", "--config", cfg, "--est-config", est,
                     "--workdir", str(workdir), "--seed", "5"])

    def _simulate_then_estimate(self, tmp_path, pairs):
        report = tmp_path / "report.json"
        assert main(["simulate", "--config", str(tmp_path / "model.json"),
                     "--out", str(pairs), "--seed", "5"]) == 0
        assert main(["estimate", str(pairs), "--est-config",
                     str(tmp_path / "est.json"), "--report", str(report),
                     "--seed", "5"]) == 0
        return report

    def test_csv_estimate_writes_the_same_report(self, tmp_path):
        # estimate of a csv dataset holds the pairs in memory, pipeline
        # reads the dataset.bin it wrote; both write the same report
        workdir = tmp_path / "run"
        assert self._run(tmp_path, workdir) == 0
        pairs = tmp_path / "pairs.csv"
        report = self._simulate_then_estimate(tmp_path, pairs)
        assert pairs.read_bytes().startswith(b"#levy-sid-pairs")
        assert report.read_bytes() == (workdir / "report.json").read_bytes()

    def test_bin_estimate_does_not_hold_the_pairs(self, tmp_path, monkeypatch):
        """The estimate reads dataset.bin one block at a time, and the cube
        survivors through it, so from its first pass to its regressions it
        holds less than the simulated pairs."""
        M = 400_000
        cfg = _write_json(tmp_path / "model.json", {
            "name": "genereg1d", "grid": {"bounds": [[0, 5]], "mesh": [M]}})
        # poly:1 keeps the regression buffers (about 3 MB) below the pairs
        est = _est_config(tmp_path, cube_epsilon=1.0)
        sources = {}
        sizes = {}

        def recording(name, fn):
            def wrapper(data, *args):
                sources[name] = type(data)
                if name == "estimate_levy":
                    tracemalloc.reset_peak()
                return fn(data, *args)
            return wrapper

        def tables(data, *args):
            try:
                return real_tables(data, *args)
            finally:
                sizes["peak"] = tracemalloc.get_traced_memory()[1]

        real_tables = levysid.cli.regression_tables
        for name in ("estimate_levy", "cube_filter"):
            monkeypatch.setattr(levysid.cli, name,
                                recording(name, getattr(levysid.cli, name)))
        monkeypatch.setattr(levysid.cli, "regression_tables", tables)
        tracemalloc.start()
        try:
            assert main(["pipeline", "--config", cfg, "--est-config", est,
                         "--workdir", str(tmp_path / "wd")]) == 0
        finally:
            tracemalloc.stop()
        assert sources == {"estimate_levy": DatasetFile,
                           "cube_filter": DatasetFile}
        pairs = 2 * M * 8
        assert sizes["peak"] < pairs

    def test_artifacts_present(self, tmp_path, capsys):
        workdir = tmp_path / "run"
        assert self._run(tmp_path, workdir) == 0
        assert (workdir / "dataset.bin").exists()
        report = read_report(workdir / "report.json")
        assert report.seed == 5
        assert len(report.levy) == 1
        assert report.table.drift.shape == (1, 19)
        for name in ("plot_b1.csv", "plot_a11.csv"):
            curve = (workdir / name).read_text().splitlines()
            assert len(curve) == 501
            # the plot-data format: three plain floats per row
            values = [[float(v) for v in row.split(",")] for row in curve]
            assert all(len(row) == 3 for row in values)
        assert "component 1:" in capsys.readouterr().out

    def test_existing_workdir_holds_only_artifacts(self, tmp_path):
        # the dataset is staged inside the workdir and renamed into place
        workdir = tmp_path / "run"
        workdir.mkdir()
        assert self._run(tmp_path, workdir) == 0
        assert sorted(p.name for p in workdir.iterdir()) == [
            "dataset.bin", "plot_a11.csv", "plot_b1.csv", "report.json"]

    def test_fixed_seed_reproducible(self, tmp_path):
        w1 = tmp_path / "run1"
        w2 = tmp_path / "run2"
        assert self._run(tmp_path, w1) == 0
        assert self._run(tmp_path, w2) == 0
        assert (w1 / "dataset.bin").read_bytes() == (
            w2 / "dataset.bin").read_bytes()
        assert (w1 / "report.json").read_bytes() == (
            w2 / "report.json").read_bytes()

    def test_matches_simulate_then_estimate(self, tmp_path):
        workdir = tmp_path / "run"
        assert self._run(tmp_path, workdir) == 0
        pairs = tmp_path / "pairs.bin"
        report = self._simulate_then_estimate(tmp_path, pairs)
        assert pairs.read_bytes() == (workdir / "dataset.bin").read_bytes()
        assert report.read_bytes() == (workdir / "report.json").read_bytes()

    @pytest.mark.parametrize("model,component,spec", [
        ("genereg1d", "b1", "0:5:0.01"),
        ("lorenz3d", "a22", "-2:2:0.008"),
    ])
    def test_curves_are_plot_data_curves(self, tmp_path, model, component, spec):
        # each range gives linspace(lo, hi, 501) bit for bit; with --config,
        # plot-data's default --at is the middle of the grid, zeros on [-2, 2]^3
        workdir = tmp_path / "run"
        if model == "genereg1d":
            assert self._run(tmp_path, workdir) == 0
        else:
            est = _est_config(tmp_path, epsilon=0.05, m=3.0, N=2,
                              cube_epsilon=0.5, dictionary="poly:2")
            assert main(["pipeline", "--config", _small_lorenz(tmp_path),
                         "--est-config", est, "--workdir", str(workdir)]) == 0
        out = tmp_path / "curve.csv"
        assert main(["plot-data", "--report", str(workdir / "report.json"),
                     "--config", str(tmp_path / "model.json"),
                     "--component", component, "--range", spec,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (workdir / f"plot_{component}.csv").read_bytes()

    def _ln_plane(self, tmp_path, workdir):
        """pipeline on a 2-D grid [-1, 1] x [1, 2] with ln(x2) in the
        dictionary, undefined at x2 = 0, outside the grid; the model config."""
        cfg = _write_json(tmp_path / "model.json", {
            "dimension": 2, "drift": ["-x1", "1 - ln(x2)"],
            "gaussian": [["0.5", "0"], ["0", "0.5"]],
            "levy": [{"alpha": 1.5, "beta": 0, "sigma": 0.5}] * 2,
            "grid": {"bounds": [[-1, 1], [1, 2]], "mesh": [300, 300]},
            "h": 0.01})
        est = _est_config(tmp_path, N=2, dictionary=["1", "x1", "ln(x2)"])
        assert main(["pipeline", "--config", cfg, "--est-config", est,
                     "--workdir", str(workdir), "--seed", "3"]) == 0
        return cfg

    def test_grid_without_zero_plots_mid_grid(self, tmp_path):
        # each curve holds the other coordinate at the middle of the grid,
        # x1 = 0 or x2 = 1.5
        workdir = tmp_path / "run"
        self._ln_plane(tmp_path, workdir)
        report = read_report(workdir / "report.json")
        diffusion = report.table.diffusion
        dictionary = levysid.cli.build_dictionary(["1", "x1", "ln(x2)"], 2)
        for i, (lo, hi), fixed in ((1, (-1.0, 1.0), 1.5), (2, (1.0, 2.0), 0.0)):
            xs = np.linspace(lo, hi, 501)
            pts = np.full((501, 2), fixed)
            pts[:, i - 1] = xs
            A = design_matrix(dictionary, pts)
            for name, coefs, true in (
                    (f"b{i}", report.table.drift[i - 1],
                     -xs if i == 1 else 1 - np.log(xs)),
                    (f"a{i}{i}", diffusion[i, i], np.full(501, 0.25))):
                rows = np.loadtxt(workdir / f"plot_{name}.csv", delimiter=",")
                np.testing.assert_array_equal(rows[:, 0], xs)
                np.testing.assert_array_equal(rows[:, 1], A @ np.array(coefs))
                np.testing.assert_allclose(rows[:, 2], true, rtol=1e-15)

    def test_plot_data_holds_mid_grid_by_default(self, tmp_path):
        # with --config and no --at, plot-data holds x2 at the middle of the
        # model grid, 1.5, as pipeline does; at 0, ln(x2) would fail
        workdir = tmp_path / "run"
        cfg = self._ln_plane(tmp_path, workdir)
        out = tmp_path / "curve.csv"
        assert main(["plot-data", "--report", str(workdir / "report.json"),
                     "--config", cfg, "--component", "b1",
                     "--range", "-1:1:0.004", "--out", str(out)]) == 0
        assert out.read_bytes() == (workdir / "plot_b1.csv").read_bytes()

    def test_report_round_trips(self, tmp_path):
        # a 3-D report read back and written again gives the same text
        est = _est_config(tmp_path, epsilon=0.05, m=3.0, N=2,
                          cube_epsilon=0.5, dictionary="poly:2")
        workdir = tmp_path / "run"
        assert main(["pipeline", "--config", _small_lorenz(tmp_path),
                     "--est-config", est, "--workdir", str(workdir)]) == 0
        text = (workdir / "report.json").read_text()
        assert Report.from_json(text).to_json() == text

    @pytest.mark.parametrize("model,est", [
        ({"name": "genereg1d", "grid": {"bounds": [[0, 5]], "mesh": [2.5]}}, {}),
        ({"name": "genereg1d", "grid": {"bounds": [[0, 5]], "mesh": [100]}},
         {"N": 2.7}),
        ({"name": "lorenz3d", "grid": {"bounds": [[-2, 2]] * 3, "mesh": [4] * 3}},
         {}),
        ({"name": "genereg1d", "dimension": True, "drift": ["-x1"],
          "grid": {"bounds": [[0, 5]], "mesh": [100]}}, {}),
    ], ids=["fractional-mesh", "fractional-N", "example2-on-3d-model",
            "dimension-bool"])
    def test_malformed_input_creates_no_workdir(self, tmp_path, capsys, model, est):
        cfg = _write_json(tmp_path / "model.json", model)
        est = _write_json(tmp_path / "est.json", dict({
            "epsilon": 0.25, "m": 5.0, "N": 2, "cube_epsilon": 1.0,
            "dictionary": "example2"}, **est))
        workdir = tmp_path / "run"
        assert main(["pipeline", "--config", cfg, "--est-config", est,
                     "--workdir", str(workdir)]) == 2
        assert "error category=config" in capsys.readouterr().err
        assert not workdir.exists()

    def test_failed_simulation_creates_no_workdir(self, tmp_path, capsys):
        # 1/x1 faults at the grid point x1 = 0
        cfg = _write_json(tmp_path / "model.json", {
            "dimension": 1, "drift": ["1/x1"], "gaussian": None, "levy": None,
            "grid": {"bounds": [[0, 1]], "mesh": [11]}, "h": 0.01})
        est = _write_json(tmp_path / "est.json", {
            "epsilon": 0.25, "m": 5.0, "N": 2, "dictionary": "poly:1"})
        workdir = tmp_path / "wd"
        assert main(["pipeline", "--config", cfg, "--est-config", est,
                     "--workdir", str(workdir)]) == 2
        err = capsys.readouterr().err
        assert "error category=config" in err
        assert "coefficient evaluation failed on rows 0..10" in err
        assert not workdir.exists()

    def test_failed_simulation_leaves_existing_workdir_empty(self, tmp_path):
        # the staged file sits in the workdir itself and is removed
        cfg = _write_json(tmp_path / "model.json", {
            "dimension": 1, "drift": ["1/x1"], "gaussian": None, "levy": None,
            "grid": {"bounds": [[0, 1]], "mesh": [11]}, "h": 0.01})
        est = _write_json(tmp_path / "est.json", {
            "epsilon": 0.25, "m": 5.0, "N": 2, "dictionary": "poly:1"})
        workdir = tmp_path / "wd"
        workdir.mkdir()
        assert main(["pipeline", "--config", cfg, "--est-config", est,
                     "--workdir", str(workdir)]) == 2
        assert list(workdir.iterdir()) == []


class TestMalformedWorkerCount:
    """A malformed LEVYSID_WORKERS is a config error: exit 2 before any
    file or directory is written, and before any worker thread starts."""

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        # 1000 rows in 100-row blocks: a valid count above 1 would start a pool
        monkeypatch.setattr(levysid.simulate, "CHUNK_ROWS", 100)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(levysid.simulate, "ThreadPoolExecutor", no_pool)
        cfg = _write_json(tmp_path / "model.json", {
            "name": "genereg1d", "grid": {"bounds": [[0, 5]], "mesh": [1000]}})
        return cfg, _est_config(tmp_path)

    @pytest.mark.parametrize("raw", ["two", "0", "-1", "1.5"])
    def test_simulate_exits_2(self, tmp_path, monkeypatch, capsys, inputs, raw):
        monkeypatch.setenv("LEVYSID_WORKERS", raw)
        out = tmp_path / "pairs.bin"
        assert main(["simulate", "--config", inputs[0], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error category=config" in err and "LEVYSID_WORKERS" in err
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["two", "0", "-1", "1.5"])
    def test_pipeline_exits_2(self, tmp_path, monkeypatch, capsys, inputs, raw):
        monkeypatch.setenv("LEVYSID_WORKERS", raw)
        workdir = tmp_path / "run"
        assert main(["pipeline", "--config", inputs[0], "--est-config",
                     inputs[1], "--workdir", str(workdir)]) == 2
        err = capsys.readouterr().err
        assert "error category=config" in err and "LEVYSID_WORKERS" in err
        assert not workdir.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "levysid.cli", "--help"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "pipeline" in proc.stdout

    def test_unknown_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "levysid.cli", "frobnicate"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0

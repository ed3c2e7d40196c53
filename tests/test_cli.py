"""Command-line interface: subcommands, exit codes, artifacts."""

import json
import subprocess
import sys

import numpy as np
import pytest

from levysid import (
    ConfigError,
    DatasetPair,
    RandomStream,
    read_dataset,
    read_report,
    sample_stable,
    write_dataset,
    write_report,
)
from levysid.cli import main, parse_component, parse_range


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _small_lorenz(tmp_path, mesh=20):
    return _write_json(tmp_path / "model.json", {
        "name": "lorenz3d",
        "grid": {"bounds": [[-2, 2]] * 3, "mesh": [mesh] * 3},
    })


def _cauchy_dataset(tmp_path, M=200_000):
    # symmetric unit Cauchy increments: every bin well occupied at eps=1
    Y = sample_stable(1.0, 0.0, 1.0, M, RandomStream.from_seed(77))
    Z = np.linspace(0.0, 1.0, M)[:, None]
    data = DatasetPair.from_arrays(Z, Z + Y[:, None], 0.001)
    path = tmp_path / "pairs.csv"
    write_dataset(data, path, "csv")
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

    def test_binary_format_flag(self, tmp_path):
        cfg = _small_lorenz(tmp_path, mesh=5)
        out = tmp_path / "data.bin"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--format", "bin"]) == 0
        assert out.read_bytes()[:4] == b"LSID"
        assert read_dataset(out).M == 125

    def test_binary_is_default_at_small_m(self, tmp_path):
        cfg = _small_lorenz(tmp_path, mesh=5)
        out = tmp_path / "data"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes()[:4] == b"LSID"
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

    def test_missing_config_exits_3(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "d.csv")])
        assert code == 3
        assert "category=data" in capsys.readouterr().err

    def test_bad_grid_exits_2(self, tmp_path):
        cfg = _write_json(tmp_path / "model.json", {
            "name": "genereg1d", "grid": {"bounds": [[5, 0]], "mesh": [10]},
        })
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "d.csv")]) == 2


class TestEstimateCommand:
    def test_report_written(self, tmp_path):
        data_path = _cauchy_dataset(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(["estimate", data_path,
                     "--est-config", _est_config(tmp_path),
                     "--report", str(report_path)])
        assert code == 0
        report = read_report(report_path)
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

    def test_report_reserialization_byte_identical(self, tmp_path):
        data_path = _cauchy_dataset(tmp_path)
        report_path = tmp_path / "report.json"
        main(["estimate", data_path, "--est-config", _est_config(tmp_path),
              "--report", str(report_path)])
        blob = report_path.read_bytes()
        write_report(read_report(report_path), report_path)
        assert report_path.read_bytes() == blob

    def test_insufficient_rows_exits_4(self, tmp_path):
        Y = np.linspace(2.0, 3.0, 5)
        data = DatasetPair.from_arrays(np.zeros((5, 1)), Y[:, None], 0.001)
        path = tmp_path / "tiny.csv"
        write_dataset(data, path, "csv")
        code = main(["estimate", str(path),
                     "--est-config", _est_config(tmp_path, dictionary="poly:9"),
                     "--report", str(tmp_path / "r.json")])
        assert code == 4

    def test_bad_est_config_exits_2(self, tmp_path):
        data_path = _cauchy_dataset(tmp_path)
        bad = _write_json(tmp_path / "est.json", {"m": 5.0, "N": 1,
                                                  "dictionary": "poly:1"})
        assert main(["estimate", data_path, "--est-config", bad,
                     "--report", str(tmp_path / "r.json")]) == 2

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
    def test_overflowing_sums_exit_5(self, tmp_path, capsys, h, big_rows):
        Y = sample_stable(1.0, 0.0, 1.0, 400, RandomStream.from_seed(77))
        Z = np.linspace(-1.0, 1.0, 400)[:, None]
        Z[big_rows] = 1e100
        path = tmp_path / "pairs.bin"
        write_dataset(DatasetPair.from_arrays(Z, Z + Y[:, None], h), path, "bin")
        report = tmp_path / "r.json"
        assert main(["estimate", str(path),
                     "--est-config", _est_config(tmp_path, dictionary="poly:2"),
                     "--report", str(report)]) == 5
        assert "error category=numeric" in capsys.readouterr().err
        assert not report.exists()


class TestPlotDataCommand:
    def _handmade_report(self, tmp_path):
        report = {
            "dictionary": {"kind": "poly:2", "n": 1,
                           "names": ["1", "x1", "x1^2"]},
            "drift": [[2.0, 0.0, 0.0]],
            "diffusion": [{"i": 1, "j": 1,
                           "coefficients": [1.0, 0.5, 0.0],
                           "residual": 0.0}],
        }
        path = tmp_path / "report.json"
        write_report(report, path)
        return str(path)

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
        path = self._handmade_report(tmp_path)
        report = read_report(path)
        report["dictionary"]["names"] = ["1", "ln(x1)"]
        report["drift"] = [[2.0, 1.0]]
        report["diffusion"][0]["coefficients"] = [1.0, 0.0]
        write_report(report, path)
        assert main(["plot-data", "--report", path, "--component", "b1",
                     "--range", "0:1:0.5", "--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert "error category=config" in err and "'ln(x1)'" in err

    @pytest.mark.parametrize("component,corrupt", [
        ("b1", lambda r: r["dictionary"].pop("n")),
        ("b1", lambda r: r["dictionary"].update(names="x1")),
        ("b1", lambda r: r["drift"][0].pop()),
        ("a11", lambda r: r["diffusion"][0].pop("i")),
    ], ids=["no-dictionary-n", "names-not-a-list", "short-drift-row",
            "diffusion-without-i"])
    def test_malformed_report_exits_3(self, tmp_path, capsys, component, corrupt):
        path = self._handmade_report(tmp_path)
        report = read_report(path)
        corrupt(report)
        write_report(report, path)
        assert main(["plot-data", "--report", path, "--component", component,
                     "--range", "0:1:0.5", "--out", str(tmp_path / "c.csv")]) == 3
        assert "error category=data" in capsys.readouterr().err


class TestPipelineCommand:
    def _run(self, tmp_path, workdir, seed="5"):
        cfg = _write_json(tmp_path / "model.json", {
            "name": "genereg1d",
            "grid": {"bounds": [[0, 5]], "mesh": [200_000]},
        })
        est = _write_json(tmp_path / "est.json", {
            "epsilon": 0.25, "m": 5.0, "N": 2, "cube_epsilon": 1.0,
            "dictionary": "example2",
        })
        return main(["pipeline", "--config", cfg, "--est-config", est,
                     "--workdir", str(workdir), "--seed", seed])

    def test_artifacts_present(self, tmp_path, capsys):
        workdir = tmp_path / "run"
        assert self._run(tmp_path, workdir) == 0
        assert (workdir / "dataset.bin").exists()
        report = read_report(workdir / "report.json")
        assert report["seed"] == 5
        assert len(report["levy"]) == 1
        assert len(report["drift"][0]) == 19
        for name in ("plot_b1.csv", "plot_a11.csv"):
            curve = (workdir / name).read_text().splitlines()
            assert len(curve) == 501
            # the plot-data format: three plain floats per row
            values = [[float(v) for v in row.split(",")] for row in curve]
            assert all(len(row) == 3 for row in values)
        assert "component 1:" in capsys.readouterr().out

    def test_fixed_seed_reproducible(self, tmp_path):
        w1 = tmp_path / "run1"
        w2 = tmp_path / "run2"
        assert self._run(tmp_path, w1) == 0
        assert self._run(tmp_path, w2) == 0
        assert (w1 / "dataset.bin").read_bytes() == (
            w2 / "dataset.bin").read_bytes()
        assert (w1 / "report.json").read_bytes() == (
            w2 / "report.json").read_bytes()


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

"""Command-line pipeline: simulate, estimate, plot-data, pipeline.

Exit codes: 0 ok, 2 config error, 3 data/IO error, 4 insufficient data,
5 numeric failure, 1 anything else. Every failure prints one line
``error category=<cat>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
import warnings as _warnings
from pathlib import Path

import numpy as np

from .basis import (
    BasisDictionary,
    design_matrix,
    example2_dictionary,
    polynomial_dictionary,
)
from .dataio import read_dataset, read_report, write_dataset, write_report
from .errors import (
    ConfigError,
    DataFormatError,
    DomainError,
    EvaluationDomainError,
    ExpressionError,
    InsufficientDataError,
    LevysidError,
    NumericError,
)
from .estimate import EstimationConfig, cube_filter, estimate_levy, regression_tables
from .expr import evaluate_block, parse_expression
from .models import model_from_config, resolve_config
from .simulate import GRID_ROW_CAP, generate_grid, simulate_pairs


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot open {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _require_grid(cfg):
    grid = cfg.get("grid")
    if not isinstance(grid, dict) or "bounds" not in grid or "mesh" not in grid:
        raise ConfigError("model config needs grid.bounds and grid.mesh",
                          field="grid")
    return grid["bounds"], grid["mesh"]


def _require_h(cfg):
    h = cfg.get("h")
    if not isinstance(h, (int, float)) or not h > 0:
        raise ConfigError(f"model config needs a positive step size h, got {h!r}",
                          field="h")
    return float(h)


def load_est_config(doc):
    """EstimationConfig plus the dictionary spec from an est-config dict."""
    if not isinstance(doc, dict):
        raise ConfigError("estimation config must be a JSON object")
    try:
        config = EstimationConfig(
            float(doc["epsilon"]), float(doc["m"]), int(doc["N"]),
            None if doc.get("cube_epsilon") is None else float(doc["cube_epsilon"]))
    except KeyError as exc:
        raise ConfigError(f"estimation config is missing {exc}") from exc
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"estimation config: {exc}") from exc
    spec = doc.get("dictionary")
    if spec is None:
        raise ConfigError("estimation config needs a 'dictionary' entry",
                          field="dictionary")
    return config, spec


def build_dictionary(spec, n):
    """Resolve 'poly:<degree>', 'example2', or an expression list."""
    if isinstance(spec, str):
        if spec == "example2":
            if n != 1:
                raise ConfigError(
                    f"dictionary 'example2' is 1-D, dataset has n={n}",
                    field="dictionary")
            return example2_dictionary()
        m = re.fullmatch(r"poly:(\d+)", spec)
        if m:
            return polynomial_dictionary(n, int(m.group(1)))
        raise ConfigError(f"unknown dictionary spec {spec!r}", field="dictionary")
    if isinstance(spec, list) and spec and all(isinstance(s, str) for s in spec):
        try:
            funcs = tuple(parse_expression(text, n) for text in spec)
        except ExpressionError as exc:
            raise ConfigError(f"dictionary expression: {exc}",
                              field="dictionary") from exc
        return BasisDictionary(n, tuple(spec), funcs)
    raise ConfigError("dictionary must be 'poly:<d>', 'example2', or a list "
                      "of expression strings", field="dictionary")


def _dictionary_kind(spec):
    return spec if isinstance(spec, str) else "custom"


def _estimate_all(data, config, dictionary):
    """Run the full estimator chain, collecting levysid warnings."""
    caught = []
    with _warnings.catch_warnings(record=True) as records:
        _warnings.simplefilter("always")
        levy = estimate_levy(data, config)
        filtered, fraction = cube_filter(data, config.cube_half_width)
        table = regression_tables(
            filtered, fraction, dictionary, [e.params for e in levy], config)
        for rec in records:
            if isinstance(rec.message, UserWarning):
                caught.append(str(rec.message))
    return levy, fraction, table, caught


def build_report(data, config, dict_spec, dictionary, levy, fraction, table,
                 warning_messages, seed=None):
    report = {
        "format": "levy-sid-report v1",
        "dataset": {"n": data.n, "M": data.M, "h": data.h},
        "estimation": {
            "epsilon": config.epsilon,
            "m": config.m,
            "N": config.N,
            "cube_epsilon": config.cube_epsilon,
        },
        "dictionary": {
            "kind": _dictionary_kind(dict_spec),
            "n": dictionary.n,
            "names": list(dictionary.names),
        },
        "levy": [
            {
                "component": e.component,
                "alpha": float(e.alpha),
                "beta": float(e.beta),
                "sigma": float(e.sigma),
                "bins_positive": [int(v) for v in e.counts.pos],
                "bins_negative": [int(v) for v in e.counts.neg],
            }
            for e in levy
        ],
        "survival_fraction": float(fraction),
        "drift": [[float(v) for v in row] for row in table.drift],
        "drift_residuals": [float(v) for v in table.drift_residuals],
        "diffusion": [
            {
                "i": i,
                "j": j,
                "coefficients": [float(v) for v in table.diffusion[(i, j)]],
                "residual": float(table.diffusion_residuals[(i, j)]),
            }
            for (i, j) in sorted(table.diffusion)
        ],
        "warnings": list(warning_messages),
    }
    if seed is not None:
        report["seed"] = int(seed)
    return report


def _print_levy(levy):
    for e in levy:
        print(f"component {e.component}: alpha={e.alpha:.4f} "
              f"beta={e.beta:.4f} sigma={e.sigma:.4f}")


def cmd_simulate(args):
    cfg = resolve_config(_load_json(args.config, "model config"))
    model = model_from_config(cfg)
    bounds, mesh = _require_grid(cfg)
    h = _require_h(cfg)
    Z = generate_grid(bounds, mesh)
    t0 = time.perf_counter()
    data = simulate_pairs(model, Z, h, args.seed)
    dt = time.perf_counter() - t0
    write_dataset(data, args.out, args.format)
    rate = data.M / dt if dt > 0 else float("inf")
    print(f"simulated M={data.M} n={data.n} h={data.h} "
          f"({args.format}, {dt:.2f}s, {rate:.0f} rows/s)")
    return 0


def cmd_estimate(args):
    data = read_dataset(args.data)
    config, dict_spec = load_est_config(
        _load_json(args.est_config, "estimation config"))
    dictionary = build_dictionary(dict_spec, data.n)
    t0 = time.perf_counter()
    levy, fraction, table, caught = _estimate_all(data, config, dictionary)
    dt = time.perf_counter() - t0
    report = build_report(data, config, dict_spec, dictionary, levy, fraction,
                          table, caught, seed=args.seed)
    write_report(report, args.report)
    _print_levy(levy)
    print(f"survival fraction {fraction:.6f}; estimated in {dt:.2f}s")
    return 0


_COMPONENT_RE = re.compile(r"(?:b(\d+)|a(\d+),(\d+)|a(\d)(\d))$")


def parse_component(spec):
    """'b2' -> ('drift', 2); 'a11' or 'a1,1' -> ('diffusion', 1, 1)."""
    m = _COMPONENT_RE.fullmatch(spec.strip())
    if m is None:
        raise ConfigError(
            f"cannot parse component {spec!r}; use b<i>, a<i><j> or a<i>,<j>",
            field="component")
    if m.group(1):
        return ("drift", int(m.group(1)))
    if m.group(2):
        return ("diffusion", int(m.group(2)), int(m.group(3)))
    return ("diffusion", int(m.group(4)), int(m.group(5)))


def parse_range(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be start:stop:step, got {spec!r}",
                          field="range")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"range {spec!r}: {exc}", field="range") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"range needs finite start, stop and step, got {spec!r}",
                          field="range")
    if step <= 0 or stop <= start:
        raise ConfigError(
            f"range needs stop > start and step > 0, got {spec!r}", field="range")
    steps = (stop - start) / step + 1e-9
    if not steps < GRID_ROW_CAP:
        raise ConfigError(f"range {spec!r} has more than {GRID_ROW_CAP} points",
                          field="range")
    return start + step * np.arange(int(np.floor(steps)) + 1)


def _report_dictionary(report):
    doc = report.get("dictionary") if isinstance(report, dict) else None
    if not isinstance(doc, dict):
        raise DataFormatError("report carries no dictionary section")
    n, names = doc.get("n"), doc.get("names")
    if type(n) is not int or n < 1:
        raise DataFormatError(
            f"report dictionary.n must be a positive integer, got {n!r}")
    if not isinstance(names, list) or not all(isinstance(t, str) for t in names):
        raise DataFormatError("report dictionary.names must be a list of strings")
    funcs = tuple(parse_expression(text, n) for text in names)
    return BasisDictionary(n, tuple(names), funcs)


def _report_coefficients(report, parsed, K):
    """Coefficient vector of one parsed drift or diffusion component."""
    if parsed[0] == "drift":
        i = parsed[1]
        rows = report.get("drift", [])
        if not 1 <= i <= len(rows):
            raise ConfigError(f"report has no drift component b{i}",
                              field="component")
        values = rows[i - 1]
    else:
        i, j = sorted(parsed[1:])
        entries = report.get("diffusion", [])
        if not all(isinstance(d, dict) and "i" in d and "j" in d for d in entries):
            raise DataFormatError("report diffusion entries need i and j")
        match = [d for d in entries if d["i"] == i and d["j"] == j]
        if not match:
            raise ConfigError(f"report has no diffusion entry a{i}{j}",
                              field="component")
        values = match[0].get("coefficients")
    if not (isinstance(values, list) and len(values) == K
            and all(isinstance(v, (int, float)) for v in values)):
        raise DataFormatError(
            f"report {parsed[0]} coefficients must be a list of {K} numbers")
    return np.asarray(values, dtype=np.float64)


def _true_values(model, kind, indices, pts):
    if kind == "drift":
        return evaluate_block(model.drift[indices[0] - 1], pts)
    lam = model.gaussian_at(pts)
    i, j = indices
    return np.einsum("rk,rk->r", lam[:, i - 1, :], lam[:, j - 1, :])


def _write_curve(path, columns):
    """One CSV row per point: the columns' values as shortest round-trip floats."""
    with open(path, "w", encoding="ascii") as fh:
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def cmd_plot_data(args):
    report = read_report(args.report)
    dictionary = _report_dictionary(report)
    n = dictionary.n
    parsed = parse_component(args.component)
    xs = parse_range(args.range)

    at = [0.0] * n
    if args.at:
        try:
            at = [float(v) for v in args.at.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--at: {exc}", field="at") from exc
        if len(at) != n or not all(math.isfinite(v) for v in at):
            raise ConfigError(f"--at needs {n} comma-separated finite values",
                              field="at")
    axis = args.axis if args.axis is not None else parsed[1]
    if not 1 <= axis <= n:
        raise ConfigError(f"--axis must be in 1..{n}", field="axis")
    pts = np.tile(np.asarray(at, dtype=np.float64), (xs.size, 1))
    pts[:, axis - 1] = xs

    coefs = _report_coefficients(report, parsed, dictionary.K)
    learned = design_matrix(dictionary, pts) @ coefs

    columns = [xs, learned]
    if args.config:
        model = model_from_config(_load_json(args.config, "model config"))
        columns.append(_true_values(model, parsed[0], parsed[1:], pts))
    _write_curve(args.out, columns)
    print(f"wrote {xs.size} rows to {args.out}")
    return 0


def cmd_pipeline(args):
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = resolve_config(_load_json(args.config, "model config"))
    model = model_from_config(cfg)
    bounds, mesh = _require_grid(cfg)
    h = _require_h(cfg)
    config, dict_spec = load_est_config(
        _load_json(args.est_config, "estimation config"))
    dictionary = build_dictionary(dict_spec, model.n)

    t0 = time.perf_counter()
    Z = generate_grid(bounds, mesh)
    data = simulate_pairs(model, Z, h, args.seed)
    t_sim = time.perf_counter() - t0
    write_dataset(data, workdir / f"dataset.{args.format}", args.format)

    t1 = time.perf_counter()
    levy, fraction, table, caught = _estimate_all(data, config, dictionary)
    t_est = time.perf_counter() - t1
    report = build_report(data, config, dict_spec, dictionary, levy, fraction,
                          table, caught, seed=args.seed)
    report_path = workdir / "report.json"
    write_report(report, report_path)

    # emit drift/diffusion curves per component along that component's axis
    for i in range(1, model.n + 1):
        lo, hi = (float(v) for v in bounds[i - 1])
        xs = np.linspace(lo, hi, 501)
        pts = np.zeros((xs.size, model.n))
        pts[:, i - 1] = xs
        A = design_matrix(dictionary, pts)
        _write_curve(workdir / f"plot_b{i}.csv", (
            xs, A @ table.drift[i - 1], _true_values(model, "drift", (i,), pts)))
        _write_curve(workdir / f"plot_a{i}{i}.csv", (
            xs, A @ table.diffusion[(i, i)],
            _true_values(model, "diffusion", (i, i), pts)))

    _print_levy(levy)
    print(f"pipeline done: simulate {t_sim:.2f}s, estimate {t_est:.2f}s, "
          f"artifacts in {workdir}")
    return 0


_CATEGORIES = (
    ((ConfigError, ExpressionError, DomainError, EvaluationDomainError), "config", 2),
    ((DataFormatError, OSError), "data", 3),
    ((InsufficientDataError,), "insufficient-data", 4),
    ((NumericError,), "numeric", 5),
    ((LevysidError,), "error", 1),
)


def _dispatch(fn, args):
    try:
        return fn(args)
    except Exception as exc:  # categorize for scripted callers
        for types, category, code in _CATEGORIES:
            if isinstance(exc, types):
                print(f"error category={category}: {exc}", file=sys.stderr)
                return code
        print(f"error category=error: {exc}", file=sys.stderr)
        return 1


def make_parser():
    parser = argparse.ArgumentParser(
        prog="levysid",
        description="Simulate SDE pair data driven by stable jumps and "
                    "identify the governing law back from it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a pair dataset from a model config")
    p.add_argument("--config", required=True, help="model config JSON path")
    p.add_argument("--out", required=True, help="dataset output path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "bin"), default="bin",
                   help="dataset encoding (default: bin)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("estimate", help="identify noise, drift and diffusion")
    p.add_argument("data", help="dataset path (csv or bin, auto-detected)")
    p.add_argument("--est-config", required=True, help="estimation config JSON path")
    p.add_argument("--report", required=True, help="report JSON output path")
    p.add_argument("--seed", type=int, default=None,
                   help="seed to echo into the report (informational)")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("plot-data", help="emit (x, learned[, true]) curve CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--config", default=None,
                   help="model config; adds the true-value column")
    p.add_argument("--component", required=True, help="b<i>, a<i><j> or a<i>,<j>")
    p.add_argument("--range", required=True, help="start:stop:step")
    p.add_argument("--out", required=True)
    p.add_argument("--axis", type=int, default=None,
                   help="axis to sweep for n > 1 (default: the component index)")
    p.add_argument("--at", default=None,
                   help="comma-separated fixed coordinates for n > 1 (default zeros)")
    p.set_defaults(fn=cmd_plot_data)

    p = sub.add_parser("pipeline", help="simulate, estimate and plot in one run")
    p.add_argument("--config", required=True)
    p.add_argument("--est-config", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "bin"), default="bin",
                   help="dataset encoding (default: bin)")
    p.set_defaults(fn=cmd_pipeline)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    return _dispatch(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())

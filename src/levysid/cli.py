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
from .dataio import (
    DatasetFile,
    read_dataset,
    read_report,
    write_dataset,
    write_report,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DomainError,
    EvaluationDomainError,
    ExpressionError,
    InsufficientDataError,
    LevysidError,
    NumericError,
    number,
    positive,
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


def _model_inputs(path):
    """(model, bounds, mesh, h) from a model config file."""
    cfg = resolve_config(_load_json(path, "model config"))
    model = model_from_config(cfg)
    grid = cfg.get("grid")
    if not isinstance(grid, dict) or "bounds" not in grid or "mesh" not in grid:
        raise ConfigError("model config needs grid.bounds and grid.mesh")
    h = cfg.get("h")
    try:
        h = positive("h", number("h", h))
    except DomainError as exc:
        raise ConfigError(f"model config needs a positive, finite step size h, "
                          f"got {h!r}") from exc
    return model, grid["bounds"], grid["mesh"], h


def load_est_config(doc):
    """EstimationConfig plus the dictionary spec from an est-config dict."""
    if not isinstance(doc, dict):
        raise ConfigError("estimation config must be a JSON object")
    try:
        config = EstimationConfig(
            number("epsilon", doc["epsilon"]), number("m", doc["m"]),
            number("N", doc["N"], whole=True),
            None if doc.get("cube_epsilon") is None
            else number("cube_epsilon", doc["cube_epsilon"]))
    except KeyError as exc:
        raise ConfigError(f"estimation config is missing {exc}") from exc
    except DomainError as exc:
        raise ConfigError(f"estimation config: {exc}") from exc
    spec = doc.get("dictionary")
    if spec is None:
        raise ConfigError("estimation config needs a 'dictionary' entry")
    return config, spec


def build_dictionary(spec, n):
    """Resolve 'poly:<degree>', 'example2', or an expression list."""
    if isinstance(spec, str):
        if spec == "example2":
            if n != 1:
                raise ConfigError(f"dictionary 'example2' is 1-D, dataset has n={n}")
            return example2_dictionary()
        m = re.fullmatch(r"poly:(\d+)", spec)
        if m:
            return polynomial_dictionary(n, int(m.group(1)))
        raise ConfigError(f"unknown dictionary spec {spec!r}")
    if isinstance(spec, list) and spec and all(isinstance(s, str) for s in spec):
        try:
            funcs = tuple(parse_expression(text, n) for text in spec)
        except ExpressionError as exc:
            raise ConfigError(f"dictionary expression: {exc}") from exc
        return BasisDictionary(n, tuple(spec), funcs)
    raise ConfigError("dictionary must be 'poly:<d>', 'example2', or a list "
                      "of expression strings")


def _estimation_inputs(path, n):
    """(config, dictionary spec, dictionary) from an est-config file."""
    config, spec = load_est_config(_load_json(path, "estimation config"))
    return config, spec, build_dictionary(spec, n)


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
    return levy, table, caught


def build_report(data, config, dict_spec, levy, table, warning_messages,
                 seed=None):
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
            "kind": dict_spec if isinstance(dict_spec, str) else "custom",
            "n": table.dictionary.n,
            "names": list(table.dictionary.names),
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
        "survival_fraction": float(table.fraction),
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


def _estimate(data, config, spec, dictionary, seed, report_path):
    """Run the estimator chain and write its report; (levy, table, seconds)."""
    t0 = time.perf_counter()
    levy, table, caught = _estimate_all(data, config, dictionary)
    seconds = time.perf_counter() - t0
    write_report(build_report(data, config, spec, levy, table, caught, seed=seed),
                 report_path)
    return levy, table, seconds


def _print_levy(levy):
    for e in levy:
        print(f"component {e.component}: alpha={e.alpha:.4f} "
              f"beta={e.beta:.4f} sigma={e.sigma:.4f}")


def cmd_simulate(args):
    model, bounds, mesh, h = _model_inputs(args.config)
    Z = generate_grid(bounds, mesh)
    t0 = time.perf_counter()
    data = simulate_pairs(model, Z, h, args.seed)
    dt = time.perf_counter() - t0
    fmt = args.format or ("csv" if Path(args.out).suffix == ".csv" else "bin")
    write_dataset(data, args.out, fmt)
    rate = data.M / dt if dt > 0 else float("inf")
    print(f"simulated M={data.M} n={data.n} h={data.h} "
          f"({fmt}, {dt:.2f}s, {rate:.0f} rows/s)")
    return 0


def cmd_estimate(args):
    data = read_dataset(args.data)
    config, spec, dictionary = _estimation_inputs(args.est_config, data.n)
    levy, table, dt = _estimate(data, config, spec, dictionary, args.seed,
                                args.report)
    _print_levy(levy)
    print(f"survival fraction {table.fraction:.6f}; estimated in {dt:.2f}s")
    return 0


_COMPONENT_RE = re.compile(r"(?:b(\d+)|a(\d+),(\d+)|a(\d)(\d))$")


def parse_component(spec):
    """'b2' -> ('drift', 2); 'a11' or 'a1,1' -> ('diffusion', 1, 1)."""
    m = _COMPONENT_RE.fullmatch(spec.strip())
    if m is None:
        raise ConfigError(
            f"cannot parse component {spec!r}; use b<i>, a<i><j> or a<i>,<j>")
    if m.group(1):
        return ("drift", int(m.group(1)))
    if m.group(2):
        return ("diffusion", int(m.group(2)), int(m.group(3)))
    return ("diffusion", int(m.group(4)), int(m.group(5)))


def parse_range(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"range {spec!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"range needs finite start, stop and step, got {spec!r}")
    if step <= 0 or stop <= start:
        raise ConfigError(f"range needs stop > start and step > 0, got {spec!r}")
    steps = (stop - start) / step + 1e-9
    if not steps < GRID_ROW_CAP:
        raise ConfigError(f"range {spec!r} has more than {GRID_ROW_CAP} points")
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
    try:
        return build_dictionary(names, n)
    except (ConfigError, DomainError) as exc:
        raise DataFormatError(f"report dictionary.names: {exc}") from exc


def _report_coefficients(report, parsed, K):
    """Coefficient vector of one parsed drift or diffusion component."""
    if parsed[0] == "drift":
        i = parsed[1]
        rows = report.get("drift", [])
        if not 1 <= i <= len(rows):
            raise ConfigError(f"report has no drift component b{i}")
        values = rows[i - 1]
    else:
        i, j = sorted(parsed[1:])
        entries = report.get("diffusion", [])
        if not all(isinstance(d, dict) and "i" in d and "j" in d for d in entries):
            raise DataFormatError("report diffusion entries need i and j")
        match = [d for d in entries if d["i"] == i and d["j"] == j]
        if not match:
            raise ConfigError(f"report has no diffusion entry a{i}{j}")
        values = match[0].get("coefficients")
    # no bools, as in errors.number; NaN, inf and too large ints fail the bound
    if not (isinstance(values, list) and len(values) == K
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                    for v in values)):
        raise DataFormatError(
            f"report {parsed[0]} coefficients must be a list of {K} finite numbers")
    return np.asarray(values, dtype=np.float64)


def _true_values(model, kind, indices, pts):
    if kind == "drift":
        return evaluate_block(model.drift[indices[0] - 1], pts)
    # einsum's sums depend on the layout of its inputs; the curves keep the
    # bits of row-major Lambda
    lam = np.ascontiguousarray(model.gaussian_at(pts))
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
            raise ConfigError(f"--at: {exc}") from exc
        if len(at) != n or not all(math.isfinite(v) for v in at):
            raise ConfigError(f"--at needs {n} comma-separated finite values")
    axis = args.axis if args.axis is not None else parsed[1]
    if not 1 <= axis <= n:
        raise ConfigError(f"--axis must be in 1..{n}")
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
    # every input is checked, and the simulation done, before the workdir
    # exists
    model, bounds, mesh, h = _model_inputs(args.config)
    config, spec, dictionary = _estimation_inputs(args.est_config, model.n)
    t0 = time.perf_counter()
    # no local keeps the grid, so the pairs are freed once data is rebound
    data = simulate_pairs(model, generate_grid(bounds, mesh), h, args.seed)
    t_sim = time.perf_counter() - t0
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"dataset.{args.format}"
    write_dataset(data, path, args.format)
    if args.format == "bin":
        # estimate from the page-cached file, block by block, as estimate
        # does; this process wrote its header, so read_dataset is not needed
        data = DatasetFile(str(path), data.n, data.M, data.h)
    levy, table, t_est = _estimate(data, config, spec, dictionary, args.seed,
                                   workdir / "report.json")

    # emit drift/diffusion curves per component along that component's axis
    for i in range(1, model.n + 1):
        lo, hi = (float(v) for v in bounds[i - 1])
        xs = np.linspace(lo, hi, 501)
        pts = np.zeros((xs.size, model.n))
        pts[:, i - 1] = xs
        _write_curve(workdir / f"plot_b{i}.csv", (
            xs, table.drift_value(i, pts), _true_values(model, "drift", (i,), pts)))
        _write_curve(workdir / f"plot_a{i}{i}.csv", (
            xs, table.diffusion_value(i, i, pts),
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
    p.add_argument("--format", choices=("csv", "bin"), default=None,
                   help="dataset encoding (default: csv if --out ends in "
                        ".csv, else bin)")
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


# plot-data options whose value may start with "-"; argparse would read a
# value such as -1:1:0.5 as an option
DASH_VALUE_OPTIONS = ("--range", "--at")


def _join_dash_values(argv):
    """argv with each ``--range V`` or ``--at V`` whose V starts with a
    single "-" written as ``--range=V``, the form argparse reads as a value."""
    args = []
    for arg in argv:
        if (args and args[-1] in DASH_VALUE_OPTIONS
                and arg.startswith("-") and not arg.startswith("--")):
            args[-1] = f"{args[-1]}={arg}"
        else:
            args.append(arg)
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser().parse_args(_join_dash_values(argv))
    return _dispatch(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())

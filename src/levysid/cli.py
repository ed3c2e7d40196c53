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

from .basis import build_dictionary, design_matrix
from .dataio import (
    DatasetFile,
    Report,
    csv_block,
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
from .estimate import cube_filter, estimate_levy, load_est_config, regression_tables
from .expr import evaluate_block
from .models import model_from_config, resolve_config
from .simulate import GRID_ROW_CAP, Grid, simulate_pairs


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot open {what} {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"{what} {path} is not valid UTF-8 JSON: {exc}") from exc


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


def _estimation_inputs(path, n):
    """(config, dictionary spec, dictionary) from an est-config file."""
    config, spec = load_est_config(_load_json(path, "estimation config"))
    return config, spec, build_dictionary(spec, n)


def build_report(data, config, dict_spec, levy, table, warning_messages,
                 seed=None):
    """The Report of one estimate: ``dict_spec`` gives its dictionary kind."""
    kind = dict_spec if isinstance(dict_spec, str) else "custom"
    return Report(data.n, data.M, data.h, config, kind, tuple(levy), table,
                  tuple(warning_messages), None if seed is None else int(seed))


def _estimate(data, config, spec, dictionary, seed, report_path):
    """Run the estimator chain, write its report and return it."""
    with _warnings.catch_warnings(record=True) as records:
        _warnings.simplefilter("always")
        levy = estimate_levy(data, config)
        table = regression_tables(*cube_filter(data, config.cube_half_width),
                                  dictionary, [e.params for e in levy], config)
    caught = [str(r.message) for r in records if isinstance(r.message, UserWarning)]
    report = build_report(data, config, spec, levy, table, caught, seed=seed)
    write_report(report, report_path)
    return report


def _print_levy(levy):
    for e in levy:
        print(f"component {e.component}: alpha={e.alpha:.4f} "
              f"beta={e.beta:.4f} sigma={e.sigma:.4f}")


def cmd_simulate(args):
    model, bounds, mesh, h = _model_inputs(args.config)
    t0 = time.perf_counter()
    # each block's grid rows are made, and stepped, as it is written
    data = simulate_pairs(model, Grid(bounds, mesh), h, args.seed)
    write_dataset(data, args.out)
    dt = time.perf_counter() - t0
    rate = data.M / dt if dt > 0 else float("inf")
    print(f"simulated M={data.M} n={data.n} h={data.h} "
          f"({dt:.2f}s, {rate:.0f} rows/s)")
    return 0


def cmd_estimate(args):
    t0 = time.perf_counter()
    data = read_dataset(args.data)
    config, spec, dictionary = _estimation_inputs(args.est_config, data.n)
    report = _estimate(data, config, spec, dictionary, args.seed, args.report)
    dt = time.perf_counter() - t0
    _print_levy(report.levy)
    print(f"survival fraction {report.table.fraction:.6f}; estimated in {dt:.2f}s")
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


def _grid_middle(bounds):
    """The middle of a model grid, lo/2 + hi/2 on each axis, which cannot
    overflow: where plot-data and pipeline hold the coordinates not swept."""
    try:
        return [number("grid bound", lo) / 2 + number("grid bound", hi) / 2
                for lo, hi in bounds]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid bounds must be [lower, upper] pairs: {exc}") from exc


def _true_values(model, kind, indices, pts):
    if kind == "drift":
        return evaluate_block(model.drift[indices[0] - 1], pts)
    # einsum's sums depend on the layout of its inputs; gaussian_at's Lambda
    # is row-major, and the curves keep its bits
    lam = model.gaussian_at(pts)
    i, j = indices
    return np.einsum("rk,rk->r", lam[:, i - 1, :], lam[:, j - 1, :])


def write_curve(report, model, parsed, xs, axis, at, path):
    """Write one report component's curve to ``path``: rows (x, learned)
    and, when ``model`` is given, its true value as a third column.

    ``parsed`` is a ``parse_component`` result; ``xs`` sweeps coordinate
    ``axis`` (1-based) while the others are held at ``at``, n values or
    None for zeros.
    """
    n = report.n
    at = [0.0] * n if at is None else at
    if len(at) != n or not all(math.isfinite(v) for v in at):
        raise ConfigError(f"the fixed coordinates (--at, or the middle of the "
                          f"model grid) need {n} finite values")
    if not 1 <= axis <= n:
        raise ConfigError(f"--axis must be in 1..{n}")
    pts = np.tile(np.asarray(at, dtype=np.float64), (xs.size, 1))
    pts[:, axis - 1] = xs
    columns = [xs, design_matrix(report.table.dictionary, pts)
               @ report.coefficients(parsed)]
    if model is not None:
        columns.append(_true_values(model, parsed[0], parsed[1:], pts))
    Path(path).write_bytes(csv_block(np.column_stack(columns)))


def cmd_plot_data(args):
    report = read_report(args.report)
    parsed = parse_component(args.component)
    xs = parse_range(args.range)
    model = at = None
    if args.config:
        cfg = resolve_config(_load_json(args.config, "model config"))
        model = model_from_config(cfg)
        grid = cfg.get("grid")
        if isinstance(grid, dict) and "bounds" in grid:
            at = _grid_middle(grid["bounds"])
    if args.at:
        try:
            at = [float(v) for v in args.at.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--at: {exc}") from exc
    axis = args.axis if args.axis is not None else parsed[1]
    write_curve(report, model, parsed, xs, axis, at, args.out)
    print(f"wrote {xs.size} rows to {args.out}")
    return 0


def cmd_pipeline(args):
    # every input is checked, and the simulation done, before the workdir
    # exists
    model, bounds, mesh, h = _model_inputs(args.config)
    config, spec, dictionary = _estimation_inputs(args.est_config, model.n)
    t0 = time.perf_counter()
    # each block's grid rows are made, and stepped, as it is written
    data = simulate_pairs(model, Grid(bounds, mesh), h, args.seed)
    workdir = Path(args.workdir)
    path = workdir / "dataset.bin"
    write_dataset(data, path)
    t_sim = time.perf_counter() - t0
    # estimate from the page-cached file, block by block, as estimate does;
    # this process wrote its header, so read_dataset is not needed
    t0 = time.perf_counter()
    data = DatasetFile(open(path, "rb"), str(path), data.n, data.M, data.h)
    report = _estimate(data, config, spec, dictionary, args.seed,
                       workdir / "report.json")
    t_est = time.perf_counter() - t0

    # plot-data's curves of each b<i> and a<i><i> along axis i, with the
    # other coordinates mid-grid: the report's floats survive its JSON
    # exactly, so these are the curves plot-data draws from report.json
    middle = _grid_middle(bounds)
    for i, (lo, hi) in enumerate(bounds, start=1):
        xs = np.linspace(float(lo), float(hi), 501)
        for name, parsed in ((f"b{i}", ("drift", i)),
                             (f"a{i}{i}", ("diffusion", i, i))):
            write_curve(report, model, parsed, xs, i, middle,
                        workdir / f"plot_{name}.csv")

    _print_levy(report.levy)
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
    p.add_argument("--out", required=True,
                   help="dataset output path: csv if it ends in .csv, else bin")
    p.add_argument("--seed", type=int, default=0)
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
                   help="comma-separated fixed coordinates for n > 1 (default: "
                        "the middle of the --config grid, else zeros)")
    p.set_defaults(fn=cmd_plot_data)

    p = sub.add_parser("pipeline", help="simulate, estimate and plot in one run")
    p.add_argument("--config", required=True)
    p.add_argument("--est-config", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seed", type=int, default=0)
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

"""Run one levysid CLI command in-process with spans around its layers.

    python3 perfbench/traced_cli.py --spans-out FILE --run-id ID -- <cli args>

The command goes through ``levysid.cli.main`` exactly as ``python -m
levysid.cli`` would run it. Before that, each public function the CLI path
calls is replaced, in every levysid module that imported it, by a wrapper
that records a span. Work that happens inside those functions and has no
public boundary of its own (the noise kernel, coefficient evaluation, the
design matrix) is measured by replaying it afterwards over the same
blocks; those spans are marked ``replay`` because the command did not
otherwise do that work twice.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402

# (module, function) pairs on the CLI path; the span is named after both
PUBLIC = (
    ("levysid.simulate", "generate_grid"),
    ("levysid.simulate", "simulate_pairs"),
    ("levysid.dataio", "write_dataset"),
    ("levysid.dataio", "read_dataset"),
    ("levysid.estimate", "estimate_levy"),
    ("levysid.estimate", "cube_filter"),
    ("levysid.estimate", "regression_tables"),
    ("levysid.cli", "build_report"),
    ("levysid.dataio", "write_report"),
)

# private kernel, looked up by name: it may move into the rng module
KERNEL_NAME = "sim_noise_block"
KERNEL_HOMES = ("levysid._kernels", "levysid.rng")


def find_symbol(name, module_names):
    for module_name in module_names:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        found = getattr(module, name, None)
        if found is not None:
            return found
    return None


def _blocks(total):
    import levysid.simulate

    chunk = levysid.simulate.CHUNK_ROWS
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


class Hooks:
    """Counts recorded after each public call, and the replays it triggers."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.warnings = []
        self.kernel = find_symbol(KERNEL_NAME, KERNEL_HOMES)
        if self.kernel is None:
            self.warnings.append(
                f"{KERNEL_NAME} not found in {', '.join(KERNEL_HOMES)}; "
                "kernels.* omitted")

    def simulate_pairs(self, span, args, data):
        span.counts["simulate.rows"] = data.M
        model = args["model"]
        blocks = _blocks(data.M)
        if self.kernel is not None:
            import numpy as np
            from levysid.rng import stream_key

            alphas = np.array([p.alpha for p in model.levy])
            betas = np.array([p.beta for p in model.levy])
            base_key = stream_key(int(args["seed"]), 0)
            with self.tracer.span("kernels.noise", replay=True) as s:
                for lo, hi in blocks:
                    self.kernel(base_key, lo, hi - lo, alphas, betas)
                s.counts["kernels.draws"] = data.M * 4 * data.n
        with self.tracer.span("models.coef_eval", replay=True):
            for lo, hi in blocks:
                model.drift_at(data.Z[lo:hi])
                model.gaussian_at(data.Z[lo:hi])

    def write_dataset(self, span, args, _):
        span.counts["dataio.bytes_written"] = os.path.getsize(args["path"])

    def read_dataset(self, span, args, _):
        span.counts["dataio.bytes_read"] = os.path.getsize(args["path"])

    def estimate_levy(self, span, _, levy):
        span.counts["estimate.tail_counts"] = sum(int(e.counts.totals.sum()) for e in levy)

    def cube_filter(self, span, _, result):
        span.counts["estimate.survivors"] = result[0].M

    def regression_tables(self, span, args, _):
        from levysid.basis import design_matrix

        data, dictionary = args["data"], args["dictionary"]
        with self.tracer.span("basis.design_matrix", replay=True) as s:
            for lo, hi in _blocks(data.M):
                design_matrix(dictionary, data.Z[lo:hi])
            s.counts["basis.entries"] = data.M * dictionary.K


def _wrap(tracer, name, func, hook):
    sig = inspect.signature(func)

    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = func(*args, **kwargs)
        if hook is not None:
            hook(span, sig.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


def instrument(tracer, hooks):
    """Swap each PUBLIC function for its wrapper wherever levysid bound it."""
    for module_name, func_name in PUBLIC:
        original = getattr(importlib.import_module(module_name), func_name, None)
        if original is None:
            hooks.warnings.append(f"{module_name}.{func_name} not found; span omitted")
            continue
        span_name = f"{module_name.rsplit('.', 1)[1]}.{func_name}"
        wrapper = _wrap(tracer, span_name, original, getattr(hooks, func_name, None))
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "levysid":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans-out", required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id)
    with tracer.span(f"cli.{cli_args[0]}") as root:
        root.start = _T0
        with tracer.span("cli.import"):
            import levysid.cli
        hooks = Hooks(tracer)
        instrument(tracer, hooks)
        rc = levysid.cli.main(cli_args)
    with open(args.spans_out, "w", encoding="utf-8") as fh:
        json.dump({"run_id": args.run_id, "rc": rc, "warnings": hooks.warnings,
                   "spans": tracer.to_json()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in benchmark of the levysid CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Every workload command is the real CLI
(``python -m levysid.cli``) in a fresh child process, one child at a time,
with ``LEVYSID_WORKERS`` unset. The workload repeats until ``--seconds`` have
passed and each metric is the median over those repetitions.

``--trace 0`` reports the end-to-end metrics: wall and CPU time and peak RSS
of the workload's commands, and ``setup_s``, the median of set-up probes
(start, import, build model and dictionary, exit) run between repetitions.

``--trace 1`` alternates an untraced run with a traced one, in which
perfbench/traced_cli.py runs the same command in-process with spans around
each layer, and reports the per-layer metrics.

Every repetition is checked: exit code 0, a report byte-identical to the
first repetition's, a Levy triple within the count-based tolerance of
checks.py, and for traced runs the same report and the same exact counts
as the untraced run. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; other lines are for people.
Scratch files live under .perfbench_work/ and are removed on exit; each
traced run's spans are kept in .perfbench_traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from checks import accuracy, levy_gate
from tracing import median_of_reps, self_times, spans_from_json
from workloads import WORKLOADS, dataset_file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_traces"

SETUP_PROBES_PER_REP = 2
MIN_REPS = 3
MIN_TRACED_REPS = 1
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer seconds taken straight from the summed duration of one span name
SPAN_SECONDS = {
    "cli.import_s": ("cli.import",),
    "cli.report_s": ("cli.build_report", "dataio.write_report"),
    "simulate.generate_grid_s": ("simulate.generate_grid",),
    "simulate.simulate_pairs_s": ("simulate.simulate_pairs",),
    "kernels.noise_s": ("kernels.noise",),
    "models.coef_eval_s": ("models.coef_eval",),
    "dataio.write_dataset_s": ("dataio.write_dataset",),
    "dataio.read_dataset_s": ("dataio.read_dataset",),
    "estimate.estimate_levy_s": ("estimate.estimate_levy",),
    "estimate.cube_filter_s": ("estimate.cube_filter",),
    "estimate.regression_tables_s": ("estimate.regression_tables",),
    "basis.design_matrix_s": ("basis.design_matrix",),
}
COUNTS = ("simulate.rows", "kernels.draws", "dataio.bytes_written", "dataio.bytes_read",
          "estimate.tail_counts", "estimate.survivors", "basis.entries")
RSS_SPANS = ("cli.import", "simulate.generate_grid", "simulate.simulate_pairs",
             "dataio.write_dataset", "dataio.read_dataset", "estimate.estimate_levy",
             "estimate.cube_filter", "estimate.regression_tables", "cli.build_report",
             "dataio.write_report")
DERIVED = ("estimate.gram_solve_s", "cli.self_s", "estimate.survival_ratio",
           "trace.overhead_s")


def child_env():
    env = dict(os.environ)
    env.pop("LEVYSID_WORKERS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, env, log_path):
    """Run one child to completion; (exit code, wall s, cpu s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _log_tail(path):
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class WorkloadRun:
    """One workload at one seed: its files, repetitions and verdicts."""

    def __init__(self, wl, seed, wdir, env_record):
        self.wl = wl
        self.env_record = env_record
        self.seed = seed
        self.wdir = wdir
        self.env = child_env()
        self.model_path = wdir / "model.json"
        self.est_path = wdir / "est.json"
        self.model_path.write_text(json.dumps(wl.model))
        self.est_path.write_text(json.dumps(wl.est_config()))
        self.attempted = 0
        self.failures = []          # (repetition label, message)
        self.reference = None       # first completed untraced repetition
        self.accuracy = None
        self.warnings = []
        self.samples = {}           # end-to-end metric -> per-repetition values

    def fail(self, label, message):
        self.failures.append((label, message))

    @property
    def failed(self):
        return len({label for label, _ in self.failures})

    def _commands(self, out_dir):
        return self.wl.commands(self.model_path, self.est_path, out_dir, self.seed)

    # -- set-up ------------------------------------------------------------

    def setup_probe(self, label):
        """Time one set-up probe; returns its wall seconds, or None."""
        probe = [sys.executable, HERE / "setup_probe.py", self.model_path, self.est_path]
        log = self.wdir / "setup.log"
        self.attempted += 1
        code, wall, _, _ = spawn(probe, self.env, log)
        if code != 0:
            self.fail(label, f"setup probe exited {code}: {_log_tail(log)}")
            return None
        return wall

    # -- untraced ----------------------------------------------------------

    def untraced(self, index):
        """One repetition through the CLI; returns its metrics or None."""
        label = f"untraced {index}"
        self.attempted += 1
        out = _fresh(self.wdir / "untraced")
        log = self.wdir / "untraced.log"
        wall = cpu = rss = 0.0
        for argv in self._commands(out):
            code, w, c, r = spawn([sys.executable, "-m", "levysid.cli", *argv], self.env, log)
            if code != 0:
                self.fail(label, f"levysid {argv[0]} exited {code}: {_log_tail(log)}")
                return None
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        report_bytes = (out / "report.json").read_bytes()
        if self.reference is None:
            self.reference = self._check_reference(out, report_bytes)
        elif report_bytes != self.reference["report_bytes"]:
            self.fail(label, "report.json differs from the first repetition "
                             f"(sha256 {_sha(report_bytes)} vs {self.reference['sha256']})")
            return None
        for message in self.reference["verdict"]:     # the same bytes, the same verdict
            self.fail(label, message)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}

    def _check_reference(self, out, report_bytes):
        report = json.loads(report_bytes)
        try:
            self.accuracy, true_levy = accuracy(report, self.wl.model)
        except ValueError as exc:           # non-finite or misshapen coefficients
            verdict = [f"accuracy sweep: {exc}"]
        else:
            verdict = levy_gate(report, true_levy)
        return {"report_bytes": report_bytes, "sha256": _sha(report_bytes), "verdict": verdict,
                "counts": expected_counts(report, dataset_file(out).stat().st_size,
                                          self.wl.reads_dataset)}

    # -- traced ------------------------------------------------------------

    def traced(self, index):
        """One traced repetition; returns (per-layer metrics, wall s) or None."""
        label = f"traced {index}"
        self.attempted += 1
        out = _fresh(self.wdir / "traced")
        log = self.wdir / "traced.log"
        traces, wall = [], 0.0
        for i, argv in enumerate(self._commands(out)):
            spans_path = out / f"spans-{i}.json"
            run_id = f"{self.wl.name}-seed{self.seed}-rep{index}-{argv[0]}"
            cmd = [sys.executable, HERE / "traced_cli.py", "--spans-out", spans_path,
                   "--run-id", run_id, "--", *argv]
            code, w, _, _ = spawn(cmd, self.env, log)
            if code != 0:
                self.fail(label, f"traced {argv[0]} exited {code}: {_log_tail(log)}")
                return None
            traces.append(json.loads(spans_path.read_text()))
            wall += w
        for warning in {w for t in traces for w in t["warnings"]}:
            if warning not in self.warnings:
                self.warnings.append(warning)
                print(f"warning: {warning}", file=sys.stderr)
        report_bytes = (out / "report.json").read_bytes()
        if self.reference is None or report_bytes != self.reference["report_bytes"]:
            self.fail(label, f"traced report sha256 {_sha(report_bytes)} differs from "
                             "the untraced CLI run's")
            return None
        for message in self.reference["verdict"]:
            self.fail(label, message)
        metrics, replay_s = layer_metrics(traces)
        for name, value in self.reference["counts"].items():
            if name in metrics and metrics[name] != value:   # kernels.* may be omitted
                self.fail(label, f"count {name} is {metrics[name]}, "
                                 f"the untraced run implies {value}")
        self._save_trace(index, traces)
        return metrics, wall - replay_s

    def _save_trace(self, index, traces):
        TRACE_ROOT.mkdir(exist_ok=True)
        path = TRACE_ROOT / f"{self.wl.name}-seed{self.seed}-rep{index}.json"
        path.write_text(json.dumps({"workload": self.wl.name,
                                    "environment": self.env_record,
                                    "commands": traces}, indent=1))


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def expected_counts(report, dataset_bytes, reads_dataset):
    """The exact counts a traced run must reproduce, from untraced outputs."""
    rows = int(report["dataset"]["M"])
    n = int(report["dataset"]["n"])
    survivors = round(report["survival_fraction"] * rows)
    return {
        "simulate.rows": rows,
        "kernels.draws": rows * 4 * n,
        "dataio.bytes_written": dataset_bytes,
        "dataio.bytes_read": dataset_bytes if reads_dataset else 0,
        "estimate.tail_counts": sum(sum(e["bins_positive"]) + sum(e["bins_negative"])
                                    for e in report["levy"]),
        "estimate.survivors": survivors,
        "basis.entries": survivors * len(report["dictionary"]["names"]),
    }


def layer_metrics(traces):
    """Per-layer metrics from the span lists of one traced repetition.

    Returns (metrics, seconds spent in replay spans). Span durations and
    counts are summed over the workload's commands; RSS takes the maximum.
    """
    seconds = defaultdict(float)
    counts = defaultdict(int)
    rss = defaultdict(float)
    root_self = replay_s = 0.0
    for trace in traces:
        spans = spans_from_json(trace["spans"])
        for span, own in zip(spans, self_times(spans)):
            if span.parent is None:
                root_self += own
                continue
            seconds[span.name] += span.duration
            for name, value in span.counts.items():
                counts[name] += value
            if span.replay:
                replay_s += span.duration
            elif spans[span.parent].parent is None:
                rss[span.name] = max(rss[span.name], span.rss_after_mb)
    omit_kernels = "kernels.noise" not in seconds
    metrics = {}
    for name, span_names in SPAN_SECONDS.items():
        if not (omit_kernels and name.startswith("kernels.")):
            metrics[name] = sum(seconds[s] for s in span_names)
    for name in COUNTS:
        if not (omit_kernels and name.startswith("kernels.")):
            metrics[name] = counts[name]
    for name in RSS_SPANS:
        metrics[f"{name}.rss_after_mb"] = rss[name]
    metrics["cli.self_s"] = root_self
    metrics["estimate.gram_solve_s"] = (metrics["estimate.regression_tables_s"]
                                        - metrics["basis.design_matrix_s"])
    rows = metrics["simulate.rows"]
    metrics["estimate.survival_ratio"] = metrics["estimate.survivors"] / rows if rows else 0.0
    return metrics, replay_s


def llc_size():
    """Size string of the highest-level CPU cache, as the kernel reports it."""
    best_level, best_size = 0, None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def environment(seed):
    import numpy

    import levysid

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        blas = {}
    backend = getattr(levysid, "backend_name", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "levysid_backend": backend() if backend else None,
        "llc": llc_size(),
        "LEVYSID_WORKERS": child_env().get("LEVYSID_WORKERS"),
        "seed": seed,
    }


def repeat(step, seconds, min_reps):
    """Call step(index) while the next call is expected to end within
    ``seconds`` of the first, and at least min_reps times."""
    t0 = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - t0
        if len(durations) >= min_reps and elapsed + statistics.median(durations) > seconds:
            return


def bench(wl, seed, seconds, trace, env_record):
    """Run one workload; returns (WorkloadRun, metrics dict)."""
    wdir = _fresh(WORK_ROOT / f"{wl.name}-{os.getpid()}")
    untraced, traced, setup = [], [], []

    def step(index):
        if not trace:
            for i in range(SETUP_PROBES_PER_REP):
                wall = run.setup_probe(f"setup {index}.{i}")
                if wall is not None:
                    setup.append(wall)
        result = run.untraced(index)
        if result is not None:
            untraced.append(result)
            if trace:
                pair = run.traced(index)
                if pair is not None:
                    traced.append(pair)

    try:
        run = WorkloadRun(wl, seed, wdir, env_record)
        run.setup_probe("warm-up")          # fills caches; its time is not used
        repeat(step, seconds, MIN_TRACED_REPS if trace else MIN_REPS)
    finally:
        shutil.rmtree(wdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if not untraced or (trace and not traced) or (not trace and not setup):
        return run, {}
    e2e = median_of_reps(untraced)
    if not trace:
        run.samples = {name: [r[name] for r in untraced] for name in e2e}
        run.samples["setup_s"] = setup
        return run, dict(e2e, setup_s=statistics.median(setup))
    metrics = median_of_reps([m for m, _ in traced])
    # exact counts are gated equal across repetitions; keep them integers
    metrics.update((name, traced[0][0][name]) for name in COUNTS if name in metrics)
    metrics["trace.overhead_s"] = statistics.median(w for _, w in traced) - e2e["wall_s"]
    metrics.update(run.accuracy or {})
    return run, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "levysid" / "cli.py").is_file():
        print(f"error: no levysid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    sys.path.insert(0, str(ROOT / "src"))
    env_record = environment(args.seed)
    print(json.dumps({"environment": env_record}))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, result = True, 0, 0, {}
    for name in names:
        run, metrics = bench(WORKLOADS[name], args.seed, args.seconds, args.trace,
                             env_record)
        print(f"workload {name} (seed {args.seed}): {why[name]}")
        for label, message in run.failures:
            print(f"  FAILED {label}: {message}")
        print(f"  failed_frac = {run.failed / max(run.attempted, 1):.4g} "
              f"({run.failed}/{run.attempted})")
        # kernels.* go missing, with a warning, if the kernel cannot be found
        expected = {n for n in units
                    if not n.startswith("kernels.") or "kernels.noise_s" in metrics}
        if set(metrics) != expected:
            missing = sorted(expected - set(metrics))
            print(f"  no result for {', '.join(missing) or 'unexpected metrics'}")
            correct = False
        for metric in units:
            if metric in metrics:
                note = " (derived)" if metric in DERIVED else ""
                if metric in run.samples:
                    values = run.samples[metric]
                    note = (f"  median of {len(values)}, "
                            f"range {min(values):.6g}..{max(values):.6g}")
                print(f"  {metric} = {metrics[metric]:.6g} {units[metric]}{note}")
        if run.accuracy and not args.trace:
            print("  accuracy: " + ", ".join(f"{k} = {v:.4g}" for k, v in run.accuracy.items()))
        correct = correct and not run.failures
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in metrics.items():
            if metric in units:
                result[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: which configs the program gets, and which CLI
commands run on them. Why each one exists is recorded in BENCHMARK.json.

The workload seed only becomes the CLI's ``--seed``; the program receives
nothing else from the benchmark but the two generated config files.
"""

from __future__ import annotations

from dataclasses import dataclass

# the README's estimation settings, shared by every workload
EST_CONFIG = {"epsilon": 1.0, "m": 5.0, "N": 2, "cube_epsilon": 0.5}


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    dictionary: str
    steps: tuple      # ("pipeline",) or ("simulate", "estimate")

    def est_config(self):
        return dict(EST_CONFIG, dictionary=self.dictionary)

    def commands(self, model_path, est_path, out_dir, seed):
        """CLI argument lists, run one after another; all outputs go to out_dir."""
        seed = str(seed)
        if self.steps == ("pipeline",):
            return [["pipeline", "--config", str(model_path), "--est-config",
                     str(est_path), "--seed", seed, "--workdir", str(out_dir)]]
        data = str(out_dir / "dataset")
        return [["simulate", "--config", str(model_path), "--out", data, "--seed", seed],
                ["estimate", data, "--est-config", str(est_path),
                 "--report", str(out_dir / "report.json"), "--seed", seed]]

    @property
    def reads_dataset(self):
        return "estimate" in self.steps


# The ROADMAP's second fixed workload, pipeline on lorenz3d at 10^6 rows with
# poly:2, is not here: at 10-14 s a repetition on a shared 2-core host only
# three fit in a run, and its medians spread by 17% from seed to seed. Its
# layers all run in the two workloads below.
WORKLOADS = {w.name: w for w in (
    Workload("genereg1d-example2",
             {"name": "genereg1d", "grid": {"bounds": [[0.0, 5.0]], "mesh": [1_000_000]}},
             "example2", ("pipeline",)),
    Workload("lorenz3d-4m-bin",
             {"name": "lorenz3d",
              "grid": {"bounds": [[-2.0, 2.0]] * 3, "mesh": [160, 160, 160]}},
             "poly:2", ("simulate", "estimate")),
)}


def dataset_file(out_dir):
    """The one dataset file a workload's commands left in out_dir."""
    found = [p for p in out_dir.iterdir() if p.name.startswith("dataset")]
    if len(found) != 1:
        raise FileNotFoundError(f"expected one dataset file in {out_dir}, found {found}")
    return found[0]

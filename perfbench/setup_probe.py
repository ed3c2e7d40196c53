"""Set-up probe: the start-up work every levysid command pays before it
touches data. It starts the interpreter, imports the CLI, resolves the model
and estimation configs, builds the model and the dictionary, and exits.

    python3 perfbench/setup_probe.py MODEL_JSON EST_JSON
"""

import json
import sys

from levysid.cli import build_dictionary, load_est_config
from levysid.models import model_from_config, resolve_config


def main(model_path, est_path):
    with open(model_path, encoding="utf-8") as fh:
        model = model_from_config(resolve_config(json.load(fh)))
    with open(est_path, encoding="utf-8") as fh:
        _, spec = load_est_config(json.load(fh))
    build_dictionary(spec, model.n)


if __name__ == "__main__":
    main(*sys.argv[1:])

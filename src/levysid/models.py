"""SDE model description: drift vector, Gaussian factor matrix, Levy driving
parameters, plus the built-in benchmark systems and JSON config loading.

The dynamics are dx = b(x)dt + Lambda(x)dB_t + sigma dL_t with component-wise
alpha-stable L. ``levy=None`` switches the jump term off entirely; that is the
only way to disable it, since StableParams requires sigma > 0.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ExpressionError, number
from .expr import ExpressionTree, evaluate_trees, parse_expression
from .stable import StableParams


@dataclass(frozen=True, eq=False)
class SdeModel:
    n: int
    drift: tuple            # n ExpressionTrees
    gaussian: tuple         # n rows of n ExpressionTrees (Lambda entries)
    levy: tuple | None      # n StableParams, or None when jumps are disabled

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.n}")
        if len(self.drift) != self.n:
            raise ConfigError(f"drift needs {self.n} entries, got {len(self.drift)}")
        if len(self.gaussian) != self.n or any(len(r) != self.n for r in self.gaussian):
            raise ConfigError(f"gaussian must be {self.n}x{self.n}")
        for tree in list(self.drift) + [t for row in self.gaussian for t in row]:
            if not isinstance(tree, ExpressionTree) or tree.dimension != self.n:
                raise ConfigError(
                    "all model expressions must share the model dimension")
        if self.levy is not None:
            if len(self.levy) != self.n:
                raise ConfigError(f"levy needs {self.n} entries, got {len(self.levy)}")
            for p in self.levy:
                if not isinstance(p, StableParams):
                    raise ConfigError("levy entries must be StableParams")

    @property
    def gaussian_enabled(self):
        """False when every Lambda entry is the constant 0, so the Gaussian
        term vanishes and no normals need drawing."""
        return any(t.root != ("c", 0.0) for row in self.gaussian for t in row)

    def drift_at(self, points):
        """Evaluate b at an (M, n) block; returns (M, n), the transpose of
        component-major rows, so that each component is written contiguously."""
        return evaluate_trees(self.drift, points,
                              out=np.empty((self.n, len(points))).T)

    def gaussian_at(self, points):
        """Evaluate Lambda at an (M, n) block; returns (M, n, n), a view of
        one contiguous row per entry as in ``drift_at``. einsum's sums depend
        on the layout: give it ``np.ascontiguousarray`` of this view for the
        bits of a row-major Lambda."""
        flat = evaluate_trees([t for row in self.gaussian for t in row], points,
                              out=np.empty((self.n * self.n, len(points))).T)
        return flat.reshape(-1, self.n, self.n)


# built-in benchmark configs; deep-copied on access so callers can edit freely
_BUILTINS = {
    # 3-D Lorenz-type system with state-dependent Gaussian factor and
    # three different stable components
    "lorenz3d": {
        "dimension": 3,
        "drift": ["10*(-x1 + x2)", "4*x1 - x2 - x1*x3", "-8/3*x3 + x1*x2"],
        "gaussian": [
            ["1 + x3", "1", "0"],
            ["0", "x2", "0"],
            ["0", "0", "x1"],
        ],
        "levy": [
            {"alpha": 0.5, "beta": 0.5, "sigma": 2.0},
            {"alpha": 1.0, "beta": 0.0, "sigma": 1.0},
            {"alpha": 1.5, "beta": -0.5, "sigma": 0.5},
        ],
        "grid": {"bounds": [[-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]],
                 "mesh": [100, 100, 100]},
        "h": 0.001,
    },
    # 1-D gene regulation model: rational drift, state-dependent diffusion
    "genereg1d": {
        "dimension": 1,
        "drift": ["6*x1^2/(x1^2 + 10) - x1 + 0.4"],
        "gaussian": [["x1/sqrt(x1^2 + 0.5)"]],
        "levy": [{"alpha": 1.5, "beta": -0.5, "sigma": 0.5}],
        "grid": {"bounds": [[0.0, 5.0]], "mesh": [10_000_000]},
        "h": 0.001,
    },
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_config(name):
    """Full JSON-shaped config dict for a built-in model name."""
    if name not in _BUILTINS:
        raise ConfigError(
            f"unknown built-in model {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    return copy.deepcopy(_BUILTINS[name])


def resolve_config(config):
    """Expand a ``{"name": ...}`` reference and overlay any explicit keys."""
    if not isinstance(config, dict):
        raise ConfigError("model config must be a JSON object")
    if "name" in config:
        merged = builtin_config(config["name"])
        for key, value in config.items():
            if key != "name":
                merged[key] = copy.deepcopy(value)
        return merged
    return copy.deepcopy(config)


def _parse_entry(text, dimension, field):
    if not isinstance(text, str):
        raise ConfigError(f"{field} must be an expression string")
    try:
        return parse_expression(text, dimension)
    except ExpressionError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def model_from_config(config):
    """Build an SdeModel from a config dict (built-in name or explicit)."""
    cfg = resolve_config(config)
    if "dimension" not in cfg:
        raise ConfigError("model config is missing 'dimension'")
    n = cfg["dimension"]
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"dimension must be a positive integer, got {n!r}")

    drift_cfg = cfg.get("drift")
    if not isinstance(drift_cfg, list):
        raise ConfigError(f"drift must be a list of {n} expressions")
    drift = tuple(_parse_entry(t, n, f"drift[{i}]") for i, t in enumerate(drift_cfg))

    gauss_cfg = cfg.get("gaussian")
    if gauss_cfg is None:
        gauss_cfg = [["0"] * n for _ in range(n)]
    if not isinstance(gauss_cfg, list) or any(
            not isinstance(row, list) for row in gauss_cfg):
        raise ConfigError(f"gaussian must be an {n}x{n} array of expressions")
    gaussian = tuple(
        tuple(_parse_entry(t, n, f"gaussian[{i}][{j}]") for j, t in enumerate(row))
        for i, row in enumerate(gauss_cfg))

    levy_cfg = cfg.get("levy")
    levy = None
    if levy_cfg is not None:
        if not isinstance(levy_cfg, list):
            raise ConfigError(f"levy must be null or a list of {n} parameter objects")
        entries = []
        for i, item in enumerate(levy_cfg):
            if not isinstance(item, dict):
                raise ConfigError(f"levy[{i}] must be an object")
            try:
                entries.append(StableParams(
                    number("alpha", item["alpha"]), number("beta", item["beta"]),
                    number("sigma", item["sigma"])))
            except KeyError as exc:
                raise ConfigError(f"levy[{i}] is missing {exc}") from exc
            except DomainError as exc:
                raise ConfigError(f"levy[{i}]: {exc}") from exc
        levy = tuple(entries)

    return SdeModel(n, drift, gaussian, levy)


def builtin_model(name):
    """SdeModel for a built-in name (grid and step size live in the config)."""
    return model_from_config(builtin_config(name))

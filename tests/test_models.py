"""Model configuration: builtin registry, overlays, validation."""

import math

import numpy as np
import pytest

from levysid import (
    ConfigError,
    SdeModel,
    builtin_config,
    builtin_model,
    evaluate_block,
    model_from_config,
    resolve_config,
)
from levysid.expr import evaluate_trees


class TestBuiltinLorenz:
    def test_structure(self):
        model = builtin_model("lorenz3d")
        assert model.n == 3
        assert model.levy is not None
        alphas = [p.alpha for p in model.levy]
        betas = [p.beta for p in model.levy]
        sigmas = [p.sigma for p in model.levy]
        assert alphas == [0.5, 1.0, 1.5]
        assert betas == [0.5, 0.0, -0.5]
        assert sigmas == [2.0, 1.0, 0.5]

    def test_drift_at_ones(self):
        model = builtin_model("lorenz3d")
        b = model.drift_at(np.array([[1.0, 1.0, 1.0]]))[0]
        np.testing.assert_allclose(b, [0.0, 2.0, -5.0 / 3.0], rtol=1e-15)

    def test_gaussian_at(self):
        model = builtin_model("lorenz3d")
        lam = model.gaussian_at(np.array([[1.0, 2.0, 3.0]]))[0]
        want = np.array([[4.0, 1.0, 0.0],
                         [0.0, 2.0, 0.0],
                         [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(lam, want, rtol=0, atol=0)

    def test_diffusion_product_at_origin(self):
        # a = Lambda Lambda^T at x=0: [[2,0,0],[0,0,0],[0,0,0]]
        model = builtin_model("lorenz3d")
        lam = model.gaussian_at(np.zeros((1, 3)))[0]
        a = lam @ lam.T
        np.testing.assert_allclose(
            a, [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            rtol=0, atol=0)

    def test_component_major_values_bitwise(self):
        # drift_at and gaussian_at fill component-major scratch; every
        # value keeps the bits of a row-major evaluate_trees, on a block
        # whose length is no multiple of a SIMD width
        model = builtin_model("lorenz3d")
        Z = np.random.default_rng(3).uniform(-2.0, 2.0, (1001, 3))
        drift = model.drift_at(Z)
        assert drift.shape == (1001, 3)
        assert drift.tobytes() == evaluate_trees(model.drift, Z).tobytes()
        lam = model.gaussian_at(Z)
        flat = evaluate_trees([t for row in model.gaussian for t in row], Z)
        assert lam.shape == (1001, 3, 3)
        assert lam.tobytes() == flat.reshape(-1, 3, 3).tobytes()

    def test_grid_defaults(self):
        cfg = builtin_config("lorenz3d")
        assert cfg["grid"]["bounds"] == [[-2.0, 2.0]] * 3
        assert cfg["grid"]["mesh"] == [100, 100, 100]
        assert cfg["h"] == 0.001


class TestBuiltinGeneReg:
    def test_structure(self):
        model = builtin_model("genereg1d")
        assert model.n == 1
        p = model.levy[0]
        assert (p.alpha, p.beta, p.sigma) == (1.5, -0.5, 0.5)

    def test_drift_value(self):
        model = builtin_model("genereg1d")
        assert evaluate_block(model.drift[0], np.array([[1.0]]))[0] == pytest.approx(
            6.0 / 11.0 - 0.6, rel=1e-14)

    def test_gaussian_value(self):
        model = builtin_model("genereg1d")
        got = model.gaussian_at(np.array([[1.0]]))[0, 0, 0]
        assert got == pytest.approx(1.0 / math.sqrt(1.5), rel=1e-15)

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError):
            builtin_model("nosuchmodel")

    def test_config_copy_is_deep(self):
        cfg = builtin_config("genereg1d")
        cfg["drift"][0] = "0"
        cfg["h"] = 123.0
        fresh = builtin_config("genereg1d")
        assert fresh["drift"][0] != "0"
        assert fresh["h"] == 0.001


class TestResolveConfig:
    def test_overlay_overrides(self):
        cfg = resolve_config({"name": "genereg1d", "h": 0.01,
                              "grid": {"bounds": [[0, 5]], "mesh": [100]}})
        assert cfg["h"] == 0.01
        assert cfg["grid"]["mesh"] == [100]
        assert cfg["dimension"] == 1
        assert "drift" in cfg

    def test_explicit_config_passes_through(self):
        doc = {"dimension": 1, "drift": ["-x1"], "gaussian": [["1"]],
               "levy": None}
        assert resolve_config(dict(doc)) == doc

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            resolve_config({"name": "bogus"})


class TestModelFromConfig:
    def _base(self):
        return {
            "dimension": 2,
            "drift": ["-x1", "-x2"],
            "gaussian": [["1", "0"], ["0", "1"]],
            "levy": [{"alpha": 1.5, "beta": 0.0, "sigma": 1.0},
                     {"alpha": 0.5, "beta": 1.0, "sigma": 2.0}],
        }

    def test_valid(self):
        model = model_from_config(self._base())
        assert isinstance(model, SdeModel)
        assert model.n == 2
        assert model.levy is not None
        np.testing.assert_allclose([p.sigma for p in model.levy], [1.0, 2.0])

    def test_levy_null_disables_jumps(self):
        cfg = self._base()
        cfg["levy"] = None
        model = model_from_config(cfg)
        assert model.levy is None

    def test_gaussian_null_means_zero(self):
        cfg = self._base()
        cfg["gaussian"] = None
        model = model_from_config(cfg)
        lam = model.gaussian_at(np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(lam, np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("mutate,field_hint", [
        (lambda c: c.update(dimension=0), "dimension"),
        (lambda c: c.update(dimension="three"), "dimension"),
        (lambda c: c.update(drift=["-x1"]), "drift"),
        (lambda c: c.update(drift=["-x1", "x9"]), "drift"),
        (lambda c: c.update(drift=["-x1", "2 +"]), "drift"),
        (lambda c: c.update(gaussian=[["1", "0"]]), "gaussian"),
        (lambda c: c.update(gaussian=[["1"], ["0"]]), "gaussian"),
        (lambda c: c.update(levy=[{"alpha": 1.5, "beta": 0.0, "sigma": 1.0}]),
         "levy"),
        (lambda c: c.update(levy=[{"alpha": 2.5, "beta": 0.0, "sigma": 1.0},
                                  {"alpha": 0.5, "beta": 0.0, "sigma": 1.0}]),
         "levy"),
        (lambda c: c.update(levy=[{"alpha": 1.5, "beta": 7.0, "sigma": 1.0},
                                  {"alpha": 0.5, "beta": 0.0, "sigma": 1.0}]),
         "levy"),
        (lambda c: c.update(levy=[{"alpha": 1.5, "beta": 0.0, "sigma": -1.0},
                                  {"alpha": 0.5, "beta": 0.0, "sigma": 1.0}]),
         "levy"),
    ])
    def test_invalid_configs(self, mutate, field_hint):
        cfg = self._base()
        mutate(cfg)
        with pytest.raises(ConfigError) as exc_info:
            model_from_config(cfg)
        assert field_hint in str(exc_info.value)

    def test_missing_dimension(self):
        cfg = self._base()
        del cfg["dimension"]
        with pytest.raises(ConfigError):
            model_from_config(cfg)

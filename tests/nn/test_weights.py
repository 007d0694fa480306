"""Deterministic parameter materialization."""

import numpy as np
import pytest

from repro.nn import weights

CHUNK = weights.CHUNK


class TestInitParam:
    def test_deterministic_across_calls(self):
        a = weights.init_param((4, 8), "net", "layer", "weight")
        b = weights.init_param((4, 8), "net", "layer", "weight")
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = weights.init_param((4, 8), "net", "layer1", "weight")
        b = weights.init_param((4, 8), "net", "layer2", "weight")
        assert not np.array_equal(a, b)

    def test_he_scale(self):
        w = weights.init_param((64, 1000), "n", "l", "w")
        expected = np.sqrt(2.0 / 1000)
        assert abs(w.std() - expected) / expected < 0.1

    def test_dtype_float32(self):
        assert weights.init_param((4,), "n", "l", "w").dtype == np.float32

    def test_explicit_scale(self):
        w = weights.init_param((10000,), "n", "l", "w", scale=0.5)
        assert abs(w.std() - 0.5) < 0.05


    @pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("scale", [None, 0.37])
    def test_streamed_init_matches_normal_bit_for_bit(self, size, scale):
        parts = ("net", "layer", f"w{size}")
        got = weights.init_param((size,), *parts, scale=scale)
        rng = np.random.default_rng(weights._seed_for(*parts))
        sigma = float(np.sqrt(2.0 / size)) if scale is None else scale
        want = rng.normal(0.0, sigma, size=(size,)).astype(np.float32)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_streamed_init_keeps_shape(self):
        shape = (3, 5, CHUNK // 7, 2)
        got = weights.init_param(shape, "n", "l", "w")
        rng = np.random.default_rng(weights._seed_for("n", "l", "w"))
        fan_in = 5 * (CHUNK // 7) * 2
        want = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)
        assert got.shape == shape
        np.testing.assert_array_equal(got, want)


class TestMaterialize:
    def test_bias_like_params_zero(self):
        params = weights.materialize("n", "l", {"bias": (8,), "beta": (8,),
                                                "mean": (8,)})
        for name in ("bias", "beta", "mean"):
            np.testing.assert_array_equal(params[name], np.zeros(8))

    def test_variance_and_gamma_ones(self):
        params = weights.materialize("n", "l", {"var": (8,), "gamma": (8,)})
        np.testing.assert_array_equal(params["var"], np.ones(8))
        np.testing.assert_array_equal(params["gamma"], np.ones(8))

    def test_weights_nonzero(self):
        params = weights.materialize("n", "l", {"weight": (8, 8)})
        assert np.abs(params["weight"]).sum() > 0

    def test_empty_spec(self):
        assert weights.materialize("n", "l", {}) == {}

    def test_network_name_affects_values(self):
        a = weights.materialize("net-a", "l", {"weight": (4, 4)})["weight"]
        b = weights.materialize("net-b", "l", {"weight": (4, 4)})["weight"]
        assert not np.array_equal(a, b)

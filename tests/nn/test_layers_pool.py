"""Pooling layers."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.layers import AvgPool2D, GlobalAvgPool, MaxPool2D


class TestShapes:
    def test_maxpool_default_stride_equals_kernel(self):
        layer = MaxPool2D("p", kernel_size=2)
        assert layer.infer_shape([(8, 16, 16)]) == (8, 8, 8)

    def test_overlapping_pool(self):
        layer = MaxPool2D("p", kernel_size=3, stride=2)
        assert layer.infer_shape([(96, 55, 55)]) == (96, 27, 27)

    def test_padded_pool(self):
        layer = MaxPool2D("p", kernel_size=3, stride=2, padding=1)
        assert layer.infer_shape([(64, 112, 112)]) == (64, 56, 56)

    def test_global_avg_pool_shape(self):
        layer = GlobalAvgPool("gap")
        assert layer.infer_shape([(512, 7, 7)]) == (512,)

    def test_rejects_vector_input(self):
        with pytest.raises(ShapeError):
            MaxPool2D("p", 2).infer_shape([(10,)])
        with pytest.raises(ShapeError):
            GlobalAvgPool("gap").infer_shape([(10,)])

    def test_rejects_bad_params(self):
        with pytest.raises(ShapeError):
            MaxPool2D("p", kernel_size=0)
        with pytest.raises(ShapeError):
            MaxPool2D("p", kernel_size=2, stride=0)


class TestWork:
    def test_pool_has_no_params(self):
        layer = MaxPool2D("p", 2)
        assert layer.param_shapes([(8, 8, 8)]) == {}
        assert layer.param_bytes([(8, 8, 8)]) == 0

    def test_kernel_class(self):
        assert MaxPool2D("p", 2).kernel_class == "pool"
        assert GlobalAvgPool("g").kernel_class == "pool"

    def test_flops_scale_with_window(self):
        small = MaxPool2D("p", kernel_size=2)
        big = MaxPool2D("q", kernel_size=3, stride=2)
        shape = (8, 12, 12)
        f_small = small.flops([shape], small.infer_shape([shape]))
        f_big = big.flops([shape], big.infer_shape([shape]))
        assert f_small > 0 and f_big > 0

    def test_global_pool_not_partitionable(self):
        assert not GlobalAvgPool("g").partitionable
        assert MaxPool2D("p", 2).partitionable


class TestNumerics:
    def test_maxpool_simple(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = MaxPool2D("p", 2).forward([x], {})
        np.testing.assert_array_equal(out[0], [[5, 7], [13, 15]])

    def test_avgpool_simple(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        out = AvgPool2D("p", 2).forward([x], {})
        np.testing.assert_allclose(out[0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_padding_uses_neg_inf(self, rng):
        x = -np.abs(rng.normal(size=(1, 4, 4))).astype(np.float32) - 1.0
        out = MaxPool2D("p", kernel_size=3, stride=2, padding=1).forward([x], {})
        # All values are negative; padding must never win the max.
        assert out.max() < 0

    def test_overlapping_maxpool(self, rng):
        x = rng.normal(size=(2, 5, 5)).astype(np.float32)
        out = MaxPool2D("p", kernel_size=3, stride=2).forward([x], {})
        assert out.shape == (2, 2, 2)
        assert out[0, 0, 0] == pytest.approx(x[0, :3, :3].max())
        assert out[1, 1, 1] == pytest.approx(x[1, 2:5, 2:5].max())

    def test_global_avg_pool_values(self, rng):
        x = rng.normal(size=(3, 4, 4)).astype(np.float32)
        out = GlobalAvgPool("gap").forward([x], {})
        np.testing.assert_allclose(out, x.mean(axis=(1, 2)), rtol=1e-6)


def stacked_windows(x, k, s, p, fill):
    """The pre-streaming formulation: a stack of all k*k shifted views."""
    if p:
        x = np.pad(x, ((0, 0), (p, p), (p, p)), constant_values=fill)
    out_h = (x.shape[1] - k) // s + 1
    out_w = (x.shape[2] - k) // s + 1
    return np.stack([
        x[:, ki : ki + s * out_h : s, kj : kj + s * out_w : s]
        for ki in range(k)
        for kj in range(k)
    ])


POOL_CASES = [
    # (shape, kernel, stride, padding)
    ((3, 9, 7), 2, None, 0),
    ((2, 13, 11), 3, 2, 1),
    ((4, 55, 55), 3, 2, 0),
    ((2, 17, 17), 5, 3, 2),
    ((1, 8, 10), 3, 1, 1),
    ((2, 7, 7), 7, None, 0),
]


class TestStreamedWindows:
    @pytest.mark.parametrize("shape,k,s,p", POOL_CASES)
    def test_maxpool_equals_stacked_max(self, rng, shape, k, s, p):
        x = rng.standard_normal(shape).astype(np.float32)
        out = MaxPool2D("p", k, stride=s, padding=p).forward([x], {})
        want = stacked_windows(x, k, s or k, p, -np.inf).max(axis=0)
        assert out.dtype == np.float32
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape,k,s,p", POOL_CASES)
    def test_avgpool_equals_stacked_mean(self, rng, shape, k, s, p):
        x = rng.standard_normal(shape).astype(np.float32)
        out = AvgPool2D("p", k, stride=s, padding=p).forward([x], {})
        want = stacked_windows(x, k, s or k, p, 0.0).mean(axis=0)
        assert out.dtype == np.float32
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layer", [MaxPool2D("m", 3, 2, 1), AvgPool2D("a", 3, 2, 1)])
    def test_input_not_modified(self, rng, layer):
        x = rng.standard_normal((2, 9, 9)).astype(np.float32)
        before = x.copy()
        layer.forward([x], {})
        np.testing.assert_array_equal(x, before)

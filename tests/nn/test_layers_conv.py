"""Conv2D: shapes, work accounting, and numerics against scipy."""

import numpy as np
import pytest
from scipy import signal

from repro.errors import ShapeError
from repro.nn.layers import Conv2D, conv, im2col


def reference_conv(x, weight, bias, stride, padding):
    """Direct scipy cross-correlation reference."""
    o, c, k, _ = weight.shape
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h = (x.shape[1] - k) // stride + 1
    w = (x.shape[2] - k) // stride + 1
    out = np.zeros((o, h, w), dtype=np.float64)
    for oc in range(o):
        acc = np.zeros((x.shape[1] - k + 1, x.shape[2] - k + 1))
        for ic in range(c):
            acc += signal.correlate2d(x[ic], weight[oc, ic], mode="valid")
        out[oc] = acc[::stride, ::stride] + bias[oc]
    return out.astype(np.float32)


class TestShapes:
    def test_basic_shape(self):
        layer = Conv2D("c", out_channels=8, kernel_size=3, padding=1)
        assert layer.infer_shape([(3, 16, 16)]) == (8, 16, 16)

    def test_strided_shape(self):
        layer = Conv2D("c", out_channels=96, kernel_size=11, stride=4)
        assert layer.infer_shape([(3, 227, 227)]) == (96, 55, 55)

    def test_rejects_vector_input(self):
        layer = Conv2D("c", out_channels=8, kernel_size=3)
        with pytest.raises(ShapeError):
            layer.infer_shape([(10,)])

    def test_rejects_multiple_inputs(self):
        layer = Conv2D("c", out_channels=8, kernel_size=3)
        with pytest.raises(ShapeError):
            layer.infer_shape([(3, 8, 8), (3, 8, 8)])

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ShapeError):
            Conv2D("c", out_channels=0, kernel_size=3)
        with pytest.raises(ShapeError):
            Conv2D("c", out_channels=8, kernel_size=3, stride=0)


class TestWork:
    def test_param_shapes(self):
        layer = Conv2D("c", out_channels=8, kernel_size=3)
        params = layer.param_shapes([(3, 16, 16)])
        assert params["weight"] == (8, 3, 3, 3)
        assert params["bias"] == (8,)

    def test_flops_formula(self):
        layer = Conv2D("c", out_channels=8, kernel_size=3, padding=1)
        out_shape = layer.infer_shape([(3, 16, 16)])
        flops = layer.flops([(3, 16, 16)], out_shape)
        macs = 8 * 16 * 16 * 3 * 3 * 3
        assert flops == pytest.approx(2 * macs + 8 * 16 * 16)

    def test_work_bytes(self):
        layer = Conv2D("c", out_channels=8, kernel_size=3, padding=1)
        out_shape = layer.infer_shape([(3, 16, 16)])
        work = layer.work([(3, 16, 16)], out_shape)
        assert work.act_in_bytes == 3 * 16 * 16 * 4
        assert work.out_bytes == 8 * 16 * 16 * 4
        assert work.weight_bytes == (8 * 3 * 3 * 3 + 8) * 4
        assert work.out_elements == 8 * 16 * 16
        assert work.kernel_class == "conv"

    def test_partitionable(self):
        assert Conv2D("c", 8, 3).partitionable


class TestNumerics:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 2)])
    def test_matches_scipy(self, rng, stride, padding):
        layer = Conv2D("c", out_channels=4, kernel_size=3,
                       stride=stride, padding=padding)
        x = rng.normal(size=(3, 12, 12)).astype(np.float32)
        weight = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        bias = rng.normal(size=(4,)).astype(np.float32)
        out = layer.forward([x], {"weight": weight, "bias": bias})
        ref = reference_conv(x, weight, bias, stride, padding)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_1x1_conv_is_channel_mix(self, rng):
        layer = Conv2D("c", out_channels=2, kernel_size=1)
        x = rng.normal(size=(3, 4, 4)).astype(np.float32)
        weight = rng.normal(size=(2, 3, 1, 1)).astype(np.float32)
        bias = np.zeros(2, dtype=np.float32)
        out = layer.forward([x], {"weight": weight, "bias": bias})
        ref = np.einsum("oc,chw->ohw", weight[:, :, 0, 0], x)
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)

    def test_output_dtype_float32(self, rng):
        layer = Conv2D("c", out_channels=2, kernel_size=3)
        x = rng.normal(size=(1, 5, 5)).astype(np.float32)
        params = {
            "weight": rng.normal(size=(2, 1, 3, 3)).astype(np.float32),
            "bias": np.zeros(2, dtype=np.float32),
        }
        assert layer.forward([x], params).dtype == np.float32


def untiled_conv(x, weight, bias, stride, padding):
    """The whole-matrix im2col GEMM the tiled forward must reproduce."""
    o, c, k, _ = weight.shape
    cols = im2col(x, k, stride, padding)
    h = (x.shape[1] + 2 * padding - k) // stride + 1
    w = (x.shape[2] + 2 * padding - k) // stride + 1
    return (weight.reshape(o, c * k * k) @ cols + bias[:, None]).reshape(o, h, w)


def conv_case(rng, o, c, k, hw):
    x = rng.standard_normal((c, *hw)).astype(np.float32)
    weight = rng.standard_normal((o, c, k, k)).astype(np.float32)
    bias = rng.standard_normal(o).astype(np.float32)
    return x, {"weight": weight, "bias": bias}


class TestTiling:
    # Shapes whose im2col matrix sits just below or just above the
    # budget.  Above it, the output rows do not divide evenly into bands.
    CASES = [
        # (in channels, kernel, stride, out_h, out_w, tiled)
        (64, 3, 1, 120, 120, False),
        (64, 3, 1, 121, 121, True),
        (3, 11, 4, 150, 150, False),
        (3, 11, 4, 155, 150, True),
    ]

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("c,k,stride,out_h,out_w,tiled", CASES)
    def test_tiled_equals_untiled_bit_for_bit(
        self, rng, c, k, stride, out_h, out_w, tiled, padding
    ):
        assert (c * k * k * out_h * out_w * 4 > conv.IM2COL_BUDGET) is tiled
        hw = ((out_h - 1) * stride + k - 2 * padding,
              (out_w - 1) * stride + k - 2 * padding)
        x, params = conv_case(rng, 8, c, k, hw)
        layer = Conv2D("c", out_channels=8, kernel_size=k,
                       stride=stride, padding=padding)
        out = layer.forward([x], params)
        want = untiled_conv(x, params["weight"], params["bias"], stride, padding)
        assert out.shape == (8, out_h, out_w)
        assert out.dtype == np.float32
        assert out.tobytes() == want.tobytes()

    def test_bands_are_even_and_never_below_the_tile(self, rng, monkeypatch):
        # 121 rows of 278,784 im2col bytes with 2 MB tiles: 17 bands of 7
        # or 8 rows, never a 2-row remainder band.
        rows = []
        unfold = conv._unfold_rows

        def recording(xp, kernel, stride, row0, cols):
            rows.append(cols.shape[3])
            unfold(xp, kernel, stride, row0, cols)

        monkeypatch.setattr(conv, "_unfold_rows", recording)
        x, params = conv_case(rng, 2, 64, 3, (121, 121))
        Conv2D("c", 2, 3, padding=1).forward([x], params)
        assert sum(rows) == 121 and len(rows) == 17
        assert set(rows) == {7, 8}

    def test_input_not_modified(self, rng, monkeypatch):
        monkeypatch.setattr(conv, "IM2COL_BUDGET", 0)
        x, params = conv_case(rng, 3, 2, 3, (9, 8))
        before = x.copy()
        out = Conv2D("c", 3, 3, padding=1).forward([x], params)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_allclose(
            out, untiled_conv(x, params["weight"], params["bias"], 1, 1),
            rtol=1e-5, atol=1e-5,
        )


class TestIm2col:
    def test_shape(self, rng):
        x = rng.normal(size=(3, 8, 8)).astype(np.float32)
        cols = im2col(x, kernel=3, stride=1, padding=0)
        assert cols.shape == (3 * 9, 6 * 6)

    def test_identity_kernel1(self, rng):
        x = rng.normal(size=(2, 4, 4)).astype(np.float32)
        cols = im2col(x, kernel=1, stride=1, padding=0)
        np.testing.assert_array_equal(cols, x.reshape(2, 16))

"""2-D convolution."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ...errors import ShapeError
from .. import tensor
from ..layer import Layer, Shape


#: im2col matrices up to this many bytes are built whole; larger ones
#: are unfolded and multiplied a band of output rows at a time.
IM2COL_BUDGET = 32 * 2**20
#: Smallest im2col matrix of one band when tiling.
TILE_BYTES = 2 * 2**20


def _unfold_rows(
    xp: np.ndarray, kernel: int, stride: int, row0: int, cols: np.ndarray
) -> None:
    """Fill ``cols`` of shape ``(C, k, k, rows, out_w)`` with the patches
    of output rows ``row0 : row0 + rows`` of the already-padded ``xp``."""
    rows, out_w = cols.shape[3:]
    top = row0 * stride
    for ki in range(kernel):
        for kj in range(kernel):
            cols[:, ki, kj] = xp[
                :,
                top + ki : top + ki + stride * rows : stride,
                kj : kj + stride * out_w : stride,
            ]


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Unfold ``(C, H, W)`` into ``(C*k*k, out_h*out_w)`` patches."""
    c, h, w = x.shape
    out_h, out_w = tensor.conv_output_hw((h, w), kernel, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    _unfold_rows(x, kernel, stride, 0, cols)
    return cols.reshape(c * kernel * kernel, out_h * out_w)


class Conv2D(Layer):
    """Standard convolution over ``(C, H, W)`` feature maps.

    FLOPs count multiply-accumulates as 2 ops plus the bias add, the
    convention used by the networks the paper evaluates.

    The forward pass is im2col + GEMM.  When the whole im2col matrix
    would exceed :data:`IM2COL_BUDGET` it runs in equal bands of output
    rows, each GEMM writing its columns of one preallocated output.  The
    remainder rows are spread over the bands rather than left as a short
    last band: every band's matrix is at least :data:`TILE_BYTES`, which
    keeps each GEMM off BLAS small-matrix kernels (OpenBLAS switches
    below about 10^6 multiply-adds), whose summation order differs.
    Each output element is then the same dot product as untiled.
    """

    kernel_class = "conv"
    partitionable = True  # split by output channels (paper §IV-D)

    def __init__(
        self,
        name: str,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
    ) -> None:
        super().__init__(name)
        if out_channels <= 0 or kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ShapeError(f"{name}: bad conv hyper-parameters")
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) != 1 or not tensor.is_chw(in_shapes[0]):
            raise ShapeError(f"{self.name}: expects one (C,H,W) input, got {in_shapes}")
        c, h, w = in_shapes[0]
        out_h, out_w = tensor.conv_output_hw(
            (h, w), self.kernel_size, self.stride, self.padding
        )
        return (self.out_channels, out_h, out_w)

    def param_shapes(self, in_shapes: Sequence[Shape]) -> Dict[str, Shape]:
        c = in_shapes[0][0]
        k = self.kernel_size
        return {
            "weight": (self.out_channels, c, k, k),
            "bias": (self.out_channels,),
        }

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        c = in_shapes[0][0]
        o, out_h, out_w = out_shape
        macs = o * out_h * out_w * c * self.kernel_size * self.kernel_size
        return 2.0 * macs + o * out_h * out_w  # MACs + bias add

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        weight, bias = params["weight"], params["bias"]
        o, c, k, _ = weight.shape
        s, p = self.stride, self.padding
        out_h, out_w = tensor.conv_output_hw(x.shape[1:], k, s, p)
        if p:
            x = np.pad(x, ((0, 0), (p, p), (p, p)))
        w2d = weight.reshape(o, c * k * k)
        row_bytes = c * k * k * out_w * x.itemsize
        bands = 1
        if row_bytes * out_h > IM2COL_BUDGET:
            bands = max(1, out_h // max(1, TILE_BYTES // row_bytes))
        bounds = [out_h * i // bands for i in range(bands + 1)]
        out = np.empty((o, out_h * out_w), dtype=np.result_type(w2d, x))
        most_rows = (out_h + bands - 1) // bands
        buf = np.empty(c * k * k * most_rows * out_w, dtype=x.dtype)
        for row0, row1 in zip(bounds, bounds[1:]):
            n = (row1 - row0) * out_w
            cols = buf[: c * k * k * n].reshape(c, k, k, row1 - row0, out_w)
            _unfold_rows(x, k, s, row0, cols)
            np.matmul(
                w2d,
                cols.reshape(c * k * k, n),
                out=out[:, row0 * out_w : row1 * out_w],
            )
        out += bias[:, None]
        return out.reshape(o, out_h, out_w).astype(np.float32, copy=False)

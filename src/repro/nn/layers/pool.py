"""Pooling layers: max, average, and global average."""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

import numpy as np

from ...errors import ShapeError
from .. import tensor
from ..layer import Layer, Shape


class _Pool2D(Layer):
    """Shared plumbing for windowed pooling."""

    kernel_class = "pool"
    partitionable = True  # channel-wise split is trivially parallel

    def __init__(
        self, name: str, kernel_size: int, stride: int | None = None, padding: int = 0
    ) -> None:
        super().__init__(name)
        if kernel_size <= 0 or padding < 0:
            raise ShapeError(f"{name}: bad pooling hyper-parameters")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        if self.stride <= 0:
            raise ShapeError(f"{name}: stride must be positive")
        self.padding = padding

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) != 1 or not tensor.is_chw(in_shapes[0]):
            raise ShapeError(f"{self.name}: expects one (C,H,W) input, got {in_shapes}")
        c, h, w = in_shapes[0]
        out_h, out_w = tensor.conv_output_hw(
            (h, w), self.kernel_size, self.stride, self.padding
        )
        return (c, out_h, out_w)

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        # One compare/add per window element per output.
        return float(tensor.numel(out_shape) * self.kernel_size * self.kernel_size)

    def _windows(self, x: np.ndarray, fill: float) -> Iterator[np.ndarray]:
        """The k*k shifted ``(C, out_h, out_w)`` views, padded with ``fill``."""
        c, h, w = x.shape
        out_h, out_w = tensor.conv_output_hw(
            (h, w), self.kernel_size, self.stride, self.padding
        )
        if self.padding:
            x = np.pad(
                x,
                ((0, 0), (self.padding, self.padding), (self.padding, self.padding)),
                constant_values=fill,
            )
        k, s = self.kernel_size, self.stride
        for ki in range(k):
            for kj in range(k):
                yield x[:, ki : ki + s * out_h : s, kj : kj + s * out_w : s]


class MaxPool2D(_Pool2D):
    """Max pooling, as a running elementwise maximum over the windows."""

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        windows = self._windows(x, -np.inf)
        out = next(windows).copy()
        for view in windows:
            np.maximum(out, view, out=out)
        return out.astype(np.float32, copy=False)


class AvgPool2D(_Pool2D):
    """Average pooling (count includes padding, like Caffe's default).

    A running sum over the windows divided by k*k: the same additions in
    the same order as ``mean`` over a stack of the windows.
    """

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        windows = self._windows(x, 0.0)
        out = next(windows).copy()
        for view in windows:
            out += view
        out /= self.kernel_size * self.kernel_size
        return out.astype(np.float32, copy=False)


class GlobalAvgPool(Layer):
    """Global average pooling: (C, H, W) → (C,)."""

    kernel_class = "pool"
    partitionable = False  # tiny reduction; never worth splitting

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) != 1 or not tensor.is_chw(in_shapes[0]):
            raise ShapeError(f"{self.name}: expects one (C,H,W) input, got {in_shapes}")
        return (in_shapes[0][0],)

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        return float(tensor.numel(in_shapes[0]))

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        return x.mean(axis=(1, 2)).astype(np.float32, copy=False)

"""Depthwise convolution (MobileNet-style separable convolutions).

Not used by the paper's six benchmarks, but the defining layer of the
most common *edge* architectures; added so users can push
MobileNet-class models through EdgeNN.  A depthwise conv filters each
input channel independently: O(C·k²·H'·W') MACs instead of a standard
conv's O(C·O·k²·H'·W') — extremely low arithmetic intensity, i.e. a
memory-bound kernel on both processors.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ...errors import ShapeError
from .. import tensor
from ..layer import Layer, Shape


class DepthwiseConv2D(Layer):
    """Per-channel 2-D convolution over ``(C, H, W)`` feature maps."""

    kernel_class = "conv"
    partitionable = True  # split by channels

    def __init__(
        self,
        name: str,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
    ) -> None:
        super().__init__(name)
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ShapeError(f"{name}: bad depthwise-conv hyper-parameters")
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
        return (c, out_h, out_w)

    def param_shapes(self, in_shapes: Sequence[Shape]) -> Dict[str, Shape]:
        c = in_shapes[0][0]
        k = self.kernel_size
        return {"weight": (c, k, k), "bias": (c,)}

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        c, out_h, out_w = out_shape
        macs = c * out_h * out_w * self.kernel_size * self.kernel_size
        return 2.0 * macs + c * out_h * out_w

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        weight, bias = params["weight"], params["bias"]
        c = x.shape[0]
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h, out_w = tensor.conv_output_hw(x.shape[1:], k, s, p)
        if p:
            x = np.pad(x, ((0, 0), (p, p), (p, p)))
        out = np.zeros((c, out_h, out_w), dtype=np.float32)
        for ki in range(k):
            for kj in range(k):
                window = x[:, ki : ki + s * out_h : s, kj : kj + s * out_w : s]
                out += window * weight[:, ki, kj][:, None, None]
        out += bias[:, None, None]
        return out

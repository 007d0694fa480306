"""Elementwise activations and the output softmax."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ...errors import ShapeError
from .. import tensor
from ..layer import Layer, Shape


class ReLU(Layer):
    """Rectified linear unit (shape preserving)."""

    kernel_class = "activation"
    partitionable = True

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) != 1:
            raise ShapeError(f"{self.name}: expects one input, got {len(in_shapes)}")
        return in_shapes[0]

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        return float(tensor.numel(out_shape))

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        return np.maximum(x, 0.0).astype(np.float32, copy=False)


class Add(Layer):
    """Elementwise addition of two equal-shape inputs (residual join)."""

    kernel_class = "activation"
    partitionable = False  # DAG join point: executed after branch sync

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) != 2 or in_shapes[0] != in_shapes[1]:
            raise ShapeError(f"{self.name}: expects two equal shapes, got {in_shapes}")
        return in_shapes[0]

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        return float(tensor.numel(out_shape))

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        a, b = inputs
        return (a + b).astype(np.float32, copy=False)


class Softmax(Layer):
    """Numerically stable softmax over a flat vector."""

    kernel_class = "softmax"
    partitionable = False

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) != 1 or not tensor.is_vector(in_shapes[0]):
            raise ShapeError(f"{self.name}: expects one flat input, got {in_shapes}")
        return in_shapes[0]

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        # exp + subtract-max + normalize, ~5 ops/element.
        return 5.0 * tensor.numel(out_shape)

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        shifted = x - x.max()
        e = np.exp(shifted)
        return (e / e.sum()).astype(np.float32, copy=False)

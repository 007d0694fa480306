"""Fully connected layer."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ...errors import ShapeError
from .. import tensor
from ..layer import Layer, Shape


class Dense(Layer):
    """Fully connected layer over a flat vector.

    At batch size 1 this is a GEMV: memory bound on its weight matrix, which
    is why the paper finds CPU help so profitable on fc layers (Table I).
    """

    kernel_class = "dense"
    partitionable = True  # split by output features

    def __init__(self, name: str, out_features: int) -> None:
        super().__init__(name)
        if out_features <= 0:
            raise ShapeError(f"{name}: out_features must be positive")
        self.out_features = out_features

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) != 1 or not tensor.is_vector(in_shapes[0]):
            raise ShapeError(
                f"{self.name}: expects one flat (N,) input, got {in_shapes}; "
                "insert a Flatten layer first"
            )
        return (self.out_features,)

    def param_shapes(self, in_shapes: Sequence[Shape]) -> Dict[str, Shape]:
        (n,) = in_shapes[0]
        return {"weight": (self.out_features, n), "bias": (self.out_features,)}

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        (n,) = in_shapes[0]
        return 2.0 * n * self.out_features + self.out_features

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        return (params["weight"] @ x + params["bias"]).astype(np.float32, copy=False)

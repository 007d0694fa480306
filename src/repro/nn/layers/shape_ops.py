"""Structural layers: flatten, concat, dropout.

Flatten and Dropout are no-ops at inference time (metadata-only reshape /
identity); they stay in the graph so layer counts and DAG structure match
the paper's networks, but they schedule no kernel.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ...errors import ShapeError
from .. import tensor
from ..layer import Layer, Shape


class Flatten(Layer):
    """(C, H, W) → (C*H*W,) — a view change, free at runtime."""

    kernel_class = "shape"
    partitionable = False

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) != 1:
            raise ShapeError(f"{self.name}: expects one input, got {len(in_shapes)}")
        return (tensor.numel(in_shapes[0]),)

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        return 0.0

    @property
    def is_noop(self) -> bool:
        return True

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        return x.reshape(-1)


class Dropout(Layer):
    """Identity at inference (kept for structural parity with the paper)."""

    kernel_class = "shape"
    partitionable = False

    def __init__(self, name: str, rate: float = 0.5) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ShapeError(f"{name}: dropout rate out of [0, 1)")
        self.rate = rate

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) != 1:
            raise ShapeError(f"{self.name}: expects one input, got {len(in_shapes)}")
        return in_shapes[0]

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        return 0.0

    @property
    def is_noop(self) -> bool:
        return True

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        return x


class Concat(Layer):
    """Channel concatenation of (C_i, H, W) inputs (SqueezeNet's fire join)."""

    kernel_class = "shape"
    partitionable = False  # DAG join point

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) < 2:
            raise ShapeError(f"{self.name}: concat needs >= 2 inputs")
        if not all(tensor.is_chw(s) for s in in_shapes):
            raise ShapeError(f"{self.name}: all inputs must be (C,H,W)")
        hw = {s[1:] for s in in_shapes}
        if len(hw) != 1:
            raise ShapeError(f"{self.name}: spatial dims differ: {in_shapes}")
        h, w = next(iter(hw))
        return (sum(s[0] for s in in_shapes), h, w)

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        return 0.0  # memcpy-like; cost is in its bytes

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        return np.concatenate(inputs, axis=0).astype(np.float32, copy=False)

"""Normalization layers: local response normalization and batch norm."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ...errors import ShapeError
from .. import tensor
from ..layer import Layer, Shape


class LRN(Layer):
    """AlexNet-style local response normalization across channels."""

    kernel_class = "norm"
    partitionable = True

    def __init__(
        self,
        name: str,
        size: int = 5,
        alpha: float = 1e-4,
        beta: float = 0.75,
        k: float = 2.0,
    ) -> None:
        super().__init__(name)
        if size <= 0:
            raise ShapeError(f"{name}: LRN size must be positive")
        self.size = size
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) != 1 or not tensor.is_chw(in_shapes[0]):
            raise ShapeError(f"{self.name}: expects one (C,H,W) input, got {in_shapes}")
        return in_shapes[0]

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        # square + windowed sum + pow + divide per element.
        return float(tensor.numel(out_shape) * (self.size + 4))

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        c = x.shape[0]
        squared = x * x
        half = self.size // 2
        denom = np.empty_like(x)
        for ch in range(c):
            lo, hi = max(0, ch - half), min(c, ch + half + 1)
            denom[ch] = squared[lo:hi].sum(axis=0)
        denom = (self.k + (self.alpha / self.size) * denom) ** self.beta
        return (x / denom).astype(np.float32, copy=False)


class BatchNorm2D(Layer):
    """Inference-mode batch normalization over channels of (C, H, W)."""

    kernel_class = "norm"
    partitionable = True

    def __init__(self, name: str, eps: float = 1e-5) -> None:
        super().__init__(name)
        self.eps = eps

    def infer_shape(self, in_shapes: Sequence[Shape]) -> Shape:
        if len(in_shapes) != 1 or not tensor.is_chw(in_shapes[0]):
            raise ShapeError(f"{self.name}: expects one (C,H,W) input, got {in_shapes}")
        return in_shapes[0]

    def param_shapes(self, in_shapes: Sequence[Shape]) -> Dict[str, Shape]:
        c = in_shapes[0][0]
        return {"gamma": (c,), "beta": (c,), "mean": (c,), "var": (c,)}

    def flops(self, in_shapes: Sequence[Shape], out_shape: Shape) -> float:
        return 2.0 * tensor.numel(out_shape)  # fused scale + shift

    def forward(
        self, inputs: List[np.ndarray], params: Dict[str, np.ndarray]
    ) -> np.ndarray:
        (x,) = inputs
        scale = params["gamma"] / np.sqrt(params["var"] + self.eps)
        shift = params["beta"] - params["mean"] * scale
        return (x * scale[:, None, None] + shift[:, None, None]).astype(np.float32, copy=False)

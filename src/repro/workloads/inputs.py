"""Deterministic synthetic inputs for the benchmark networks.

The paper feeds compressed camera images (~400 KB); runtime cost depends
only on tensor shapes, so deterministic synthetic tensors of the same
shapes preserve the measured behaviour (see DESIGN.md substitution table).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..nn.graph import NetworkGraph
from ..nn.models import shared


def input_for(network: Union[str, NetworkGraph], seed: int = 0) -> np.ndarray:
    """A reproducible random input of the network's declared shape.

    Values are drawn uniformly from [0, 1) like a normalized image.
    """
    graph = shared(network) if isinstance(network, str) else network
    rng = np.random.default_rng(seed)
    return rng.random(graph.input_shape, dtype=np.float32)


def batch_of_inputs(
    network: Union[str, NetworkGraph], count: int, seed: int = 0
) -> list:
    """``count`` distinct deterministic inputs (for repeated-inference
    scenarios such as the adaptive-tuning demo)."""
    if count <= 0:
        raise ValueError("count must be positive")
    return [input_for(network, seed=seed + i) for i in range(count)]

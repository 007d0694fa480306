"""Inference-service simulation: cold starts vs warm steady state.

The paper's benchmarks measure *one-shot* inference — "inference needs
numerous input parameters and computes forward propagation only once" —
which is exactly the regime where parameter copies dominate (Fig 9) and
zero-copy pays most.  A deployed inference *service* instead loads weights
once and answers many requests.  This module simulates both phases so a
user can see where the paper's conclusions carry over:

* **cold** — first request: weights must reach the GPU (explicit copies
  under regular allocation; first-touch under managed).
* **warm** — steady state: weights already resident; only per-request
  activations move.

The zero-copy benefit shrinks in the warm phase (its biggest win was the
parameter staging), while the hybrid-execution benefit persists — a
useful decomposition the paper's one-shot setup cannot show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..hardware.device import Device
from ..hardware.specs import DeviceSpec
from ..nn.graph import NetworkGraph
from ..nn.models import build as build_model
from .engine import EdgeNN, EdgeNNConfig
from .memory_manager import MemoryPolicy


@dataclass(frozen=True)
class ServiceProfile:
    """Latency profile of an inference service."""

    network: str
    device: str
    cold_s: float          # first-request latency
    warm_s: float          # steady-state request latency
    requests_to_amortize: int   # requests until the cold overhead is <1%

    @property
    def cold_overhead_s(self) -> float:
        return self.cold_s - self.warm_s


def _lowering_overrides(config: EdgeNNConfig | None) -> dict:
    """Match the execution semantics of the configuration: without the
    semantic memory manager, the runtime behaves like the original
    programs (single stream, per-layer host staging)."""
    plain = (
        config is not None
        and config.memory_policy() is MemoryPolicy.ALL_REGULAR
    )
    return {"serialize": plain, "host_staging": plain}


def profile_service(
    network: Union[str, NetworkGraph],
    device: Union[Device, DeviceSpec, None] = None,
    config: EdgeNNConfig | None = None,
) -> ServiceProfile:
    """Cold/warm latency profile of an EdgeNN-tuned inference service."""
    graph = build_model(network) if isinstance(network, str) else network
    engine = EdgeNN(graph, device, config)
    compiled = engine.compiled()
    overrides = _lowering_overrides(config)
    cold = compiled.execute(**overrides)
    warm = compiled.execute(warm_weights=True, **overrides)
    overhead = max(0.0, cold.total_s - warm.total_s)
    if overhead <= 0:
        amortize = 1
    else:
        amortize = max(1, int(overhead / (0.01 * warm.total_s)) + 1)
    return ServiceProfile(
        network=graph.name,
        device=engine.device.name,
        cold_s=cold.total_s,
        warm_s=warm.total_s,
        requests_to_amortize=amortize,
    )


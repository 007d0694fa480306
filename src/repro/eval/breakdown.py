"""Analysis tooling: roofline boundness and time breakdowns.

Answers the "why" questions behind the paper's results for any network on
any device:

* which layers are compute- vs memory-bound on each processor (the
  property that decides whether a split can pay, §IV-D);
* where a run's time actually goes (kernel class / processor / copies);
* per-layer CPU:GPU time ratios — the ``t_cpu / t_gpu`` landscape the
  tuner navigates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from ..core.report import InferenceReport
from ..hardware.device import Device
from ..hardware.specs import JETSON_AGX_XAVIER, DeviceSpec, ProcessorKind
from ..nn.graph import NetworkGraph
from ..nn.models import shared
from .formatting import render_table


@dataclass(frozen=True)
class LayerBoundness:
    """Roofline characterization of one layer on one device."""

    layer: str
    kernel_class: str
    flops: float
    bytes_moved: float
    cpu_s: float
    gpu_s: float
    cpu_memory_bound: bool
    gpu_memory_bound: bool

    @property
    def arithmetic_intensity(self) -> float:
        if self.bytes_moved == 0:
            return float("inf")
        return self.flops / self.bytes_moved

    @property
    def cpu_gpu_ratio(self) -> float:
        """t_cpu / t_gpu — >1 means the GPU wins this layer."""
        if self.gpu_s == 0:
            return float("inf")
        return self.cpu_s / self.gpu_s


def roofline_breakdown(
    network: Union[str, NetworkGraph],
    device: Union[Device, DeviceSpec] = JETSON_AGX_XAVIER,
) -> Tuple[LayerBoundness, ...]:
    """Per-layer roofline characterization (no execution needed)."""
    graph = shared(network) if isinstance(network, str) else network
    dev = device if isinstance(device, Device) else Device(device)
    rows: List[LayerBoundness] = []
    for name in graph.topo_order():
        node = graph.node(name)
        if node.layer.is_noop:
            continue
        work = graph.work(name)
        cpu = dev.kernel_cost(ProcessorKind.CPU, work)
        gpu = dev.kernel_cost(ProcessorKind.GPU, work)
        rows.append(
            LayerBoundness(
                layer=name,
                kernel_class=work.kernel_class,
                flops=work.flops,
                bytes_moved=work.total_bytes,
                cpu_s=cpu.total_s,
                gpu_s=gpu.total_s,
                cpu_memory_bound=cpu.is_memory_bound,
                gpu_memory_bound=gpu.is_memory_bound,
            )
        )
    return tuple(rows)


def split_candidates(
    network: Union[str, NetworkGraph],
    device: Union[Device, DeviceSpec] = JETSON_AGX_XAVIER,
    *,
    max_ratio: float = 3.0,
) -> List[str]:
    """Layers whose CPU:GPU time ratio suggests a profitable split (the
    tuner's shortlist): partitionable layers where the CPU is within
    ``max_ratio`` of the GPU."""
    graph = shared(network) if isinstance(network, str) else network
    candidates = []
    for row in roofline_breakdown(graph, device):
        node = graph.node(row.layer)
        if node.layer.partitionable and row.cpu_gpu_ratio <= max_ratio:
            candidates.append(row.layer)
    return candidates


def time_breakdown(report: InferenceReport) -> Dict[str, float]:
    """Where a run's attributed time goes, by kernel class plus copies."""
    out: Dict[str, float] = {}
    for lr in report.layers:
        key = lr.kernel_class
        out[key] = out.get(key, 0.0) + max(lr.kernel_cpu_s, lr.kernel_gpu_s)
    out["copies"] = report.copy_s_total
    return out


def format_breakdown(
    network: Union[str, NetworkGraph],
    device: Union[Device, DeviceSpec] = JETSON_AGX_XAVIER,
) -> str:
    """Human-readable roofline table for one network on one device."""
    rows = roofline_breakdown(network, device)
    name = network if isinstance(network, str) else network.name
    return render_table(
        ["layer", "class", "AI (flop/B)", "cpu_ms", "gpu_ms", "t_cpu/t_gpu",
         "cpu bound", "gpu bound"],
        [
            (
                r.layer, r.kernel_class,
                r.arithmetic_intensity,
                r.cpu_s * 1e3, r.gpu_s * 1e3, r.cpu_gpu_ratio,
                "mem" if r.cpu_memory_bound else "compute",
                "mem" if r.gpu_memory_bound else "compute",
            )
            for r in rows
        ],
        title=f"Roofline breakdown — {name}",
    )

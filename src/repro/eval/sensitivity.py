"""Sensitivity analysis: do the paper's conclusions survive perturbed
hardware assumptions?

The simulator's fitted constants (DESIGN.md substitution table) carry
uncertainty.  This module re-runs the headline comparisons while sweeping
the physically-uncertain device parameters — DRAM bandwidth, copy-engine
rate, co-run controller efficiency — and reports how the *conclusions*
(EdgeNN beats GPU-only; integrated beats edge CPU) respond.  Conclusions
that flip under small perturbations would be calibration artifacts; these
don't (see ``tests/eval/test_sensitivity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple, Union

from ..baselines import run_cpu_only, run_gpu_only
from ..core.engine import EdgeNN
from ..hardware.device import Device
from ..hardware.specs import JETSON_AGX_XAVIER, DeviceSpec, InterconnectSpec
from ..nn.graph import NetworkGraph
from ..nn.models import shared


@dataclass(frozen=True)
class SensitivityPoint:
    """One perturbed configuration and its headline outcomes."""

    parameter: str
    scale: float
    edgenn_s: float
    gpu_only_s: float
    cpu_only_s: float

    @property
    def edgenn_improvement_pct(self) -> float:
        return (self.gpu_only_s - self.edgenn_s) / self.gpu_only_s * 100.0

    @property
    def cpu_speedup(self) -> float:
        return self.cpu_only_s / self.edgenn_s

    @property
    def conclusions_hold(self) -> bool:
        """EdgeNN beats the original program AND the edge CPU."""
        return (
            self.edgenn_s <= self.gpu_only_s * 1.001
            and self.edgenn_s < self.cpu_only_s
        )


def _perturbed_spec(parameter: str, scale: float) -> DeviceSpec:
    base = JETSON_AGX_XAVIER
    if parameter == "dram_bandwidth":
        return replace(
            base,
            name=f"{base.name}~dram x{scale:g}",
            memory=replace(base.memory, bandwidth=base.memory.bandwidth * scale),
        )
    if parameter == "copy_rate":
        return replace(
            base,
            name=f"{base.name}~copy x{scale:g}",
            interconnect=InterconnectSpec(
                name=base.interconnect.name,
                rate=base.interconnect.rate * scale,
                latency_s=base.interconnect.latency_s,
            ),
        )
    if parameter == "corun_efficiency":
        return replace(
            base,
            name=f"{base.name}~corun x{scale:g}",
            corun_dram_efficiency=min(1.0, base.corun_dram_efficiency * scale),
        )
    raise ValueError(
        f"unknown parameter {parameter!r}; expected dram_bandwidth, "
        "copy_rate, or corun_efficiency"
    )


def sweep(
    network: Union[str, NetworkGraph],
    parameter: str,
    scales: Sequence[float] = (0.5, 0.75, 1.0, 1.5, 2.0),
) -> Tuple[SensitivityPoint, ...]:
    """Perturb one device parameter and re-measure the headline times."""
    points = []
    for scale in scales:
        spec = _perturbed_spec(parameter, scale)
        graph = shared(network) if isinstance(network, str) else network
        edgenn = EdgeNN(graph, Device(spec)).run()
        gpu = run_gpu_only(network, spec)
        cpu = run_cpu_only(network, spec)
        points.append(
            SensitivityPoint(
                parameter=parameter,
                scale=scale,
                edgenn_s=edgenn.total_s,
                gpu_only_s=gpu.total_s,
                cpu_only_s=cpu.total_s,
            )
        )
    return tuple(points)


def conclusions_robust(
    network: Union[str, NetworkGraph] = "alexnet",
    parameters: Sequence[str] = ("dram_bandwidth", "copy_rate",
                                 "corun_efficiency"),
    scales: Sequence[float] = (0.5, 1.0, 2.0),
) -> bool:
    """True when the headline conclusions hold at every swept point."""
    return all(
        point.conclusions_hold
        for parameter in parameters
        for point in sweep(network, parameter, scales)
    )

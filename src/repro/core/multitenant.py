"""Multi-DNN concurrent inference on one integrated device.

The paper's introduction motivates AIoT deployments running several
analytics models at once (its related work cites DART [88], "pipelined
data-parallel CPU/GPU scheduling for multi-DNN real-time inference").
This extension co-runs several EdgeNN-tuned networks on one simulated
device: each network keeps its own tuned plan and buffers (namespaced),
and their kernel submissions interleave round-robin on the shared
timeline — the way concurrent CUDA streams time-share the hardware.

Useful questions it answers:

* how much makespan does co-locating two models save vs running them
  back-to-back (resource complementarity: a CPU-heavy plan overlaps a
  GPU-heavy one);
* how much each tenant's latency stretches under contention
  (the per-tenant slowdown factor).

This module is the *one-shot* co-run primitive: every tenant submits
exactly one inference and the interleaving is round-robin.  Sustained
request streams — queues, dynamic batching, admission control, and
**weighted fair-share** scheduling that replaces round-robin at the
request level — live in :mod:`repro.serving`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..hardware.device import Device
from ..hardware.power import EnergyReport, energy_for_run
from ..hardware.specs import DeviceSpec
from ..hardware import calibration as cal
from ..nn.graph import NetworkGraph
from ..sim.timeline import COPY, CPU, GPU, Timeline
from .engine import EdgeNN, EdgeNNConfig
from .executor import HybridExecutor
from .plan import ExecutionPlan
from .report import InferenceReport


@dataclass(frozen=True)
class TenantResult:
    """One co-running network's outcome."""

    report: InferenceReport
    solo_s: float              # tuned latency when running alone

    @property
    def completion_s(self) -> float:
        return self.report.total_s

    @property
    def slowdown(self) -> float:
        """Latency stretch caused by sharing the device (>= ~1)."""
        if self.solo_s == 0:
            return 1.0
        return self.completion_s / self.solo_s


@dataclass(frozen=True)
class MultiTenantReport:
    """Co-running outcome for all tenants."""

    device: str
    tenants: Tuple[TenantResult, ...]
    makespan_s: float
    energy: EnergyReport

    @property
    def sequential_s(self) -> float:
        """Time the same work takes run back-to-back."""
        return sum(t.solo_s for t in self.tenants)

    @property
    def makespan_saving_pct(self) -> float:
        """How much co-running shrinks the makespan vs sequential."""
        if self.sequential_s == 0:
            return 0.0
        return (self.sequential_s - self.makespan_s) / self.sequential_s * 100.0

    def tenant(self, network: str) -> TenantResult:
        for t in self.tenants:
            if t.report.network == network:
                return t
        raise ReproError(f"no tenant {network!r}")


def run_concurrent(
    device: Union[Device, DeviceSpec],
    jobs: Sequence[Tuple[NetworkGraph, ExecutionPlan]],
) -> MultiTenantReport:
    """Co-run pre-planned networks on one device.

    Each job is a (graph, plan) pair — typically the output of
    :class:`~repro.core.engine.EdgeNN` tuning.  Submissions interleave
    round-robin; dependencies and per-resource serialization are handled
    by the shared timeline.
    """
    if not jobs:
        raise ReproError("run_concurrent needs at least one job")
    dev = device if isinstance(device, Device) else Device(device)

    # Solo reference runs (each on a fresh device instance of the same spec).
    solos: List[float] = []
    for graph, plan in jobs:
        solo_dev = Device(dev.spec)
        solos.append(HybridExecutor(graph, solo_dev, plan).run().total_s)

    dev.reset()
    timeline = Timeline((CPU, GPU, COPY))
    executors = [
        HybridExecutor(graph, dev, plan, namespace=f"t{i}")
        for i, (graph, plan) in enumerate(jobs)
    ]
    for executor in executors:
        executor.begin(timeline, reset_device=False)
    # Round-robin submission; each tenant finishes (reads its output back)
    # as soon as its own last kernel is submitted — resources are FIFO
    # queues, so deferring the readback would queue it behind the other
    # tenants' later work.
    finished: Dict[int, InferenceReport] = {}
    active = list(enumerate(executors))
    while active:
        still = []
        for idx, executor in active:
            if executor.step():
                still.append((idx, executor))
            else:
                finished[idx] = executor.finish()
        active = still
    reports = [finished[i] for i in range(len(executors))]

    makespan = timeline.trace.span()
    cpu_busy = timeline.busy_time(CPU)
    cpu_for_power = cpu_busy
    if cpu_busy > 0 and makespan > cpu_busy:
        cpu_for_power = cpu_busy + cal.OMP_SPIN_UTILIZATION * (makespan - cpu_busy)
    energy = energy_for_run(
        dev.spec, makespan, min(cpu_for_power, makespan),
        min(timeline.busy_time(GPU), makespan) if dev.has_gpu else 0.0,
    )
    tenants = tuple(
        TenantResult(report=report, solo_s=solo)
        for report, solo in zip(reports, solos)
    )
    return MultiTenantReport(
        device=dev.name, tenants=tenants, makespan_s=makespan, energy=energy,
    )


def concurrent_edgenn(
    networks: Sequence[Union[str, NetworkGraph]],
    device: Union[Device, DeviceSpec, None] = None,
    config: Optional[EdgeNNConfig] = None,
) -> MultiTenantReport:
    """Tune each network independently, then co-run them."""
    engines = [EdgeNN(net, device, config) for net in networks]
    jobs = [(engine.graph, engine.plan) for engine in engines]
    return run_concurrent(Device(engines[0].device.spec), jobs)

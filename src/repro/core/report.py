"""Inference execution reports.

Everything the evaluation section needs comes out of these records:
end-to-end latency (Figs 6, 8, 12), per-layer times (Figs 10, 11, Table I),
copy-time shares (Fig 9), utilizations and energy (Figs 7, 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import ReproError
from ..hardware.power import EnergyReport
from ..sim.trace import Trace
from .plan import Assignment


@dataclass(slots=True)
class LayerResult:
    """Measured execution of one layer within a run.

    A value, like :class:`~repro.sim.trace.TraceEvent`, and unfrozen for
    the same reason: an executor run builds one per layer."""

    name: str
    kernel_class: str
    assignment: Assignment
    cpu_fraction: float
    start_s: float
    end_s: float
    kernel_cpu_s: float    # CPU-side kernel time (0 when CPU unused)
    kernel_gpu_s: float    # GPU-side kernel time (0 when GPU unused)
    copy_s: float          # explicit copies attributed to this layer
    overhead_s: float      # first-touch / partition / consistency overheads
    consistency_s: float = 0.0   # managed co-write consistency storm time

    @property
    def wall_s(self) -> float:
        """Wall-clock span of the layer on the timeline.  Includes any time
        spent queued behind other streams' work, so it is the right metric
        for schedule inspection but not for per-layer cost comparison."""
        return self.end_s - self.start_s

    @property
    def kernel_s(self) -> float:
        """Kernel-only time (the slower side for splits) — what a
        cudaEvent pair around the kernel would measure.  Fig 10 uses this
        metric (the paper times kernels, not the surrounding memcpys)."""
        return max(self.kernel_cpu_s, self.kernel_gpu_s)

    @property
    def attributed_s(self) -> float:
        """Time attributable to this layer alone: the slower of its two
        kernel sides plus its explicit copies.  This is what the paper's
        per-layer figures (Figs 10/11, Table I) measure — queue waits
        caused by *other* layers are excluded."""
        return (
            max(self.kernel_cpu_s, self.kernel_gpu_s)
            + self.copy_s
            + self.consistency_s
        )


@dataclass
class InferenceReport:
    """Complete result of one simulated inference."""

    network: str
    device: str
    total_s: float
    layers: List[LayerResult]
    copy_s_total: float          # all explicit copy time, incl. final readback
    cpu_busy_s: float
    gpu_busy_s: float
    energy: EnergyReport
    trace: Trace
    plan_summary: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    def layer(self, name: str) -> LayerResult:
        """Result of one layer by name."""
        for lr in self.layers:
            if lr.name == name:
                return lr
        raise ReproError(f"no layer {name!r} in report for {self.network}")

    @property
    def copy_share(self) -> float:
        """Fraction of total time spent in explicit CPU<->GPU copies
        (the quantity plotted in Fig 9)."""
        if self.total_s == 0:
            return 0.0
        return self.copy_s_total / self.total_s

    @property
    def cpu_utilization(self) -> float:
        return self.energy.cpu_utilization

    @property
    def gpu_utilization(self) -> float:
        return self.energy.gpu_utilization

    def time_by_class(self) -> Dict[str, float]:
        """Wall time per kernel class (conv / dense / pool / ...)."""
        out: Dict[str, float] = {}
        for lr in self.layers:
            out[lr.kernel_class] = out.get(lr.kernel_class, 0.0) + lr.wall_s
        return out

    def layers_of_class(self, kernel_class: str) -> List[LayerResult]:
        return [lr for lr in self.layers if lr.kernel_class == kernel_class]

    def to_dict(self) -> Dict[str, object]:
        """Flat summary for tabulation / JSON export."""
        return {
            "network": self.network,
            "device": self.device,
            "total_ms": self.total_s * 1e3,
            "copy_ms": self.copy_s_total * 1e3,
            "copy_share": self.copy_share,
            "cpu_util": self.cpu_utilization,
            "gpu_util": self.gpu_utilization,
            "power_w": self.energy.average_power_w,
            "energy_j": self.energy.energy_j,
            "plan": self.plan_summary,
        }


def improvement(baseline_s: float, improved_s: float) -> float:
    """Relative improvement of ``improved`` over ``baseline`` (the paper's
    "time benefits"): positive means faster."""
    if baseline_s <= 0:
        raise ReproError(f"baseline time must be positive, got {baseline_s}")
    return (baseline_s - improved_s) / baseline_s


def speedup(baseline_s: float, improved_s: float) -> float:
    """Classic speedup factor baseline/improved."""
    if improved_s <= 0:
        raise ReproError(f"improved time must be positive, got {improved_s}")
    return baseline_s / improved_s

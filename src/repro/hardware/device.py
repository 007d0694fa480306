"""Runtime device: a spec plus mutable memory / copy-engine state.

:class:`Device` is what executors and baselines operate on.  It quotes
kernel costs (roofline), owns the :class:`~repro.hardware.memory.MemoryModel`
and :class:`~repro.hardware.copy_engine.CopyEngine`, and exposes the co-run
contention primitive.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SpecError
from . import calibration as cal
from .contention import corun_pair
from .copy_engine import CopyEngine
from .memory import MemoryModel
from .roofline import KernelCost, KernelWork, kernel_cost, split_cost_terms
from .specs import DeviceSpec, ProcessorKind, ProcessorSpec


class Device:
    """One simulated platform instance.

    The spec is immutable; :meth:`reset` refreshes the per-run state
    (buffers, copy statistics) between inferences.
    """

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.memory = MemoryModel(spec)
        self.copy_engine: Optional[CopyEngine] = (
            CopyEngine(spec.interconnect) if spec.interconnect is not None else None
        )

    # -- structure -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_integrated(self) -> bool:
        return self.spec.is_integrated

    @property
    def has_gpu(self) -> bool:
        return self.spec.has_gpu

    def processor(self, kind: ProcessorKind) -> ProcessorSpec:
        """The processor of the requested kind; raises if absent."""
        if kind is ProcessorKind.CPU:
            return self.spec.cpu
        if self.spec.gpu is None:
            raise SpecError(f"device {self.name!r} has no GPU")
        return self.spec.gpu

    def reset(self) -> None:
        """Fresh memory model and copy statistics for a new run."""
        self.memory = MemoryModel(self.spec)
        if self.copy_engine is not None:
            self.copy_engine.reset()

    # -- cost quoting ---------------------------------------------------------

    def kernel_cost(
        self,
        proc_kind: ProcessorKind,
        work: KernelWork,
        *,
        mem_bw_factor: float = 1.0,
        include_launch: bool = True,
    ) -> KernelCost:
        """Roofline cost of ``work`` on the given processor."""
        proc = self.processor(proc_kind)
        return kernel_cost(
            self.spec, proc, work,
            mem_bw_factor=mem_bw_factor, include_launch=include_launch,
        )

    def copy_rate(self) -> float:
        """Explicit-copy rate (paper's ``s``); raises for CPU-only devices."""
        if self.copy_engine is None:
            raise SpecError(f"device {self.name!r} has no copy engine")
        return self.copy_engine.rate

    def corun(self, cpu_cost: KernelCost, gpu_cost: KernelCost) -> tuple[float, float]:
        """Body finish times of a CPU and a GPU kernel co-running.

        On a unified-memory device the streams contend for DRAM (water-
        filled shared bandwidth) and additionally slow each other down
        through arbitration/cache interference (CORUN_*_SLOWDOWN, after
        ref [97]); on a discrete device each side has its own memory and
        runs at solo speed.  Launch overheads are *not* included (callers
        schedule them separately on each stream).
        """
        return self._corun(
            cpu_cost.compute_s, cpu_cost.memory_s, cpu_cost.bytes_moved,
            gpu_cost.compute_s, gpu_cost.memory_s, gpu_cost.bytes_moved,
        )

    def split_bodies(
        self,
        cpu_work: KernelWork,
        gpu_work: KernelWork,
        cpu_fraction: float,
        *,
        cpu_bw_factor: float = 1.0,
        gpu_bw_factor: float = 1.0,
    ) -> tuple[float, float]:
        """Body finish times of one layer split ``cpu_fraction`` /
        ``1 - cpu_fraction`` between the CPU and the GPU: :meth:`corun` of
        both sides' launch-free :meth:`kernel_cost` on
        ``cpu_work.scaled(cpu_fraction)`` and
        ``gpu_work.scaled(1 - cpu_fraction)``, in the same float
        operations and with the same checks, but with no per-call
        objects."""
        cpu = split_cost_terms(
            self.spec, self.spec.cpu, cpu_work, cpu_fraction,
            mem_bw_factor=cpu_bw_factor,
        )
        gpu = split_cost_terms(
            self.spec, self.processor(ProcessorKind.GPU), gpu_work,
            1.0 - cpu_fraction, mem_bw_factor=gpu_bw_factor,
        )
        return self._corun(*cpu, *gpu)

    def _corun(
        self,
        cpu_compute_s: float, cpu_memory_s: float, cpu_bytes: float,
        gpu_compute_s: float, gpu_memory_s: float, gpu_bytes: float,
    ) -> tuple[float, float]:
        """:meth:`corun` of two kernels' roofline terms."""
        cpu_body = max(cpu_compute_s, cpu_memory_s)
        gpu_body = max(gpu_compute_s, gpu_memory_s)
        if not self.is_integrated:
            return cpu_body, gpu_body
        # Each side streams at the bandwidth it would consume alone.
        cpu_s, gpu_s = corun_pair(
            cpu_compute_s, cpu_bytes, _solo_rate(cpu_bytes, cpu_body),
            gpu_compute_s, gpu_bytes, _solo_rate(gpu_bytes, gpu_body),
            self.spec.memory.bandwidth,
            corun_efficiency=self.spec.corun_dram_efficiency,
        )
        return cpu_s * cal.CORUN_CPU_SLOWDOWN, gpu_s * cal.CORUN_GPU_SLOWDOWN


def _solo_rate(bytes_moved: float, body_s: float) -> float:
    """A kernel's stream rate alone (:attr:`KernelCost.demand_bw`), or 1
    for a kernel that moves nothing."""
    if not bytes_moved:
        return 1.0
    return 0.0 if body_s == 0 else bytes_moved / body_s

"""Roofline kernel cost model.

A kernel is characterized by :class:`KernelWork` — how many FLOPs it
executes and how many bytes it moves, split into input activations, weights,
and outputs (the split matters because intra-kernel CPU/GPU partitioning
duplicates activation reads but divides weights and outputs).

Its simulated execution time on a processor is the classic roofline:

    t = max(flops / attained_flops, bytes / attained_bandwidth) + launch

with per-kernel-class attained fractions from the calibration tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SpecError
from .specs import DeviceSpec, ProcessorSpec


@dataclass(frozen=True)
class KernelWork:
    """Work performed by one kernel (one network layer, or one side of a
    partitioned layer).

    ``act_in_bytes``  — input activation bytes read.
    ``weight_bytes``  — parameter bytes read.
    ``out_bytes``     — output bytes written.
    ``out_elements``  — output element count; drives the GPU occupancy
    ramp (a kernel with few outputs cannot fill the machine).
    """

    kernel_class: str
    flops: float
    act_in_bytes: float
    weight_bytes: float
    out_bytes: float
    out_elements: float = 1.0

    def __post_init__(self) -> None:
        if self.flops < 0 or min(self.act_in_bytes, self.weight_bytes, self.out_bytes) < 0:
            raise SpecError("kernel work terms cannot be negative")
        if self.out_elements <= 0:
            raise SpecError("out_elements must be positive")

    @property
    def total_bytes(self) -> float:
        """All bytes moved through DRAM by this kernel."""
        return self.act_in_bytes + self.weight_bytes + self.out_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte; infinity for zero-byte kernels."""
        if self.total_bytes == 0:
            return float("inf")
        return self.flops / self.total_bytes

    def scaled(self, fraction: float) -> "KernelWork":
        """The portion of this kernel assigned one processor when the output
        is split ``fraction`` / ``1 - fraction`` (e.g. by output channels).

        FLOPs, weights, and outputs divide with the split; the *full* input
        activation is read by both sides (each output channel needs every
        input channel), which is exactly why fine-grained splits are only
        attractive when memory is shared.
        """
        if not 0.0 <= fraction <= 1.0:
            raise SpecError(f"fraction out of [0, 1]: {fraction}")
        return KernelWork(
            kernel_class=self.kernel_class,
            flops=self.flops * fraction,
            act_in_bytes=self.act_in_bytes,
            weight_bytes=self.weight_bytes * fraction,
            out_bytes=self.out_bytes * fraction,
            out_elements=max(1.0, self.out_elements * fraction),
        )


@dataclass(frozen=True)
class KernelCost:
    """Roofline cost of one kernel on one processor."""

    compute_s: float
    memory_s: float
    launch_s: float
    bytes_moved: float

    @property
    def body_s(self) -> float:
        """Kernel body time (without launch): roofline max."""
        return max(self.compute_s, self.memory_s)

    @property
    def total_s(self) -> float:
        """Wall time including launch overhead."""
        return self.body_s + self.launch_s

    @property
    def is_memory_bound(self) -> bool:
        return self.memory_s >= self.compute_s

    @property
    def demand_bw(self) -> float:
        """Bandwidth the kernel body consumes (bytes/s) when run alone."""
        if self.body_s == 0:
            return 0.0
        return self.bytes_moved / self.body_s


def occupancy_factor(proc: ProcessorSpec, work: KernelWork) -> float:
    """GPU occupancy ramp: throughput fraction attained with this output
    size.

    Below the per-kernel-class saturation point the kernel cannot fill the
    machine; attained throughput scales linearly with
    ``elements / saturation`` (one thread per output element), floored so
    degenerate single-output kernels stay finite.  Processors without a
    saturation table (CPUs) always return 1.
    """
    return _occupancy(proc, work.kernel_class, work.out_elements)


def _occupancy(proc: ProcessorSpec, kernel_class: str, out_elements: float) -> float:
    if proc.saturation_elements is None:
        return 1.0
    saturation = proc.saturation_elements.get(kernel_class)
    if saturation is None or saturation <= 0:
        return 1.0
    return max(0.01, min(1.0, out_elements / saturation))


def _roofline(
    device: DeviceSpec,
    proc: ProcessorSpec,
    kernel_class: str,
    flops: float,
    total_bytes: float,
    out_elements: float,
    mem_bw_factor: float,
) -> tuple[float, float]:
    """``(compute_s, memory_s)`` of a kernel's terms on ``proc``."""
    if mem_bw_factor <= 0:
        raise SpecError(f"mem_bw_factor must be positive, got {mem_bw_factor}")
    eff = proc.efficiency_for(kernel_class)
    occupancy = _occupancy(proc, kernel_class, out_elements)
    attained_flops = proc.peak_flops * eff.compute * occupancy
    attained_bw = (
        device.stream_bandwidth(proc) * eff.memory * mem_bw_factor * occupancy
    )
    return flops / attained_flops, total_bytes / attained_bw


def kernel_cost(
    device: DeviceSpec,
    proc: ProcessorSpec,
    work: KernelWork,
    *,
    mem_bw_factor: float = 1.0,
    include_launch: bool = True,
) -> KernelCost:
    """Roofline cost of ``work`` on ``proc`` of ``device``.

    ``mem_bw_factor`` scales the attained bandwidth, used for managed
    (zero-copy) buffers whose coherent access path is slower.
    """
    total_bytes = work.total_bytes
    compute_s, memory_s = _roofline(
        device, proc, work.kernel_class, work.flops, total_bytes,
        work.out_elements, mem_bw_factor,
    )
    return KernelCost(
        compute_s=compute_s,
        memory_s=memory_s,
        launch_s=proc.launch_overhead_s if include_launch else 0.0,
        bytes_moved=total_bytes,
    )


def split_cost_terms(
    device: DeviceSpec,
    proc: ProcessorSpec,
    work: KernelWork,
    fraction: float,
    *,
    mem_bw_factor: float = 1.0,
) -> tuple[float, float, float]:
    """``(compute_s, memory_s, bytes_moved)`` of one side of a split
    kernel: the :func:`kernel_cost` of ``work.scaled(fraction)``, in the
    same float operations and with the same checks, but without building
    the scaled work or its cost (the executor prices every split layer
    on every run)."""
    if not 0.0 <= fraction <= 1.0:
        raise SpecError(f"fraction out of [0, 1]: {fraction}")
    total_bytes = (
        work.act_in_bytes + work.weight_bytes * fraction
        + work.out_bytes * fraction
    )
    compute_s, memory_s = _roofline(
        device, proc, work.kernel_class, work.flops * fraction, total_bytes,
        max(1.0, work.out_elements * fraction), mem_bw_factor,
    )
    return compute_s, memory_s, total_bytes

"""Thermal/DVFS throttling applied to a :class:`DeviceSpec`.

Edge SoCs shift operating points under power and thermal pressure: the
DVFS governor cuts processor clocks and the EMC (DRAM) frequency, which
moves every roofline the performance model computes from the spec.  The
paper evaluates a well-behaved device; the fault-injection layer
(:mod:`repro.faults`) uses this module to derive the *throttled* device
a thermal window puts the system on, exactly the way
:func:`repro.hardware.variants.jetson_power_mode` derives nvpmodel caps.

A throttled spec is a first-class :class:`DeviceSpec`: the tuner can
re-tune against it (graceful degradation re-plans for the operating
point actually in effect), and a compiled plan can execute stale on
it (what a non-resilient deployment suffers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import SpecError
from .specs import DeviceSpec, PowerSpec


@dataclass(frozen=True)
class ThrottleFactors:
    """Multiplicative rate cuts a throttle window applies (all in (0, 1]).

    GPU clocks are typically cut hardest under thermal pressure (the GPU
    is the hottest block on an integrated SoC), which is what shifts the
    CPU/GPU balance the tuner originally optimized for.
    """

    cpu: float = 1.0
    gpu: float = 1.0
    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        for label, value in (
            ("cpu", self.cpu), ("gpu", self.gpu),
            ("bandwidth", self.bandwidth),
        ):
            if not 0.0 < value <= 1.0:
                raise SpecError(
                    f"throttle {label} factor must be in (0, 1], got {value}"
                )

    @property
    def is_noop(self) -> bool:
        return self.cpu == 1.0 and self.gpu == 1.0 and self.bandwidth == 1.0

    def slug(self) -> str:
        """Stable identifier used in derived spec/cache names."""
        return f"thr-c{self.cpu:.3f}-g{self.gpu:.3f}-b{self.bandwidth:.3f}"


def apply_throttle(spec: DeviceSpec, factors: ThrottleFactors) -> DeviceSpec:
    """``spec`` under one throttle window's DVFS operating point.

    Clocks and streaming bandwidths scale per processor, DRAM bandwidth
    by the EMC cut, and dynamic power terms track the clock cuts (lower
    clocks draw less) — the same shape as the nvpmodel power modes.  A
    no-op factor set returns ``spec`` unchanged (same object), so cache
    keys are unaffected outside fault windows.
    """
    if factors.is_noop:
        return spec
    suffix = factors.slug()
    cpu = replace(
        spec.cpu,
        name=f"{spec.cpu.name}@{suffix}",
        clock_hz=spec.cpu.clock_hz * factors.cpu,
        max_stream_bw=spec.cpu.max_stream_bw * factors.bandwidth,
    )
    if spec.cpu.peak_flops_override is not None:
        cpu = replace(
            cpu,
            peak_flops_override=spec.cpu.peak_flops_override * factors.cpu,
        )
    gpu = None
    if spec.gpu is not None:
        gpu = replace(
            spec.gpu,
            name=f"{spec.gpu.name}@{suffix}",
            clock_hz=spec.gpu.clock_hz * factors.gpu,
            max_stream_bw=spec.gpu.max_stream_bw * factors.bandwidth,
        )
        if spec.gpu.peak_flops_override is not None:
            gpu = replace(
                gpu,
                peak_flops_override=(
                    spec.gpu.peak_flops_override * factors.gpu
                ),
            )
    memory = replace(
        spec.memory,
        name=f"{spec.memory.name}@{suffix}",
        bandwidth=spec.memory.bandwidth * factors.bandwidth,
    )
    power = PowerSpec(
        idle_w=spec.power.idle_w,
        cpu_dynamic_w=spec.power.cpu_dynamic_w * factors.cpu,
        gpu_dynamic_w=spec.power.gpu_dynamic_w * factors.gpu,
    )
    return replace(
        spec,
        name=f"{spec.name}@{suffix}",
        cpu=cpu,
        gpu=gpu,
        memory=memory,
        power=power,
    )


__all__ = ["ThrottleFactors", "apply_throttle"]

"""Hardware specification records and the evaluated-platform catalog.

The catalog mirrors Section V-A of the paper:

* ``JETSON_AGX_XAVIER`` — the CPU-GPU integrated edge device under test
  (8-core ARM v8.2 @ 2.26 GHz + 512-core Volta iGPU, 32 GB LPDDR4x
  @ 137 GB/s unified, $699, Ubuntu 18.04).
* ``RASPBERRY_PI_4``    — edge CPU device (quad Cortex-A72 @ 1.5 GHz,
  8 GB LPDDR4, $75).
* ``DIMENSITY_8100``    — mobile phone CPU (4×A78 @ 2.85 GHz + 4×A55
  @ 2.0 GHz, LPDDR5-6400).
* ``RTX_2080TI_HOST``   — cloud discrete-GPU platform (4352-core Turing,
  616 GB/s GDDR6, PCIe 3.0 x16, 260 W TDP).

Specs marked ``[spec]`` come from datasheets, ``[paper]`` from the paper's
own measurements, ``[fit]`` from :mod:`repro.hardware.calibration`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Hashable, Mapping, Optional

from .. import units
from ..errors import SpecError
from . import calibration as cal
from .calibration import KernelEfficiency


class ProcessorKind(enum.Enum):
    """Which side of the SoC a processor lives on."""

    CPU = "cpu"
    GPU = "gpu"


class MemoryKind(enum.Enum):
    """Physical memory organization."""

    UNIFIED = "unified"    # one DRAM shared by CPU and GPU (integrated SoC)
    DISCRETE = "discrete"  # separate host DRAM and device VRAM


@dataclass(frozen=True)
class ProcessorSpec:
    """Static description of one processor (CPU complex or GPU).

    ``peak_flops`` defaults to ``cores * clock_hz * flops_per_cycle`` but can
    be overridden for heterogeneous clusters (e.g. big.LITTLE phones).
    ``max_stream_bw`` is the DRAM bandwidth this processor can consume when
    running alone (bytes/s); it is capped by the device's memory bandwidth.
    """

    name: str
    kind: ProcessorKind
    cores: int
    clock_hz: float
    flops_per_cycle: float
    max_stream_bw: float
    launch_overhead_s: float
    efficiency: Mapping[str, KernelEfficiency]
    peak_flops_override: Optional[float] = None
    #: Per-kernel-class output-element count needed to saturate the
    #: processor (GPUs only; None disables the occupancy ramp).
    saturation_elements: Optional[Mapping[str, float]] = None

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise SpecError(f"{self.name}: cores must be positive")
        if self.clock_hz <= 0 or self.flops_per_cycle <= 0:
            raise SpecError(f"{self.name}: clock and flops/cycle must be positive")
        if self.max_stream_bw <= 0:
            raise SpecError(f"{self.name}: max_stream_bw must be positive")
        if self.launch_overhead_s < 0:
            raise SpecError(f"{self.name}: launch overhead cannot be negative")
        missing = [k for k in cal.KERNEL_CLASSES if k not in self.efficiency]
        if missing:
            raise SpecError(f"{self.name}: missing efficiency for {missing}")

    @property
    def peak_flops(self) -> float:
        """Peak FP32 throughput in FLOP/s."""
        if self.peak_flops_override is not None:
            return self.peak_flops_override
        return self.cores * self.clock_hz * self.flops_per_cycle

    def efficiency_for(self, kernel_class: str) -> KernelEfficiency:
        """Efficiency entry for ``kernel_class``; raises SpecError if unknown."""
        try:
            return self.efficiency[kernel_class]
        except KeyError as exc:
            raise SpecError(
                f"{self.name}: unknown kernel class {kernel_class!r}"
            ) from exc


@dataclass(frozen=True)
class MemorySpec:
    """One physical memory pool."""

    name: str
    kind: MemoryKind
    capacity_bytes: float
    bandwidth: float  # bytes/s, peak

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.bandwidth <= 0:
            raise SpecError(f"{self.name}: capacity and bandwidth must be positive")


@dataclass(frozen=True)
class InterconnectSpec:
    """Copy path between host and device memory (PCIe, or the on-die copy
    engine of an integrated SoC)."""

    name: str
    rate: float        # bytes/s sustained
    latency_s: float   # fixed per-transfer cost

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise SpecError(f"{self.name}: rate must be positive")
        if self.latency_s < 0:
            raise SpecError(f"{self.name}: latency cannot be negative")


@dataclass(frozen=True)
class PowerSpec:
    """Utilization-driven power model: ``P = idle + cpu_dyn*u_cpu +
    gpu_dyn*u_gpu`` (watts).  Matches the paper's observation (§V-B2) that
    processor utilization is positively related to power draw."""

    idle_w: float
    cpu_dynamic_w: float
    gpu_dynamic_w: float = 0.0

    def __post_init__(self) -> None:
        if self.idle_w < 0 or self.cpu_dynamic_w < 0 or self.gpu_dynamic_w < 0:
            raise SpecError("power terms cannot be negative")

    def power(self, cpu_util: float, gpu_util: float = 0.0) -> float:
        """Instantaneous power draw at the given utilizations (0..1)."""
        if not 0.0 <= cpu_util <= 1.0 or not 0.0 <= gpu_util <= 1.0:
            raise SpecError("utilization must be within [0, 1]")
        return self.idle_w + self.cpu_dynamic_w * cpu_util + self.gpu_dynamic_w * gpu_util


@dataclass(frozen=True)
class DeviceSpec:
    """A complete evaluated platform."""

    name: str
    cpu: ProcessorSpec
    memory: MemorySpec
    power: PowerSpec
    price_usd: float
    gpu: Optional[ProcessorSpec] = None
    gpu_memory: Optional[MemorySpec] = None
    interconnect: Optional[InterconnectSpec] = None
    corun_dram_efficiency: float = field(default=cal.CORUN_DRAM_EFFICIENCY)

    def __post_init__(self) -> None:
        if self.price_usd <= 0:
            raise SpecError(f"{self.name}: price must be positive")
        if self.memory.kind is MemoryKind.UNIFIED and self.gpu_memory is not None:
            raise SpecError(f"{self.name}: unified device cannot have separate VRAM")
        if self.gpu is not None and self.interconnect is None:
            raise SpecError(f"{self.name}: a GPU device needs an interconnect spec")
        if self.gpu_memory is not None and self.gpu is None:
            raise SpecError(f"{self.name}: VRAM without a GPU")
        if not 0.0 < self.corun_dram_efficiency <= 1.0:
            raise SpecError(f"{self.name}: corun efficiency out of (0, 1]")

    @functools.cached_property
    def value_key(self) -> Hashable:
        """The spec's whole parameterization as one hashable value, built
        once per spec object.  Equal specs have equal keys although they
        are distinct objects (serving rebuilds a throttled variant for
        every fault window), and two specs that share a name but differ
        in any value do not; what is derived per device is keyed by it."""
        return _value(self)

    @property
    def is_integrated(self) -> bool:
        """True when CPU and GPU share one physical DRAM (zero-copy capable)."""
        return self.gpu is not None and self.memory.kind is MemoryKind.UNIFIED

    @property
    def has_gpu(self) -> bool:
        return self.gpu is not None

    def stream_bandwidth(self, proc: ProcessorSpec) -> float:
        """Bandwidth available to ``proc`` running alone: its own streaming
        limit capped by the DRAM (or VRAM) it reads from."""
        if proc.kind is ProcessorKind.GPU and self.gpu_memory is not None:
            return min(proc.max_stream_bw, self.gpu_memory.bandwidth)
        return min(proc.max_stream_bw, self.memory.bandwidth)

    def roofline_breakpoints(self) -> Mapping[str, float]:
        """Arithmetic-intensity breakpoint (FLOP/byte) per processor.

        ``peak_flops / stream_bandwidth`` is where a kernel flips from
        memory-bound to compute-bound; the static analyzer requires it
        to be finite and positive for every processor, otherwise the
        whole roofline cost model degenerates.
        """
        out = {"cpu": self.cpu.peak_flops / self.stream_bandwidth(self.cpu)}
        if self.gpu is not None:
            out["gpu"] = self.gpu.peak_flops / self.stream_bandwidth(self.gpu)
        return out


def _value(value: object) -> Hashable:
    """``value`` as a hashable value: a dataclass by its type and fields,
    a mapping by its sorted items."""
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__, *(
            _value(getattr(value, f.name)) for f in fields(value)
        ))
    if isinstance(value, Mapping):
        return tuple(sorted((k, _value(v)) for k, v in value.items()))
    return value  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Platform catalog (paper Section V-A)
# ---------------------------------------------------------------------------

_JETSON_CPU = ProcessorSpec(
    name="jetson-carmel-cpu",
    kind=ProcessorKind.CPU,
    cores=8,                       # [spec] 8-core ARM v8.2 (Carmel)
    clock_hz=units.gigahertz(2.26),
    flops_per_cycle=16.0,          # [spec] 2x128-bit NEON FMA pipes, FP32
    max_stream_bw=units.gigabytes_per_second(60.0),  # [fit] CPU-attainable share
    launch_overhead_s=cal.CPU_LAUNCH_OVERHEAD_S,
    efficiency=cal.JETSON_CPU_EFFICIENCY,
)

_JETSON_GPU = ProcessorSpec(
    name="jetson-volta-gpu",
    kind=ProcessorKind.GPU,
    cores=512,                     # [spec] 512 Volta CUDA cores
    clock_hz=units.gigahertz(1.377),
    flops_per_cycle=2.0,           # [spec] FMA = 2 FLOP
    max_stream_bw=units.gigabytes_per_second(110.0),  # [fit] GPU-attainable share
    launch_overhead_s=cal.GPU_LAUNCH_OVERHEAD_S,
    efficiency=cal.JETSON_GPU_EFFICIENCY,
    saturation_elements=cal.GPU_SATURATION_ELEMENTS,
)

JETSON_AGX_XAVIER = DeviceSpec(
    name="jetson-agx-xavier",
    cpu=_JETSON_CPU,
    gpu=_JETSON_GPU,
    memory=MemorySpec(
        name="lpddr4x-unified",
        kind=MemoryKind.UNIFIED,
        capacity_bytes=units.gigabytes(32.0),              # [spec]
        bandwidth=units.gigabytes_per_second(137.0),       # [spec]
    ),
    interconnect=InterconnectSpec(
        name="jetson-copy-engine",
        rate=cal.INTEGRATED_COPY_RATE,                      # [fit]
        latency_s=cal.INTEGRATED_COPY_LATENCY_S,
    ),
    # [paper] fitted to 5.5 W at 72%/42% (ResNet) and 7.9 W at 100%/100%
    # (SqueezeNet) on Jetson.
    power=PowerSpec(idle_w=2.0, cpu_dynamic_w=3.4, gpu_dynamic_w=2.5),
    price_usd=699.0,                                        # [paper]
)

RASPBERRY_PI_4 = DeviceSpec(
    name="raspberry-pi-4",
    cpu=ProcessorSpec(
        name="rpi4-cortex-a72",
        kind=ProcessorKind.CPU,
        cores=4,                   # [spec] quad Cortex-A72
        clock_hz=units.gigahertz(1.5),
        flops_per_cycle=8.0,       # [spec] 1x128-bit NEON FMA
        max_stream_bw=units.gigabytes_per_second(4.0),  # [fit] measured-class LPDDR4 share
        launch_overhead_s=cal.CPU_LAUNCH_OVERHEAD_S,
        efficiency=cal.RPI_CPU_EFFICIENCY,
    ),
    memory=MemorySpec(
        name="rpi4-lpddr4",
        kind=MemoryKind.UNIFIED,
        capacity_bytes=units.gigabytes(8.0),               # [spec]
        bandwidth=units.gigabytes_per_second(6.0),         # [fit]
    ),
    # [paper] max draw 6.4 W (ref [11]); idle ~2.7 W.
    power=PowerSpec(idle_w=2.7, cpu_dynamic_w=3.7),
    price_usd=75.0,                                         # [paper]
)

DIMENSITY_8100 = DeviceSpec(
    name="dimensity-8100",
    cpu=ProcessorSpec(
        name="dimensity-8100-cpu",
        kind=ProcessorKind.CPU,
        cores=8,                   # [spec] 4xA78@2.85 + 4xA55@2.0
        clock_hz=units.gigahertz(2.85),
        flops_per_cycle=16.0,
        # [spec] peak = 4*2.85G*16 (A78) + 4*2.0G*8 (A55)
        peak_flops_override=4 * units.gigahertz(2.85) * 16 + 4 * units.gigahertz(2.0) * 8,
        max_stream_bw=units.gigabytes_per_second(30.0),    # [fit] LPDDR5-6400 share
        launch_overhead_s=cal.CPU_LAUNCH_OVERHEAD_S,
        efficiency=cal.MOBILE_CPU_EFFICIENCY,
    ),
    memory=MemorySpec(
        name="dimensity-lpddr5",
        kind=MemoryKind.UNIFIED,
        capacity_bytes=units.gigabytes(12.0),
        bandwidth=units.gigabytes_per_second(51.2),        # [spec] LPDDR5-6400 x64
    ),
    # [fit] the paper could not meter the phone; modelled for completeness.
    power=PowerSpec(idle_w=1.0, cpu_dynamic_w=5.0),
    price_usd=349.0,
)

_DGPU_HOST_CPU = ProcessorSpec(
    name="x86-host-cpu",
    kind=ProcessorKind.CPU,
    cores=8,
    clock_hz=units.gigahertz(3.6),
    flops_per_cycle=32.0,          # [spec] AVX2 2x256-bit FMA
    max_stream_bw=units.gigabytes_per_second(35.0),
    launch_overhead_s=cal.CPU_LAUNCH_OVERHEAD_S,
    efficiency=cal.HOST_CPU_EFFICIENCY,
)

_RTX_2080TI = ProcessorSpec(
    name="rtx-2080ti",
    kind=ProcessorKind.GPU,
    cores=4352,                    # [spec]
    clock_hz=units.gigahertz(1.545),
    flops_per_cycle=2.0,
    max_stream_bw=units.gigabytes_per_second(550.0),
    launch_overhead_s=cal.DISCRETE_GPU_LAUNCH_OVERHEAD_S,
    efficiency=cal.DISCRETE_GPU_EFFICIENCY,
    saturation_elements={
        k: v * cal.DISCRETE_SATURATION_SCALE
        for k, v in cal.GPU_SATURATION_ELEMENTS.items()
    },
)

RTX_2080TI_HOST = DeviceSpec(
    name="rtx-2080ti-host",
    cpu=_DGPU_HOST_CPU,
    gpu=_RTX_2080TI,
    memory=MemorySpec(
        name="host-ddr4",
        kind=MemoryKind.DISCRETE,
        capacity_bytes=units.gigabytes(64.0),
        bandwidth=units.gigabytes_per_second(40.0),
    ),
    gpu_memory=MemorySpec(
        name="gddr6",
        kind=MemoryKind.DISCRETE,
        capacity_bytes=units.gigabytes(11.0),
        bandwidth=units.gigabytes_per_second(616.0),       # [spec]
    ),
    interconnect=InterconnectSpec(
        name="pcie3-x16",
        rate=cal.PCIE_COPY_RATE,                            # [fit]
        latency_s=cal.PCIE_COPY_LATENCY_S,
    ),
    # [fit] nvidia-smi board power: ~50 W near idle, 260 W TDP; the naive
    # inference kernels never saturate the SMs, so the *effective* dynamic
    # term is far below TDP (nvidia-smi-class draws of 60-110 W for such
    # workloads).  Pinned by: Fig 13a power ratio ~5.7x.
    power=PowerSpec(idle_w=50.0, cpu_dynamic_w=20.0, gpu_dynamic_w=55.0),
    price_usd=1199.0,                                       # [spec] launch MSRP
)

#: All catalog devices by name.
DEVICE_CATALOG: Mapping[str, DeviceSpec] = {
    spec.name: spec
    for spec in (JETSON_AGX_XAVIER, RASPBERRY_PI_4, DIMENSITY_8100, RTX_2080TI_HOST)
}


def device(name: str) -> DeviceSpec:
    """Look up a catalog device by name; raises SpecError if unknown."""
    try:
        return DEVICE_CATALOG[name]
    except KeyError as exc:
        raise SpecError(
            f"unknown device {name!r}; available: {sorted(DEVICE_CATALOG)}"
        ) from exc

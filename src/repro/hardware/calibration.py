"""Calibration constants for the device simulator, with provenance.

Everything the simulator cannot take straight from a datasheet lives here,
so the modelling assumptions are in one audited place.  Values fall into
three provenance classes:

``spec``
    Taken from public datasheets (core counts, clocks, DRAM bandwidth, TDP,
    prices).  These live in :mod:`repro.hardware.specs`; only derived
    quantities appear here.

``paper``
    Reported in the EdgeNN paper itself (Section V): measured power draws,
    memory-copy time shares, utilization figures, the cloud bandwidth and
    latency.  We encode them directly.

``fit``
    Efficiency/overhead factors chosen so the simulator reproduces the
    *shapes* of the paper's results (who wins, by roughly which factor,
    where crossovers fall).  Each one is annotated with what observation
    pins it down.

A modelling note that drives every ``fit`` below: the EdgeNN artifact uses
**handwritten CUDA and OpenMP kernels**, not cuDNN/oneDNN.  Naive direct
convolutions and GEMV kernels run one to two orders of magnitude below
peak (no shared-memory tiling, uncoalesced weight reads).  The paper's own
numbers pin this down — e.g. parameter ``cudaMemcpy`` accounting for only
~11% of integrated inference time (Fig 9) is impossible with cuDNN-class
kernels but natural at naive-kernel throughput; and the cloud comparison
(Fig 12) only has the reported crossovers if edge inference takes hundreds
of milliseconds.  Efficiencies below therefore model the authors' kernels,
and effective throughputs are noted inline.

All times are seconds, rates bytes/s, compute FLOP/s (see :mod:`repro.units`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .. import units

# ---------------------------------------------------------------------------
# Kernel efficiency tables
# ---------------------------------------------------------------------------
#
# A kernel's execution time follows a roofline: the maximum of its compute
# time (flops / (peak_flops * compute_eff)) and its memory time
# (bytes / (stream_bw * memory_eff)), plus a launch overhead, with a GPU
# occupancy ramp for small outputs (below).


@dataclass(frozen=True)
class KernelEfficiency:
    """Achieved fraction of a processor's peak compute / memory bandwidth
    for one kernel class."""

    compute: float
    memory: float

    def __post_init__(self) -> None:
        if not 0.0 < self.compute <= 1.0:
            raise ValueError(f"compute efficiency out of (0, 1]: {self.compute}")
        if not 0.0 < self.memory <= 1.0:
            raise ValueError(f"memory efficiency out of (0, 1]: {self.memory}")


# Kernel classes used throughout the library.
KERNEL_CLASSES = (
    "conv",        # direct convolutions
    "dense",       # fully connected (GEMV at batch 1: memory bound)
    "pool",        # max/avg pooling: pure streaming
    "activation",  # relu, elementwise add: pure streaming
    "norm",        # LRN / batch-norm: streaming with a few flops
    "softmax",     # tiny reduction
    "shape",       # concat / flatten: memcpy-like
)

# [fit] Jetson Volta iGPU (peak 1.41 TFLOP/s FP32, ~110 GB/s attainable):
# naive direct conv ~15 GFLOP/s; naive GEMV streams weights at ~3 GB/s
# (uncoalesced row reads); streaming kernels reach a modest bandwidth
# share.  Pinned by: Fig 9 integrated copy share ~11%, Fig 12 crossovers,
# Table I fc improvements (t_cpu ~ t_gpu on fc).
JETSON_GPU_EFFICIENCY: Mapping[str, KernelEfficiency] = MappingProxyType(
    {
        "conv": KernelEfficiency(compute=0.0064, memory=0.50),   # ~9 GF/s
        "dense": KernelEfficiency(compute=0.05, memory=0.0148),  # ~1.6 GB/s
        "pool": KernelEfficiency(compute=0.05, memory=0.23),     # ~25 GB/s
        "activation": KernelEfficiency(compute=0.05, memory=0.36),  # ~40 GB/s
        "norm": KernelEfficiency(compute=0.05, memory=0.18),     # ~20 GB/s
        "softmax": KernelEfficiency(compute=0.005, memory=0.03),
        "shape": KernelEfficiency(compute=0.05, memory=0.25),
    }
)

# [fit] 8-core Carmel CPU (peak ~289 GFLOP/s, ~60 GB/s attainable): naive
# OpenMP conv ~3.8 GFLOP/s; GEMV ~2.8 GB/s.  Pinned by: Fig 6 Jetson-CPU
# speedup ~3.97x and Table I (fc split profitable, big conv split not).
JETSON_CPU_EFFICIENCY: Mapping[str, KernelEfficiency] = MappingProxyType(
    {
        "conv": KernelEfficiency(compute=0.0059, memory=0.30),   # ~1.7 GF/s
        "dense": KernelEfficiency(compute=0.05, memory=0.0493),  # ~3.0 GB/s
        "pool": KernelEfficiency(compute=0.04, memory=0.077),    # ~4.6 GB/s
        "activation": KernelEfficiency(compute=0.04, memory=0.102),  # ~6 GB/s
        "norm": KernelEfficiency(compute=0.04, memory=0.052),    # ~3 GB/s
        "softmax": KernelEfficiency(compute=0.008, memory=0.025),
        "shape": KernelEfficiency(compute=0.04, memory=0.102),
    }
)

# [fit] Dimensity 8100 CPU: ~1.27x the Jetson CPU across the board.
# Pinned by: Fig 6 ratio 3.97/3.12 between the two CPU baselines.
MOBILE_CPU_EFFICIENCY: Mapping[str, KernelEfficiency] = MappingProxyType(
    {
        "conv": KernelEfficiency(compute=0.0088, memory=0.35),   # ~2.2 GF/s
        "dense": KernelEfficiency(compute=0.06, memory=0.1250),  # ~3.8 GB/s
        "pool": KernelEfficiency(compute=0.048, memory=0.195),   # ~5.9 GB/s
        "activation": KernelEfficiency(compute=0.048, memory=0.256),  # ~7.7 GB/s
        "norm": KernelEfficiency(compute=0.048, memory=0.128),   # ~3.8 GB/s
        "softmax": KernelEfficiency(compute=0.010, memory=0.064),
        "shape": KernelEfficiency(compute=0.048, memory=0.256),
    }
)

# [fit] Raspberry Pi 4 CPU: ~2.2x slower than the Jetson CPU overall.
# Pinned by: Fig 6 RPi speedup ~8.80x.
RPI_CPU_EFFICIENCY: Mapping[str, KernelEfficiency] = MappingProxyType(
    {
        "conv": KernelEfficiency(compute=0.0154, memory=0.40),   # ~0.74 GF/s
        "dense": KernelEfficiency(compute=0.08, memory=0.3220),  # ~1.3 GB/s
        "pool": KernelEfficiency(compute=0.062, memory=0.50),    # ~2.0 GB/s
        "activation": KernelEfficiency(compute=0.062, memory=0.69),  # ~2.8 GB/s
        "norm": KernelEfficiency(compute=0.062, memory=0.35),    # ~1.4 GB/s
        "softmax": KernelEfficiency(compute=0.012, memory=0.19),
        "shape": KernelEfficiency(compute=0.062, memory=0.50),
    }
)

# [fit] x86 host CPU of the discrete platform (used only to stage data).
HOST_CPU_EFFICIENCY: Mapping[str, KernelEfficiency] = JETSON_CPU_EFFICIENCY

# [fit] RTX 2080 Ti with the same naive kernels: ~2.2x the Jetson iGPU
# end-to-end.  Much higher raw bandwidth but the naive kernels cannot
# exploit it (coalescing/occupancy), and small layers underfill 4352 cores.
# Pinned by: Fig 9 discrete copy share avg ~23% (max ~36%), Fig 12 (VGG is
# the only net where the cloud GPU clearly wins), Fig 13 price ratio 1.25x.
DISCRETE_GPU_EFFICIENCY: Mapping[str, KernelEfficiency] = MappingProxyType(
    {
        "conv": KernelEfficiency(compute=0.00238, memory=0.30),  # ~32 GF/s
        "dense": KernelEfficiency(compute=0.05, memory=0.0040),  # ~2.2 GB/s
        "pool": KernelEfficiency(compute=0.05, memory=0.10),     # ~55 GB/s
        "activation": KernelEfficiency(compute=0.05, memory=0.164),  # ~90 GB/s
        "norm": KernelEfficiency(compute=0.05, memory=0.082),    # ~45 GB/s
        "softmax": KernelEfficiency(compute=0.005, memory=0.01),
        "shape": KernelEfficiency(compute=0.05, memory=0.10),
    }
)

# ---------------------------------------------------------------------------
# GPU occupancy ramp
# ---------------------------------------------------------------------------
#
# [fit] A GPU kernel with fewer output elements than the saturation point
# cannot fill the machine; its attained throughput scales with
# sqrt(elements / saturation) (latency partially hidden).  This is what
# makes LeNet's tiny convolutions CPU-competitive (Table I: LeNet conv
# improvements up to 36%) while AlexNet/VGG convolutions are not.
# Per-kernel-class because reduction-style kernels (dense/softmax) extract
# parallelism from the input dimension too.
GPU_SATURATION_ELEMENTS: Mapping[str, float] = MappingProxyType(
    {
        "conv": 12288.0,
        "dense": 128.0,
        "pool": 16384.0,
        "activation": 32768.0,
        "norm": 16384.0,
        "softmax": 4096.0,
        "shape": 32768.0,
    }
)

# [fit] The 2080 Ti has 8.5x the cores of the Jetson iGPU; it needs
# proportionally more parallelism to saturate.  This is why the small
# benchmarks gain so little from the discrete GPU (Fig 12/13).
DISCRETE_SATURATION_SCALE = 2.0

# ---------------------------------------------------------------------------
# Launch / dispatch overheads
# ---------------------------------------------------------------------------
#
# Device-independent terms: PARTITION_OVERHEAD_S, JOIN_SYNC_OVERHEAD_S,
# MANAGED_COWRITE_PENALTY_S_PER_BYTE and MANAGED_FIRST_TOUCH_S_PER_BYTE
# are charged as they stand on every device, while every other time the
# executor simulates comes from the spec (launch overheads, copy
# latencies, and work over clock, stream or copy rates).  So scaling a
# spec's throughputs scales a run's times only with these four set to
# zero, which is what the executor's throughput-scaling oracle in
# tests/core/test_executor.py does.

# [fit] CUDA kernel launch on Jetson (nvgpu channel submission).
GPU_LAUNCH_OVERHEAD_S = units.microseconds(30.0)

# [fit] OpenMP parallel-for fork/join on 8 ARM cores.
CPU_LAUNCH_OVERHEAD_S = units.microseconds(25.0)

# [fit] Discrete GPU launch via PCIe doorbell.
DISCRETE_GPU_LAUNCH_OVERHEAD_S = units.microseconds(10.0)

# [fit] Extra one-off cost of coordinating a CPU+GPU split of one kernel
# (second launch, thread wake-up, final barrier).  Together with DRAM
# contention this is what erases the small analytic gain Eq. 4 predicts
# for splitting large convolutions — the adaptive tuner then falls back to
# GPU-only, matching Table I's zeros for AlexNet conv.
PARTITION_OVERHEAD_S = units.microseconds(25.0)

# [fit] Synchronizing the two processors at a DAG join (event wait + flush).
JOIN_SYNC_OVERHEAD_S = units.microseconds(8.0)

# ---------------------------------------------------------------------------
# Memory system
# ---------------------------------------------------------------------------

# [fit] cudaMemcpy DtoH/HtoD on Jetson moves data DRAM-to-DRAM through the
# copy engine / SMMU.  Measured-class rates are ~10 GB/s.  Pinned by:
# Fig 9 integrated copy share avg 11.46%.
INTEGRATED_COPY_RATE = units.gigabytes_per_second(12.0)
INTEGRATED_COPY_LATENCY_S = units.microseconds(20.0)

# [spec/fit] PCIe 3.0 x16 effective h2d/d2h rate and per-transfer latency.
# Pinned by: Fig 9 discrete copy share avg 23.34%, max 36%.
PCIE_COPY_RATE = units.gigabytes_per_second(8.0)
PCIE_COPY_LATENCY_S = units.microseconds(20.0)

# [fit] Accessing cudaMallocManaged memory from the Jetson GPU goes through
# the coherent SMMU path and loses streaming bandwidth versus cudaMalloc'd
# memory; the loss depends on the access pattern, so it is per kernel
# class.  Pinned by: Fig 10 — AlexNet pool layers get *slower* with
# zero-copy while compute-bound convs are unchanged; Fig 8 — FCNN shows
# the smallest memory-management benefit (the managed-GEMV penalty eats
# most of its copy savings).
MANAGED_GPU_BW_FACTORS: Mapping[str, float] = MappingProxyType(
    {
        "conv": 0.95,
        "dense": 0.95,
        "pool": 0.75,
        "activation": 0.85,
        "norm": 0.85,
        "softmax": 0.90,
        "shape": 0.85,
    }
)

# [fit] The CPU reads managed memory almost at full speed (it is its own
# DRAM; only allocator bookkeeping differs).
MANAGED_CPU_BW_FACTOR = 0.97

# [fit] Page-fault style consistency cost when a managed buffer is written
# by both processors in the same step (the race the paper's Section IV-B
# warns about).  Charged per byte of the co-written buffer.  Pinned by:
# the paper's claim that two REGULAR copies + an explicit merge are
# "substantially smaller" than the zero-copy consistency cost.
MANAGED_COWRITE_PENALTY_S_PER_BYTE = 1.0 / units.gigabytes_per_second(1.0)

# [fit] First-touch overhead for a managed buffer's pages on the GPU
# (page-table setup), charged once per buffer per inference.
MANAGED_FIRST_TOUCH_S_PER_BYTE = 1.0 / units.gigabytes_per_second(220.0)

# ---------------------------------------------------------------------------
# Co-run contention
# ---------------------------------------------------------------------------

# [fit] When CPU and GPU stream memory concurrently on the unified LPDDR4x,
# the controller achieves slightly less than the sum of their solo rates.
# Total achievable DRAM bandwidth under co-run as a fraction of peak:
CORUN_DRAM_EFFICIENCY = 0.88

# [fit] Co-running kernels additionally slow each other down beyond pure
# bandwidth sharing: memory-controller arbitration, cache/SMMU interference
# and the shared power/thermal budget (documented for integrated
# architectures by Zhang et al., TPDS'16 — the paper's ref [97]).  Applied
# to intra-kernel split co-runs.  Pinned by: Table I — the ~20% analytic
# gain Eq. 4 predicts for splitting AlexNet's convolutions (t_cpu/t_gpu ~ 4)
# is erased in measurement, so the adaptive tuner falls back to GPU-only.
CORUN_CPU_SLOWDOWN = 1.15
CORUN_GPU_SLOWDOWN = 1.25

# [fit/paper] Once hybrid execution engages the CPU, the OpenMP worker
# team spin-waits between its tasks (active wait policy), so the *measured*
# CPU utilization — and hence power — stays high even while the GPU owns
# the critical path.  This reproduces §V-B2: 75% average CPU utilization
# and 5.5-7.9 W draws during EdgeNN runs.  Fraction of otherwise-idle CPU
# time burned spinning:
OMP_SPIN_UTILIZATION = 0.70

# ---------------------------------------------------------------------------
# Cloud model (paper Section V-D)
# ---------------------------------------------------------------------------

# [paper] ~400 KB compressed input image.
CLOUD_INPUT_BYTES = units.kilobytes(400.0)
# [paper] measured average uplink bandwidth ~1 MB/s.
CLOUD_BANDWIDTH = units.megabytes_per_second(1.0)
# [paper] average cloud-side latency ~100 ms.
CLOUD_LATENCY_S = units.milliseconds(100.0)

"""GPU-only inference — "the direct execution of the original programs".

The paper's baseline (Fig 8, Fig 9): every kernel runs on the GPU, every
buffer is a regular CUDA array, weights are explicitly ``cudaMemcpy``'d to
the device, and execution is single-stream (copy → kernel → copy ...).
Works on both the integrated device and the discrete-GPU host, which is
how Fig 9 contrasts the two copy-time shares.
"""

from __future__ import annotations

from typing import Union

from ..compile import compile_fixed
from ..core.memory_manager import MemoryPolicy
from ..core.report import InferenceReport
from ..hardware.device import Device
from ..hardware.specs import DeviceSpec
from ..nn.graph import NetworkGraph


def run_gpu_only(
    network: Union[str, NetworkGraph],
    device: Union[Device, DeviceSpec],
    *,
    policy: MemoryPolicy = MemoryPolicy.ALL_REGULAR,
) -> InferenceReport:
    """Simulate the original program: GPU kernels, regular memory,
    single-stream execution.

    ``policy=ALL_MANAGED`` gives the "memory management only" ablation arm
    (zero-copy, still GPU-only); managed buffers need no staging copies, so
    serialization is irrelevant for them.
    """
    compiled = compile_fixed(
        network, device,
        placement="gpu",
        policy=policy,
        serialize=True,
        # The original programs stage every layer output through the host
        # (self-contained memcpy-in / kernel / memcpy-out layer functions);
        # managed allocations make staging moot.
        host_staging=policy is MemoryPolicy.ALL_REGULAR,
    )
    return compiled.execute()

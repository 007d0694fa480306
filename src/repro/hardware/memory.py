"""Buffer and allocation model: regular CUDA arrays vs zero-copy managed
memory.

This implements the two memory usage mechanisms of the paper's Section IV-B:

``AllocKind.REGULAR``
    The standard discrete-style allocation: the logical array has a host
    copy and a device copy (``cudaMalloc`` + ``cudaMemcpy``).  Accessing it
    from a processor whose copy is stale requires an explicit transfer
    through the copy engine; writing from one processor invalidates the
    other copy.

``AllocKind.MANAGED``
    CUDA unified memory (``cudaMallocManaged``): one allocation visible to
    both processors, no explicit copies.  On the integrated device the GPU's
    coherent access path is slower than regular device memory
    (``MANAGED_GPU_BW_FACTORS``, per kernel class), first GPU touch pays a small page
    set-up cost, and a buffer *written by both processors in one step*
    triggers the fine-grained consistency storm the paper warns about —
    modelled as a per-byte penalty far larger than an explicit merge copy.

The :class:`MemoryModel` is pure bookkeeping + cost quoting; actual
scheduling of the returned transfers/penalties is the executor's job.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import AllocationError, MemoryModelError
from . import calibration as cal
from .copy_engine import CopyDirection, Transfer
from .specs import DeviceSpec, ProcessorKind


class AllocKind(enum.Enum):
    """Which of the two memory usage mechanisms a buffer uses."""

    REGULAR = "regular"   # two copies + explicit cudaMemcpy
    MANAGED = "managed"   # zero-copy unified memory


@dataclass(slots=True)
class Buffer:
    """One logical array of the inference process.  The executor keeps a
    run table's buffers between runs and resets their state per run
    (:meth:`reset`)."""

    name: str
    nbytes: float
    kind: AllocKind
    role: str = "activation"
    # REGULAR state: which copies currently hold the latest data.
    host_valid: bool = True
    device_valid: bool = False
    # MANAGED state: whether the GPU has touched the pages yet.
    gpu_touched: bool = False
    # Which processors wrote this buffer during the current step (for
    # detecting managed co-writes).
    cpu_wrote: bool = False
    gpu_wrote: bool = False

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise AllocationError(f"buffer {self.name!r} has negative size")

    def reset(self, kind: AllocKind) -> None:
        """The state of a newly allocated buffer of ``kind``."""
        self.kind = kind
        self.host_valid = True
        self.device_valid = self.gpu_touched = False
        self.cpu_wrote = self.gpu_wrote = False


def footprint(nbytes: float, kind: AllocKind) -> float:
    """Bytes an allocation takes: REGULAR buffers count twice (host +
    device copies)."""
    return nbytes * (2.0 if kind is AllocKind.REGULAR else 1.0)


@dataclass(frozen=True)
class AccessCost:
    """Cost quote for making a buffer usable by a processor.

    ``transfers``  — explicit copies to schedule on the copy engine.
    ``overhead_s`` — fixed extra time (managed first-touch page set-up).
    ``bw_factor``  — multiplier on attained bandwidth while the kernel
                     streams this buffer (managed-path slowdown).
    """

    transfers: tuple
    overhead_s: float
    bw_factor: float


#: Shared quotes for the accesses that move nothing and pay no first
#: touch, which are most of them: a quote is a value, so one per
#: bandwidth factor serves every buffer.
_FREE = AccessCost((), 0.0, 1.0)
_MANAGED_CPU = AccessCost((), 0.0, cal.MANAGED_CPU_BW_FACTOR)
#: Managed GPU-path factor of a kernel class the calibration does not list.
_MANAGED_GPU_DEFAULT_FACTOR = 0.85
_MANAGED_GPU = {
    kernel_class: AccessCost((), 0.0, factor)
    for kernel_class, factor in cal.MANAGED_GPU_BW_FACTORS.items()
}
_MANAGED_GPU_DEFAULT = AccessCost((), 0.0, _MANAGED_GPU_DEFAULT_FACTOR)


class MemoryModel:
    """Tracks every buffer of an inference run on one device."""

    def __init__(self, device: DeviceSpec) -> None:
        self._device = device
        self._capacity = device.memory.capacity_bytes
        self._integrated = device.is_integrated
        self._buffers: Dict[str, Buffer] = {}
        self._allocated_bytes = 0.0

    # -- allocation ---------------------------------------------------------

    def allocate(self, name: str, nbytes: float, kind: AllocKind,
                 role: str = "activation") -> Buffer:
        """Allocate a buffer; REGULAR buffers count twice (host + device)."""
        size = self._admit(name, nbytes, kind)
        buf = Buffer(name=name, nbytes=nbytes, kind=kind, role=role)
        self._buffers[name] = buf
        self._allocated_bytes += size
        return buf

    def adopt(self, buffers: Sequence[Buffer], total: float) -> None:
        """Account ``buffers``, built and reset by the caller, as if each
        had been allocated in order: same checks, same errors, same
        footprint.  ``total`` is their :func:`footprint` summed in order.
        The executor adopts a run's whole buffer set at once."""
        if (
            self._buffers
            or self._allocated_bytes + total > self._capacity
            or not self._integrated
        ):
            # Another run's buffers share the device, one of these would
            # not fit, or managed ones would be refused: account them one
            # by one, to raise what allocate() would.
            for buf in buffers:
                size = self._admit(buf.name, buf.nbytes, buf.kind)
                self._buffers[buf.name] = buf
                self._allocated_bytes += size
            return
        self._buffers = {buf.name: buf for buf in buffers}
        self._allocated_bytes = total

    def _admit(self, name: str, nbytes: float, kind: AllocKind) -> float:
        """The footprint of a new buffer; raises when the name is taken,
        the buffer would not fit, or it is managed on a discrete device."""
        if name in self._buffers:
            raise AllocationError(f"buffer {name!r} already allocated")
        size = footprint(nbytes, kind)
        capacity = self._capacity
        if self._allocated_bytes + size > capacity:
            raise AllocationError(
                f"allocating {name!r} ({size:.0f} B) exceeds device "
                f"capacity {capacity:.0f} B"
            )
        if kind is AllocKind.MANAGED and not self._integrated:
            # Managed memory exists on discrete platforms too, but this
            # library only ever *chooses* it on integrated devices (the
            # paper: "usage of CUDA unified memory brings no benefit for the
            # discrete architecture").  Guard against accidental use.
            raise MemoryModelError(
                f"managed allocation of {name!r} on non-integrated device "
                f"{self._device.name!r}"
            )
        return size

    def get(self, name: str) -> Buffer:
        try:
            return self._buffers[name]
        except KeyError as exc:
            raise MemoryModelError(f"unknown buffer {name!r}") from exc

    @property
    def allocated_bytes(self) -> float:
        return self._allocated_bytes

    @property
    def buffers(self) -> List[Buffer]:
        return list(self._buffers.values())

    # -- access cost quoting -------------------------------------------------

    def read_cost(
        self, buf: Buffer, proc: ProcessorKind, kernel_class: str = "shape"
    ) -> AccessCost:
        """Cost of making ``buf`` readable by ``proc`` (and the bandwidth
        factor the reading kernel will see on this buffer).

        ``kernel_class`` selects the managed-access penalty: the coherent
        SMMU path hurts scattered access patterns (pooling) more than
        sequential streams (see calibration.MANAGED_GPU_BW_FACTORS)."""
        if buf.kind is AllocKind.REGULAR:
            if proc is ProcessorKind.GPU:
                if buf.device_valid:
                    return _FREE
                buf.device_valid = True
                direction = CopyDirection.H2D
            else:
                if buf.host_valid:
                    return _FREE
                buf.host_valid = True
                direction = CopyDirection.D2H
            return AccessCost(
                (Transfer(buf.name, buf.nbytes, direction),), 0.0, 1.0
            )
        # MANAGED
        if proc is not ProcessorKind.GPU:
            return _MANAGED_CPU
        if buf.gpu_touched:
            return _MANAGED_GPU.get(kernel_class, _MANAGED_GPU_DEFAULT)
        return self._first_touch(buf, kernel_class)

    def write_cost(
        self, buf: Buffer, proc: ProcessorKind, kernel_class: str = "shape"
    ) -> AccessCost:
        """Cost of ``proc`` producing (part of) ``buf``; updates validity."""
        if proc is ProcessorKind.GPU:
            buf.gpu_wrote = True
            if buf.kind is AllocKind.REGULAR:
                buf.device_valid = True
                # The host copy is stale unless the CPU also writes its own
                # partition this step (merge handles reconciliation).
                if not buf.cpu_wrote:
                    buf.host_valid = False
                return _FREE
            if buf.gpu_touched:
                return _MANAGED_GPU.get(kernel_class, _MANAGED_GPU_DEFAULT)
            return self._first_touch(buf, kernel_class)
        buf.cpu_wrote = True
        if buf.kind is AllocKind.REGULAR:
            buf.host_valid = True
            if not buf.gpu_wrote:
                buf.device_valid = False
            return _FREE
        return _MANAGED_CPU

    @staticmethod
    def _first_touch(buf: Buffer, kernel_class: str) -> AccessCost:
        """The GPU's first touch of a managed buffer: page set-up on top
        of the kernel class's coherent-path bandwidth factor."""
        buf.gpu_touched = True
        factor = cal.MANAGED_GPU_BW_FACTORS.get(
            kernel_class, _MANAGED_GPU_DEFAULT_FACTOR
        )
        return AccessCost(
            (), buf.nbytes * cal.MANAGED_FIRST_TOUCH_S_PER_BYTE, factor
        )

    def cowrite_penalty(self, buf: Buffer) -> float:
        """Consistency penalty if ``buf`` was written by both processors in
        the step just finished.  Zero for REGULAR buffers (each processor
        writes its own copy; an explicit merge copy reconciles them)."""
        both = buf.cpu_wrote and buf.gpu_wrote
        buf.cpu_wrote = buf.gpu_wrote = False
        if both and buf.kind is AllocKind.MANAGED:
            return buf.nbytes * cal.MANAGED_COWRITE_PENALTY_S_PER_BYTE
        return 0.0

    def stage_out(self, buf: Buffer) -> Optional[Transfer]:
        """Host staging of a GPU-produced REGULAR activation: the original
        benchmark programs copy every layer output back to the host and
        re-upload it for the next layer (each layer function is a
        self-contained memcpy-in / kernel / memcpy-out unit).  Returns the
        D2H transfer and invalidates the device copy so the consumer's
        ``read_cost`` re-uploads; ``None`` for MANAGED buffers."""
        if buf.kind is not AllocKind.REGULAR:
            return None
        buf.host_valid = True
        buf.device_valid = False
        return Transfer(buf.name, buf.nbytes, CopyDirection.D2H)

    def merge_transfer(self, buf: Buffer, cpu_fraction: float) -> Optional[Transfer]:
        """Explicit merge of a partitioned REGULAR output: the CPU's slice is
        copied into the device copy (paper Eq. 2's ``p_cpu * v_o / s``).
        Returns ``None`` when nothing needs copying."""
        if not 0.0 <= cpu_fraction <= 1.0:
            raise MemoryModelError(f"cpu fraction out of range: {cpu_fraction}")
        if buf.kind is not AllocKind.REGULAR or cpu_fraction == 0.0:
            return None
        buf.device_valid = True
        return Transfer(buf.name, buf.nbytes * cpu_fraction, CopyDirection.H2D)

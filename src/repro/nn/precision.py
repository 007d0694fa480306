"""Reduced-precision inference modeling (FP16 / INT8 extension).

The paper evaluates FP32 kernels; production edge inference commonly
quantizes.  This module models precision's *performance* effects — smaller
buffers (less DRAM traffic, cheaper copies) and higher arithmetic
throughput (vector units process 2-4x more narrow elements per cycle) —
without touching the NumPy numerics (values stay float32; accuracy impact
of quantization is out of scope for a timing simulator).

Applied by the executor: every buffer shrinks by ``bytes_per_element/4``
and every kernel's attained compute rate scales by the processor-specific
throughput factor.
"""

from __future__ import annotations

import enum
from dataclasses import replace

from ..errors import ReproError
from ..hardware.roofline import KernelWork
from ..hardware.specs import ProcessorKind


class Precision(enum.Enum):
    """Inference datatype."""

    FP32 = "fp32"
    FP16 = "fp16"
    INT8 = "int8"

    @property
    def bytes_per_element(self) -> int:
        return {"fp32": 4, "fp16": 2, "int8": 1}[self.value]

    @property
    def byte_ratio(self) -> float:
        """Buffer-size multiplier relative to FP32."""
        return self.bytes_per_element / 4.0

    def compute_speedup(self, proc: ProcessorKind) -> float:
        """Throughput multiplier over FP32 on one processor.

        [fit] Volta has native FP16 at 2x rate and DP4A-style INT8 at
        ~4x (naive kernels capture most of it — the data path narrows
        regardless of tiling quality); NEON likewise doubles lanes per
        halving, with INT8 slightly less efficient than ideal.
        """
        return _COMPUTE_SPEEDUP[self][proc]


_COMPUTE_SPEEDUP = {
    Precision.FP32: {ProcessorKind.CPU: 1.0, ProcessorKind.GPU: 1.0},
    Precision.FP16: {ProcessorKind.CPU: 1.8, ProcessorKind.GPU: 2.0},
    Precision.INT8: {ProcessorKind.CPU: 3.0, ProcessorKind.GPU: 4.0},
}


def scale_work(work: KernelWork, precision: Precision) -> KernelWork:
    """The same kernel's work at a narrower datatype: byte terms shrink,
    logical FLOP count and output-element count stay."""
    if not isinstance(precision, Precision):
        raise ReproError(f"not a Precision: {precision!r}")
    if precision is Precision.FP32:
        return work
    ratio = precision.byte_ratio
    return replace(
        work,
        act_in_bytes=work.act_in_bytes * ratio,
        weight_bytes=work.weight_bytes * ratio,
        out_bytes=work.out_bytes * ratio,
    )

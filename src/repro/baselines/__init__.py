"""Comparison methods evaluated against EdgeNN in Section V."""

from .cloud import CloudModel, CloudResult, run_cloud
from .cpu_only import cpu_only_plan, run_cpu_only
from .gpu_only import run_gpu_only
from .interkernel import run_interkernel_only

__all__ = [
    "CloudModel",
    "CloudResult",
    "cpu_only_plan",
    "run_cloud",
    "run_cpu_only",
    "run_gpu_only",
    "run_interkernel_only",
]

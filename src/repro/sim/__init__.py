"""Discrete-event simulation primitives: timeline, trace, statistics."""

from .stats import ResourceStats, corun_share, resource_stats, utilization_profile
from .timeline import COPY, CPU, GPU, Timeline
from .trace import Trace, TraceEvent

__all__ = [
    "COPY",
    "CPU",
    "GPU",
    "ResourceStats",
    "Timeline",
    "Trace",
    "TraceEvent",
    "corun_share",
    "resource_stats",
    "utilization_profile",
]

"""Multi-resource discrete-event timeline.

The hybrid executor schedules kernels, copies, and synchronization points on
named resources ("cpu", "gpu", "copy").  Each resource processes its work
serially (a CUDA stream / an OpenMP team / a copy engine); cross-resource
ordering is expressed through dependencies on previously scheduled
events: ``schedule`` returns the :class:`~repro.sim.trace.TraceEvent` it
appends to the trace, and that record is the handle later work waits on.

``schedule(resource, duration, after=[...])`` places the work at
``max(resource_free, deps_end)`` — i.e. resources run eagerly as soon as
both the resource and the inputs are available, which is exactly the lazy
synchronization strategy of the paper's Section IV-C (synchronize only when
the data dependency requires it).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from ..errors import SimulationError
from .trace import Trace, TraceEvent

#: Conventional resource names used by executors.
CPU = "cpu"
GPU = "gpu"
COPY = "copy"


class Timeline:
    """Tracks per-resource availability and accumulates the trace."""

    def __init__(self, resources: Iterable[str] = (CPU, GPU, COPY)) -> None:
        self._free_at: Dict[str, float] = {r: 0.0 for r in resources}
        if not self._free_at:
            raise SimulationError("timeline needs at least one resource")
        self.trace = Trace()

    @property
    def resources(self) -> Sequence[str]:
        return tuple(self._free_at)

    def free_at(self, resource: str) -> float:
        """When the resource next becomes available."""
        self._check(resource)
        return self._free_at[resource]

    def now(self) -> float:
        """Latest point any resource is busy until (current makespan)."""
        return max(self._free_at.values())

    def schedule(
        self,
        resource: str,
        duration_s: float,
        label: str,
        *,
        after: Sequence[TraceEvent] = (),
        category: str = "kernel",
        not_before: float = 0.0,
    ) -> TraceEvent:
        """Place ``duration_s`` of work on ``resource``.

        Start time is the max of: the resource's next free instant, the end
        of every dependency, and ``not_before``.  Zero-duration events are
        allowed (pure ordering points) and are still traced when labelled.
        """
        free_at = self._free_at
        if resource not in free_at:
            self._check(resource)
        if duration_s < 0:
            raise SimulationError(f"negative duration for {label!r}")
        # The latest of the three, by comparison: max() costs a call.
        start = free_at[resource]
        if not_before > start:
            start = not_before
        for dep in after:
            if dep.end_s > start:
                start = dep.end_s
        end = start + duration_s
        free_at[resource] = end
        event = TraceEvent(
            resource=resource, label=label,
            start_s=start, end_s=end, category=category,
        )
        self.trace.add(event)
        return event

    def barrier(self, label: str = "barrier") -> TraceEvent:
        """Synchronize all resources at the current makespan.

        Models ``cudaDeviceSynchronize`` plus a CPU join: every resource's
        next work starts at or after this instant.
        """
        t = self.now()
        for resource in self._free_at:
            self._free_at[resource] = t
        return TraceEvent(resource="*", label=label, start_s=t, end_s=t)

    def busy_time(self, resource: str) -> float:
        """Total scheduled time on a resource."""
        self._check(resource)
        return self.trace.busy_time(resource)

    def utilization(self, resource: str) -> float:
        """Busy share of the makespan (0 if nothing ran)."""
        span = self.trace.span()
        if span == 0:
            return 0.0
        return min(1.0, self.busy_time(resource) / span)

    def _check(self, resource: str) -> None:
        if resource not in self._free_at:
            raise SimulationError(
                f"unknown resource {resource!r}; have {sorted(self._free_at)}"
            )

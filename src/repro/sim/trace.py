"""Execution trace records.

Every scheduled interval on the timeline becomes a :class:`TraceEvent`.
:func:`repro.obs.export.chrome_trace` emits a :class:`Trace` in the
``chrome://tracing`` / Perfetto JSON format so simulated schedules can
be inspected visually.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..errors import ReproError


@dataclass(slots=True)
class TraceEvent:
    """One interval of work on one resource.

    A value: nothing changes one after the timeline records it.  It is
    not frozen because a frozen dataclass costs twice as much to build,
    and an executor run builds one per kernel, copy and sync point."""

    resource: str      # e.g. "cpu", "gpu", "copy"
    label: str         # e.g. "conv1", "memcpy:fc6.weights"
    start_s: float
    end_s: float
    category: str = "kernel"   # kernel | copy | sync | overhead

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ReproError(
                f"trace event {self.label!r} on {self.resource!r} ends "
                f"before it starts ({self.end_s} < {self.start_s})"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class Trace:
    """An append-only collection of trace events for one simulated run."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def add(self, event: TraceEvent) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def events_for(self, resource: str) -> List[TraceEvent]:
        """Events on one resource, in schedule order."""
        return [e for e in self._events if e.resource == resource]

    def busy_time(self, resource: str, category: Optional[str] = None) -> float:
        """Total scheduled time on a resource (optionally one category).

        Events on a single resource never overlap (the timeline serializes
        them), so summing durations is exact.
        """
        # A list, not a generator: the sum is the same, and a generator
        # resumes once per event.
        return sum([
            e.end_s - e.start_s
            for e in self._events
            if e.resource == resource and (category is None or e.category == category)
        ])

    def span(self) -> float:
        """Makespan: latest end time across all events (0 for empty traces)."""
        if not self._events:
            return 0.0
        return max([e.end_s for e in self._events])

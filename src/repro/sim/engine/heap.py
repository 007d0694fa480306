"""Binary event heap on the virtual clock.

A thin, typed wrapper over :mod:`heapq` holding ``(time_s, kind, seq,
payload)`` tuples.  ``kind`` orders same-instant events (smaller kinds
fire first — e.g. completions before wait-expiry timers) and ``seq`` is
a monotone push counter, so ties within one kind resolve in push order
and the payload never participates in comparisons.

The heap enforces its core contract on every pop: virtual time never
runs backwards.  The check is one float compare per pop — measured in
the noise even at fleet scale — and turns a silent causality bug into
an immediate error.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

from ...errors import ReproError

_INF = float("inf")


class EventHeap:
    """Min-heap of ``(time_s, kind, seq, payload)`` events."""

    __slots__ = ("entries", "_seq", "_last_pop_s")

    def __init__(self) -> None:
        #: the :mod:`heapq` list; ``entries[0][0]`` is the next instant.
        #: Read it, never change it: pushes and pops go through the
        #: methods, which keep the push order and the clock check.
        self.entries: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        self._last_pop_s = -_INF

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def push(self, time_s: float, kind: int, payload: Any = None) -> None:
        """Schedule one event; same-instant order is (kind, push order)."""
        heapq.heappush(self.entries, (time_s, kind, self._seq, payload))
        self._seq += 1

    def peek_time(self) -> float:
        """Instant of the next event (``inf`` when empty)."""
        return self.entries[0][0] if self.entries else _INF

    def peek_kind(self) -> Optional[int]:
        """Kind of the next event (None when empty)."""
        return self.entries[0][1] if self.entries else None

    def pop(self) -> Tuple[float, int, int, Any]:
        """Pop the next event, enforcing monotone virtual time."""
        time_s, kind, seq, payload = heapq.heappop(self.entries)
        if time_s < self._last_pop_s:
            raise ReproError(
                f"event heap popped t={time_s} after t={self._last_pop_s}: "
                f"virtual time ran backwards"
            )
        self._last_pop_s = time_s
        return time_s, kind, seq, payload

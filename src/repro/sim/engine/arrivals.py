"""Merged arrival epochs: numpy arrays instead of heap entries.

Every open-loop arrival process knows its whole trace up front
(:meth:`~repro.workloads.arrivals.ArrivalProcess.as_arrays`), so the
engine merges all streams once — a concatenate, plus one stable argsort
only when the concatenated epoch is out of order — and walks a cursor
instead of paying ``heappush``/``heappop`` per request.  Closed-loop
follow-ups (arrivals created by completions) go through a small dynamic
side-heap that loses ties against the static epoch, reproducing the
legacy single-heap order where static arrivals were pushed first and
therefore carried smaller sequence numbers.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

_INF = float("inf")


class ArrivalSchedule:
    """Time-ordered arrival cursor over one merged epoch.

    ``streams[k]`` is owner ``k``'s sorted arrival array; the merge is
    stable, so same-instant arrivals keep (owner, position) order —
    exactly the order a shared push-counter heap would produce when
    each owner's arrivals are pushed in declaration order.
    """

    __slots__ = ("times", "owners", "_i", "_n", "_dyn", "_dseq")

    def __init__(self, streams: Sequence[np.ndarray]) -> None:
        chunks: List[np.ndarray] = []
        owners: List[np.ndarray] = []
        for index, stream in enumerate(streams):
            arr = np.asarray(stream, dtype=np.float64)
            chunks.append(arr)
            owners.append(np.full(len(arr), index, dtype=np.int32))
        times = np.concatenate(chunks) if chunks else np.empty(0)
        owner = np.concatenate(owners) if owners else np.empty(0, np.int32)
        # A stable argsort of a non-decreasing epoch is the identity.
        if np.any(times[1:] < times[:-1]):
            order = np.argsort(times, kind="stable")
            times = times[order]
            owner = owner[order]
        self.times = times
        self.owners = owner
        self._i = 0
        self._n = len(self.times)
        #: dynamic follow-ups as (time, seq, owner); seq starts past the
        #: static epoch so dynamics lose every same-instant tie to it.
        self._dyn: List[Tuple[float, int, int]] = []
        self._dseq = self._n

    def __len__(self) -> int:
        return (self._n - self._i) + len(self._dyn)

    def __bool__(self) -> bool:
        return self._i < self._n or bool(self._dyn)

    def push(self, time_s: float, owner: int) -> None:
        """Add one dynamic (closed-loop) arrival."""
        heapq.heappush(self._dyn, (time_s, self._dseq, owner))
        self._dseq += 1

    def peek_time(self) -> float:
        """Instant of the next arrival (``inf`` when exhausted)."""
        s = self.times[self._i] if self._i < self._n else _INF
        if not self._dyn:
            return float(s)
        d = self._dyn[0][0]
        return float(s) if s <= d else d

    def pop(self) -> Tuple[float, int]:
        """Pop the next arrival as (time, owner); static wins ties."""
        s = self.times[self._i] if self._i < self._n else _INF
        if self._dyn:
            d = self._dyn[0][0]
            if d < s:
                time_s, _, owner = heapq.heappop(self._dyn)
                return time_s, owner
        i = self._i
        self._i = i + 1
        return float(s), int(self.owners[i])

    def take_until(self, limit_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Consume every *static* arrival with ``t <= limit_s`` at once.

        Returns (times, owners) views of the epoch — the bulk-admission
        path.  Callers must only use this when no dynamic arrival can
        precede ``limit_s`` (the engine restricts bulk mode to fully
        open-loop runs, where the side-heap stays empty).
        """
        i = self._i
        j = int(np.searchsorted(self.times, limit_s, side="right"))
        self._i = j
        return self.times[i:j], self.owners[i:j]

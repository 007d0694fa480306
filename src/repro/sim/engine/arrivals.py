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

The schedule keeps the instant of its next arrival as a plain float,
:attr:`ArrivalSchedule.next_s`, refreshed by :meth:`~ArrivalSchedule.pop`,
:meth:`~ArrivalSchedule.push` and :meth:`~ArrivalSchedule.take_until`,
so the event loop reads it without a call.  The cursor reads the epoch
through memoryviews, which return Python floats and ints with no numpy
scalar in between; unlike ``tolist()`` they copy nothing, which matters
at a million arrivals.
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

    __slots__ = (
        "times", "owners", "next_s", "_at", "_of", "_i", "_n", "_dyn",
        "_dseq",
    )

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
        self._at = memoryview(times)
        self._of = memoryview(owner)
        self._i = 0
        self._n = len(self.times)
        #: dynamic follow-ups as (time, seq, owner); seq starts past the
        #: static epoch so dynamics lose every same-instant tie to it.
        self._dyn: List[Tuple[float, int, int]] = []
        self._dseq = self._n
        #: instant of the next arrival (``inf`` when exhausted)
        self.next_s = self._at[0] if self._n else _INF

    def __len__(self) -> int:
        return (self._n - self._i) + len(self._dyn)

    def __bool__(self) -> bool:
        return self._i < self._n or bool(self._dyn)

    def _refresh(self) -> None:
        """Recompute :attr:`next_s` after the cursor moved."""
        i = self._i
        s = self._at[i] if i < self._n else _INF
        dyn = self._dyn
        self.next_s = dyn[0][0] if dyn and dyn[0][0] < s else s

    def push(self, time_s: float, owner: int) -> None:
        """Add one dynamic (closed-loop) arrival."""
        heapq.heappush(self._dyn, (time_s, self._dseq, owner))
        self._dseq += 1
        if time_s < self.next_s:
            self.next_s = time_s

    def pop(self) -> Tuple[float, int]:
        """Pop the next arrival as (time, owner); static wins ties."""
        i = self._i
        dyn = self._dyn
        if dyn and dyn[0][0] < (self._at[i] if i < self._n else _INF):
            time_s, _, owner = heapq.heappop(dyn)
            self._refresh()
            return time_s, owner
        # The static head: _refresh's work, inlined on the per-arrival path.
        j = self._i = i + 1
        s = self._at[j] if j < self._n else _INF
        self.next_s = dyn[0][0] if dyn and dyn[0][0] < s else s
        return self._at[i], self._of[i]

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
        self._refresh()
        return self.times[i:j], self.owners[i:j]

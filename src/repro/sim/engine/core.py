"""The merge loop: arrivals vs. heap events vs. periodic ticks.

One instant can hold several event kinds; the processing order is the
legacy single-heap order, made explicit:

1. **ticks** (autoscaler intervals) fire before any event at or after
   their instant (``next_tick <= t_next``);
2. **arrivals** (kind 0 in the old heap) precede same-instant
   completions and timers (``t_arrival <= t_event``);
3. heap events order among themselves by ``(time, kind, seq)``.

When the client signals that per-arrival processing is unobservable —
device busy, no faults, no per-request metrics, fully open loop — the
engine hands the whole span of arrivals up to the next heap event to
``on_arrivals`` as index-free numpy arrays (the bulk-admission fast
path).  Otherwise each arrival goes through ``on_arrival`` exactly as
the scalar loop would.

:class:`DepthTracker` carries the time-weighted queue-depth integral.
Its bulk update is the same cumulative sum the scalar loop computes —
``np.cumsum`` accumulates left-to-right, so seeding it with the running
total reproduces the scalar float adds bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .arrivals import ArrivalSchedule
from .heap import EventHeap

_INF = float("inf")


class DepthTracker:
    """Time-weighted global queue-depth accounting.

    Mirrors the scalar loop's ``advance``: the integral only moves when
    time does, and the accumulation order (one add per event, in event
    order) is preserved exactly so ``queue_depth_mean`` digests stay
    bit-identical.
    """

    __slots__ = ("depth", "depth_max", "integral_s", "last_t")

    def __init__(self) -> None:
        self.depth = 0
        self.depth_max = 0
        self.integral_s = 0.0
        self.last_t = 0.0

    def advance(self, now: float) -> None:
        """Account depth-time up to ``now`` (scalar path)."""
        if now > self.last_t:
            self.integral_s += self.depth * (now - self.last_t)
            self.last_t = now

    def admit(self) -> None:
        self.depth += 1
        if self.depth > self.depth_max:
            self.depth_max = self.depth

    def remove(self, n: int) -> None:
        self.depth -= n

    def advance_bulk(
        self, times: np.ndarray, admitted: np.ndarray
    ) -> None:
        """Account a whole arrival span at once.

        ``admitted[i]`` flags whether arrival ``i`` entered a queue.
        Equivalent scalar sequence per arrival: ``advance(t_i)`` with
        the depth *before* its admission, then ``admit()``.
        """
        n = len(times)
        if n == 0:
            return
        adm = (
            admitted
            if admitted.dtype == np.int64
            else admitted.astype(np.int64)
        )
        inc = np.cumsum(adm)
        self._integrate(times, self.depth + (inc - adm), int(inc[-1]))

    def advance_span(self, times: np.ndarray, take_n: int) -> None:
        """Single-queue span: the first ``take_n`` arrivals admitted,
        the rest shed (FIFO fill) — depth-before is a clipped ramp."""
        n = len(times)
        if n == 0:
            return
        before = self.depth + np.minimum(
            np.arange(n, dtype=np.int64), take_n
        )
        self._integrate(times, before, take_n)

    def _integrate(
        self, times: np.ndarray, depth_before: np.ndarray, grew: int
    ) -> None:
        # The products are computed vectorized but summed in the same
        # order through a seeded cumsum, which accumulates left-to-
        # right — bit-identical to the scalar loop's float adds.
        n = len(times)
        dts = np.empty(n, dtype=np.float64)
        dts[0] = times[0] - self.last_t
        if n > 1:
            dts[1:] = times[1:] - times[:-1]
        prods = depth_before * dts
        self.integral_s = float(
            np.cumsum(np.concatenate(([self.integral_s], prods)))[-1]
        )
        if times[-1] > self.last_t:
            self.last_t = float(times[-1])
        if grew:
            # Depth only grows within an arrival span, so the running
            # max is reached at the final admission.
            self.depth += grew
            if self.depth > self.depth_max:
                self.depth_max = self.depth


class EventEngine:
    """Drives one simulation: a merged arrival epoch plus an event heap.

    The engine owns *when* things happen; clients own *what* happens —
    admission, batching, routing, and fault handling are the callbacks.
    """

    __slots__ = ("schedule", "heap")

    def __init__(
        self,
        schedule: ArrivalSchedule,
        heap: Optional[EventHeap] = None,
    ) -> None:
        self.schedule = schedule
        self.heap = heap if heap is not None else EventHeap()

    def run(
        self,
        *,
        on_arrival: Callable[[float, int], None],
        on_event: Callable[[float, int, object], None],
        bulk_ready: Optional[Callable[[], bool]] = None,
        on_arrivals: Optional[
            Callable[[np.ndarray, np.ndarray], None]
        ] = None,
        next_tick: Optional[Callable[[], float]] = None,
        on_tick: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Process every event in virtual-time order until drained.

        ``bulk_ready``/``on_arrivals`` enable the fast path: when
        ``bulk_ready()`` is true, every static arrival up to (and
        including ties with) the next heap event is delivered as one
        ``on_arrivals(times, owners)`` call.  ``next_tick``/``on_tick``
        interleave a periodic hook that fires before same-or-later
        events (the autoscaler contract).
        """
        schedule = self.schedule
        heap = self.heap
        # The heap's list itself: its top instant is read without a call.
        events = heap.entries
        bulk = on_arrivals is not None and bulk_ready is not None
        ticking = next_tick is not None
        while True:
            t_arrival = schedule.next_s
            t_event = events[0][0] if events else _INF
            t_next = t_arrival if t_arrival <= t_event else t_event
            if t_next == _INF:
                # No events left: pending ticks never fire (the clock
                # stops with the last real event, as in the old loops).
                return
            if ticking:
                tick_at = next_tick()
                if tick_at <= t_next:
                    on_tick(tick_at)
                    continue
            if t_arrival <= t_event:
                if bulk and bulk_ready():
                    times, owners = schedule.take_until(t_event)
                    if len(times):
                        on_arrivals(times, owners)
                        continue
                    # Only dynamic arrivals remain before the next heap
                    # event; fall through to the scalar path.
                now, owner = schedule.pop()
                on_arrival(now, owner)
            else:
                now, kind, _seq, payload = heap.pop()
                on_event(now, kind, payload)

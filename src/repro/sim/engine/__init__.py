"""Vectorized virtual-clock event core shared by both simulators.

The serving (:mod:`repro.serving.simulator`) and cluster
(:mod:`repro.cluster.simulator`) event loops used to each own their
clock machinery — per-request Python objects, ad-hoc heaps, duplicated
arrival merging.  This package extracts the hot path into one
struct-of-arrays core:

* :class:`~repro.sim.engine.arrivals.ArrivalSchedule` — whole arrival
  epochs as numpy arrays (merged, stably time-sorted) with a cursor
  and a dynamic side-heap for closed-loop follow-ups;
* :class:`~repro.sim.engine.heap.EventHeap` — a binary heap of
  ``(time, kind, seq)`` events that provably never pops out of
  virtual-time order;
* :class:`~repro.sim.engine.table.RequestTable` — request state as
  parallel numpy columns instead of one Python object per request;
  :class:`~repro.sim.engine.table.RequestRows` is the finished-run view
  both simulators hand to their reports and timelines (serving takes it
  from the table, the cluster rebuilds it from its dispatch log);
* :class:`~repro.sim.engine.queue.IndexQueue` — serving's bounded
  FIFO: it applies a :class:`~repro.serving.batcher.BatchPolicy`
  (admission, max-batch / max-wait readiness, deadlines) to table
  indices, with vectorized deadline expiry and the shared ``EPS``
  tolerance.  The cluster keeps a per-replica ``deque`` of arrival
  instants instead, because an arrival through the table and this
  queue costs about 7x one through the deque (see its module
  docstring);
* :class:`~repro.sim.engine.core.EventEngine` — the merge loop
  (arrivals vs. heap events vs. periodic ticks) with an optional bulk
  arrival path, plus :class:`~repro.sim.engine.core.DepthTracker`,
  whose accumulation order is bit-identical to the scalar loop it
  replaced.

The simulators stay the *policy*: admission, batching, routing, and
fault handling are callbacks the engine invokes on index arrays.
Golden parity (``tests/golden/engine_parity.json``) pins every report
and timeline digest to the pre-refactor loops bit-for-bit.
"""

from .arrivals import ArrivalSchedule
from .core import DepthTracker, EventEngine
from .heap import EventHeap
from .queue import IndexQueue
from .table import (
    FAILED,
    PENDING,
    REJECTED,
    RUNNING,
    SERVED,
    SHED,
    TIMED_OUT,
    RequestRows,
    RequestTable,
)

__all__ = [
    "ArrivalSchedule",
    "DepthTracker",
    "EventEngine",
    "EventHeap",
    "IndexQueue",
    "RequestRows",
    "RequestTable",
    "PENDING",
    "RUNNING",
    "SERVED",
    "SHED",
    "TIMED_OUT",
    "FAILED",
    "REJECTED",
]

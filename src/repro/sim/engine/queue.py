"""Bounded FIFO + dynamic batching over request-table indices.

:class:`IndexQueue` is the serving simulator's per-tenant queue; the
cluster simulator keeps a ``deque`` of arrival instants per replica.
At two requests per batch, with deadlines on, an arrival costs about
3.2 µs through the table and this queue (``append``, ``offer``,
``expire``, ``ready``, and ``take_batch`` every second arrival) but
0.45 µs through the deque (one pinned CPU of a 2-vCPU x86 host,
Python 3.11), which would add about 0.15 s to each 54,651-arrival op
of the benchmark's cluster-fleet workload.  Both simulators test
deadlines with the same expression and ``EPS``.  The queue applies a
:class:`~repro.serving.batcher.BatchPolicy` to one tenant:

* **admission** — an arrival finding ``max_queue_depth`` requests
  already waiting is shed at its arrival; an admitted request gets the
  absolute deadline ``arrival + policy.deadline_s`` (none when the
  policy sets no deadline);
* **readiness** — a batch is ready once ``max_batch_size`` requests
  are queued, or at ``now + EPS >= oldest arrival + max_wait_s``;
* **expiry** — a queued request is abandoned as TIMED_OUT once
  ``now > deadline + EPS``; the request is still viable at exactly its
  deadline;
* **batching** — ``take_batch`` pops up to ``max_batch_size`` rows in
  FIFO order and stamps them RUNNING.

The pending set is a growable index ring into a
:class:`~repro.sim.engine.table.RequestTable`, so batch extraction and
deadline expiry are numpy slices rather than per-request pops.  FIFO
order plus a uniform per-tenant deadline offset makes queued deadlines
monotone; expiry is therefore one ``searchsorted`` over the
precomputed ``deadline + EPS`` keys.

The head's wait deadline and expiry key are kept as floats
(``head_wait_s``, ``head_key_s``) and refreshed only where the head
moves: admission into an empty queue, ``expire`` and ``take_batch``.
``ready`` and ``wait_deadline_s`` read them, and ``expire`` compares
the instant with the head's key first, so none of the three makes a
numpy call unless a head is due.  ``due`` (``expire`` would remove a
row, or a batch is ready) tells a caller whether a poll would act on
the queue at all.

The queue keeps no outcome counters: every outcome it decides (SHED,
REJECTED, TIMED_OUT) goes into the table's ``status`` column, with the
instant the request left in ``finish_s``, and callers count from there.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import ReproError
from . import table as tb

#: Tolerance when comparing virtual-clock instants (timer events fire at
#: exactly the deadline; float round-off must not defer a ready batch).
#: The one value both simulators import.
EPS = 1e-12

_INF = float("inf")


class IndexQueue:
    """One tenant's pending requests as indices into a RequestTable.

    ``head_wait_s`` and ``head_key_s`` are the head's wait deadline
    (oldest arrival + ``max_wait_s``) and expiry key (deadline + EPS),
    ``inf`` when the queue is empty or sets no deadlines.  Callers read
    them; only the queue writes them.
    """

    __slots__ = (
        "name", "policy", "table", "head_wait_s", "head_key_s",
        "_buf", "_dkey", "_head", "_tail",
    )

    def __init__(self, name: str, policy, table: tb.RequestTable) -> None:
        self.name = name
        self.policy = policy
        self.table = table
        self.head_wait_s = _INF
        self.head_key_s = _INF
        cap = 64
        self._buf = np.empty(cap, dtype=np.int64)
        #: per-slot expiry key (deadline + EPS); only filled when the
        #: policy sets deadlines.
        self._dkey = np.empty(cap, dtype=np.float64)
        self._head = 0
        self._tail = 0

    def __len__(self) -> int:
        return self._tail - self._head

    def _refresh_head(self) -> None:
        """Re-read the head state after the head moved."""
        head = self._head
        if head == self._tail:
            self.head_wait_s = self.head_key_s = _INF
            return
        self.head_wait_s = (
            float(self.table.arrival_s[self._buf[head]])
            + self.policy.max_wait_s
        )
        if self.policy.deadline_s is not None:
            self.head_key_s = float(self._dkey[head])

    def _room_for(self, n: int) -> None:
        if self._tail + n <= len(self._buf):
            return
        new = max(self._tail + n, len(self._buf) * 2)
        buf = np.empty(new, dtype=np.int64)
        buf[: self._tail] = self._buf[: self._tail]
        dkey = np.empty(new, dtype=np.float64)
        dkey[: self._tail] = self._dkey[: self._tail]
        self._buf = buf
        self._dkey = dkey

    # -- admission --------------------------------------------------------

    def offer(self, idx: int, arrival_s: float) -> bool:
        """Admit row ``idx`` or shed it at its arrival; returns True
        when admitted."""
        if self._tail - self._head >= self.policy.max_queue_depth:
            self.table.status[idx] = tb.SHED
            self.table.finish_s[idx] = arrival_s
            return False
        self._admit(idx, arrival_s)
        return True

    def _admit(self, idx: int, arrival_s: float) -> None:
        self._room_for(1)
        tail = self._tail
        key = _INF
        deadline_s = self.policy.deadline_s
        if deadline_s is not None:
            deadline = arrival_s + deadline_s
            self.table.deadline_s[idx] = deadline
            key = deadline + EPS
            self._dkey[tail] = key
        self._buf[tail] = idx
        self._tail = tail + 1
        if tail == self._head:  # a new head
            self.head_wait_s = arrival_s + self.policy.max_wait_s
            self.head_key_s = key

    def admit_bulk(self, idxs: np.ndarray, arrivals_s: np.ndarray) -> None:
        """Admit pre-screened rows (the caller already applied the
        queue-depth cap)."""
        n = len(idxs)
        self._room_for(n)
        tail = self._tail
        deadline_s = self.policy.deadline_s
        if deadline_s is not None:
            deadlines = arrivals_s + deadline_s
            self.table.deadline_s[idxs] = deadlines
            self._dkey[tail:tail + n] = deadlines + EPS
        self._buf[tail:tail + n] = idxs
        self._tail = tail + n
        if tail == self._head:
            self._refresh_head()

    def admit_span(
        self, start: int, n: int, arrivals_s: np.ndarray
    ) -> None:
        """Admit the contiguous pre-screened rows ``start..start+n``
        (single-tenant bulk path: pure slice writes, no fancy
        indexing)."""
        self._room_for(n)
        tail = self._tail
        deadline_s = self.policy.deadline_s
        if deadline_s is not None:
            deadlines = arrivals_s + deadline_s
            self.table.deadline_s[start:start + n] = deadlines
            self._dkey[tail:tail + n] = deadlines + EPS
        self._buf[tail:tail + n] = np.arange(
            start, start + n, dtype=np.int64
        )
        self._tail = tail + n
        if tail == self._head:
            self._refresh_head()

    def reject(self, idx: int, now: float) -> None:
        """Refuse a malformed payload at the door."""
        self.table.status[idx] = tb.REJECTED
        self.table.finish_s[idx] = now

    # -- deadlines --------------------------------------------------------

    def expire(self, now: float) -> int:
        """Abandon queued requests past deadline; returns the count.

        Expired rows are marked TIMED_OUT with ``finish_s = now``
        (abandonment instant, for time-in-system accounting).
        """
        # expired <=> now > deadline + EPS <=> dkey < now.  The head's
        # key is the smallest, so below it nothing expires (an empty
        # queue, or one without deadlines, keys at inf).
        if not self.head_key_s < now:
            return 0
        head, tail = self._head, self._tail
        # Keys are monotone (FIFO + uniform offset), so one bisect
        # finds the cut, which holds at least the head.
        cut = int(
            np.searchsorted(self._dkey[head:tail], now, side="left")
        )
        idxs = self._buf[head:head + cut]
        self.table.status[idxs] = tb.TIMED_OUT
        self.table.finish_s[idxs] = now
        self._head = head + cut
        self._refresh_head()
        return cut

    # -- batching ---------------------------------------------------------

    def wait_deadline_s(self) -> Optional[float]:
        """Instant the oldest pending request's wait budget expires
        (None when the queue is empty)."""
        if self._head == self._tail:
            return None
        return self.head_wait_s

    def ready(self, now: float) -> bool:
        """True when a batch should dispatch at virtual instant ``now``."""
        n = self._tail - self._head
        if n == 0:
            return False
        if n >= self.policy.max_batch_size:
            return True
        return now + EPS >= self.head_wait_s

    def due(self, now: float) -> bool:
        """True when a poll at ``now`` has work here: :meth:`expire`
        would remove a row, or a batch is :meth:`ready`."""
        return self.head_key_s < now or self.ready(now)

    def take_batch(self, now: float) -> np.ndarray:
        """Pop up to ``max_batch_size`` rows and mark them running."""
        if self._head == self._tail:
            raise ReproError(
                f"tenant {self.name!r} has no pending requests"
            )
        k = min(self._tail - self._head, self.policy.max_batch_size)
        idxs = self._buf[self._head:self._head + k].copy()
        self._head += k
        self._refresh_head()
        self.table.status[idxs] = tb.RUNNING
        self.table.dispatch_s[idxs] = now
        self.table.batch_size[idxs] = k
        return idxs

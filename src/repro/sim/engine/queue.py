"""Bounded FIFO + dynamic batching over request-table indices.

:class:`IndexQueue` is the one queue both simulators run.  It applies a
:class:`~repro.serving.batcher.BatchPolicy` to one tenant:

* **admission** — an arrival finding ``max_queue_depth`` requests
  already waiting is shed; an admitted request gets the absolute
  deadline ``arrival + policy.deadline_s`` (none when the policy sets
  no deadline);
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


class IndexQueue:
    """One tenant's pending requests as indices into a RequestTable."""

    __slots__ = (
        "name", "policy", "table",
        "_buf", "_dkey", "_head", "_tail",
        "offered", "shed", "timed_out", "rejected",
    )

    def __init__(self, name: str, policy, table: tb.RequestTable) -> None:
        self.name = name
        self.policy = policy
        self.table = table
        cap = 64
        self._buf = np.empty(cap, dtype=np.int64)
        #: per-slot expiry key (deadline + EPS); only filled when the
        #: policy sets deadlines.
        self._dkey = np.empty(cap, dtype=np.float64)
        self._head = 0
        self._tail = 0
        self.offered = 0
        self.shed = 0
        self.timed_out = 0
        self.rejected = 0

    def __len__(self) -> int:
        return self._tail - self._head

    @property
    def depth(self) -> int:
        return self._tail - self._head

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
        """Admit row ``idx`` or shed it; returns True when admitted."""
        self.offered += 1
        if self._tail - self._head >= self.policy.max_queue_depth:
            self.table.status[idx] = tb.SHED
            self.shed += 1
            return False
        self._admit(idx, arrival_s)
        return True

    def _admit(self, idx: int, arrival_s: float) -> None:
        self._room_for(1)
        deadline_s = self.policy.deadline_s
        if deadline_s is not None:
            deadline = arrival_s + deadline_s
            self.table.deadline_s[idx] = deadline
            self._dkey[self._tail] = deadline + EPS
        self._buf[self._tail] = idx
        self._tail += 1

    def admit_bulk(self, idxs: np.ndarray, arrivals_s: np.ndarray) -> None:
        """Admit pre-screened rows (the caller already applied the
        queue-depth cap and counted offered/shed)."""
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

    def reject(self, idx: int) -> None:
        """Refuse a malformed payload at the door (counts as offered)."""
        self.offered += 1
        self.table.status[idx] = tb.REJECTED
        self.rejected += 1

    # -- deadlines --------------------------------------------------------

    def expire(self, now: float) -> int:
        """Abandon queued requests past deadline; returns the count.

        Expired rows are marked TIMED_OUT with ``finish_s = now``
        (abandonment instant, for time-in-system accounting).
        """
        if self.policy.deadline_s is None or self._head == self._tail:
            return 0
        head, tail = self._head, self._tail
        # expired <=> now > deadline + EPS <=> dkey < now; keys are
        # monotone (FIFO + uniform offset), so one bisect finds the cut.
        cut = int(
            np.searchsorted(self._dkey[head:tail], now, side="left")
        )
        if cut == 0:
            return 0
        idxs = self._buf[head:head + cut]
        self.table.status[idxs] = tb.TIMED_OUT
        self.table.finish_s[idxs] = now
        self._head = head + cut
        self.timed_out += cut
        return cut

    # -- batching ---------------------------------------------------------

    @property
    def oldest_arrival_s(self) -> Optional[float]:
        if self._head == self._tail:
            return None
        return float(self.table.arrival_s[self._buf[self._head]])

    def wait_deadline_s(self) -> Optional[float]:
        """Instant the oldest pending request's wait budget expires
        (None when the queue is empty)."""
        oldest = self.oldest_arrival_s
        if oldest is None:
            return None
        return oldest + self.policy.max_wait_s

    def ready(self, now: float) -> bool:
        """True when a batch should dispatch at virtual instant ``now``."""
        n = self._tail - self._head
        if n == 0:
            return False
        if n >= self.policy.max_batch_size:
            return True
        return now + EPS >= self.wait_deadline_s()

    def take_batch(self, now: float) -> np.ndarray:
        """Pop up to ``max_batch_size`` rows and mark them running."""
        if self._head == self._tail:
            raise ReproError(
                f"tenant {self.name!r} has no pending requests"
            )
        k = min(self._tail - self._head, self.policy.max_batch_size)
        idxs = self._buf[self._head:self._head + k].copy()
        self._head += k
        self.table.status[idxs] = tb.RUNNING
        self.table.dispatch_s[idxs] = now
        self.table.batch_size[idxs] = k
        return idxs

"""Request state as a struct of arrays.

One row per request, one numpy column per field, instead of a Python
object per arrival.  Status codes are small ints (:data:`SERVED`,
:data:`SHED`, ...); unset instants are NaN.  Everything per request
that a finished run reports — counts, latencies, timelines, the
Chrome-trace lifecycle events — is read from these columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

#: status codes (int8 column values), in rough lifecycle order.
PENDING = 0
RUNNING = 1
SERVED = 2
SHED = 3
TIMED_OUT = 4
FAILED = 5
REJECTED = 6


@dataclass(frozen=True)
class RequestRows:
    """The per-request record of a finished run, one entry per request.

    Both simulators produce it: serving as views of its
    :class:`RequestTable`, the cluster by rebuilding its dispatch log.
    The report counts, latency samples and the timeline are derived
    from these columns after the run.
    """

    arrival_s: np.ndarray
    #: instant the request left the system (NaN while it had not)
    finish_s: np.ndarray
    #: instant its batch was dispatched (NaN when it never was)
    dispatch_s: np.ndarray
    #: status codes (:data:`SERVED`, :data:`SHED`, ...)
    status: np.ndarray
    #: indices of the SERVED rows in completion order
    served: np.ndarray


class RequestTable:
    """Growable struct-of-arrays request store."""

    __slots__ = (
        "arrival_s", "finish_s", "dispatch_s", "deadline_s",
        "status", "tenant", "batch_size", "corrupt", "size",
    )

    def __init__(self, capacity: int = 0) -> None:
        cap = max(int(capacity), 16)
        self.arrival_s = np.empty(cap, dtype=np.float64)
        self.finish_s = np.full(cap, np.nan)
        self.dispatch_s = np.full(cap, np.nan)
        self.deadline_s = np.full(cap, np.nan)
        self.status = np.zeros(cap, dtype=np.int8)
        self.tenant = np.zeros(cap, dtype=np.int32)
        self.batch_size = np.zeros(cap, dtype=np.int32)
        self.corrupt = np.zeros(cap, dtype=bool)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def _grow_to(self, needed: int) -> None:
        cap = len(self.arrival_s)
        if needed <= cap:
            return
        new = max(needed, cap * 2)
        for name, fill in (
            ("arrival_s", 0.0), ("finish_s", np.nan),
            ("dispatch_s", np.nan), ("deadline_s", np.nan),
        ):
            old = getattr(self, name)
            col = np.full(new, fill)
            col[:cap] = old
            setattr(self, name, col)
        for name, dtype in (
            ("status", np.int8), ("tenant", np.int32),
            ("batch_size", np.int32), ("corrupt", bool),
        ):
            old = getattr(self, name)
            col = np.zeros(new, dtype=dtype)
            col[:cap] = old
            setattr(self, name, col)

    def append(self, arrival_s: float, tenant: int) -> int:
        """Add one request row; returns its index (= request id)."""
        idx = self.size
        self._grow_to(idx + 1)
        self.arrival_s[idx] = arrival_s
        self.tenant[idx] = tenant
        self.size = idx + 1
        return idx

    def append_bulk(
        self,
        arrivals_s: np.ndarray,
        tenant: Union[int, np.ndarray],
    ) -> int:
        """Add one row per arrival; returns the first new index."""
        n = len(arrivals_s)
        start = self.size
        self._grow_to(start + n)
        self.arrival_s[start:start + n] = arrivals_s
        self.tenant[start:start + n] = tenant
        self.size = start + n
        return start

    def rows(self) -> RequestRows:
        """Views of the used rows.  Batches complete one at a time and
        a batch's rows are in row order, so completion order is the
        stable order of the served rows' finish instants."""
        n = self.size
        status = self.status[:n]
        finish = self.finish_s[:n]
        served = np.flatnonzero(status == SERVED)
        served = served[np.argsort(finish[served], kind="stable")]
        return RequestRows(
            self.arrival_s[:n], finish, self.dispatch_s[:n], status, served
        )

"""The unit of work of the serving layer: one inference request.

The paper's evaluation is one-shot — a single inference with a cold
runtime.  A service instead sees a *stream* of these records; everything
the serving metrics report (latency percentiles, shed rate, batch-size
histogram) is an aggregation over them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ReproError


class RequestStatus(enum.Enum):
    PENDING = "pending"      # queued, not yet dispatched
    RUNNING = "running"      # part of an in-flight batch
    SERVED = "served"        # completed successfully, within deadline
    SHED = "shed"            # rejected by admission control (queue full)
    TIMED_OUT = "timed_out"  # missed its deadline (queued or completed late)
    FAILED = "failed"        # lost to an execution fault
    REJECTED = "rejected"    # malformed payload caught by validation


@dataclass
class Request:
    """One inference request travelling through the service."""

    request_id: int
    tenant: str                      # tenant (model) the request targets
    arrival_s: float                 # virtual-clock arrival instant
    status: RequestStatus = RequestStatus.PENDING
    dispatch_s: Optional[float] = field(default=None)   # batch start
    finish_s: Optional[float] = field(default=None)     # completion
    batch_size: int = 0              # size of the batch it rode in
    #: absolute virtual-clock deadline (None: the request never expires).
    deadline_s: Optional[float] = field(default=None)
    #: injected payload corruption (malformed client input).
    corrupt: bool = False

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to completion (served only)."""
        if self.finish_s is None:
            raise ReproError(
                f"request {self.request_id} has not finished "
                f"(status {self.status.value})"
            )
        return self.finish_s - self.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Time spent queued before its batch was dispatched."""
        if self.dispatch_s is None:
            raise ReproError(
                f"request {self.request_id} was never dispatched "
                f"(status {self.status.value})"
            )
        return self.dispatch_s - self.arrival_s

"""Dynamic batching and admission-control policy for one tenant.

:class:`BatchPolicy` holds the knobs.  In the serving simulator the
queue that applies them is :class:`~repro.sim.engine.queue.IndexQueue`
over a :class:`~repro.sim.engine.table.RequestTable`; the cluster
simulator applies them to a per-replica ``deque``, which is about 7x
cheaper per arrival (measured in :mod:`repro.sim.engine.queue`).  The
policy is the classic *max-batch-size / max-wait-time* rule used by
production inference servers (Triton, TF-Serving):

* a batch is **ready** the instant ``max_batch_size`` requests are
  queued, or once the *oldest* queued request has waited ``max_wait_s``
  (whichever comes first);
* ``max_batch_size=1`` degenerates to immediate per-request dispatch
  (the paper's one-shot regime);
* ``max_wait_s=0`` dispatches whatever is queued the moment the device
  is free — batches then form only while the device is busy.

Admission control is a bounded queue: an arrival finding
``max_queue_depth`` requests already waiting is **shed** immediately
(fail fast beats queueing past the latency SLO — the load-shedding
argument).  The queue never reorders requests within a tenant (FIFO).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the dynamic batcher and the admission controller."""

    max_batch_size: int = 8
    max_wait_s: float = 0.002
    max_queue_depth: int = 64
    #: per-request latency budget relative to arrival; a request still
    #: queued (or completing) past it is abandoned as TIMED_OUT.
    #: None disables deadlines (the pre-fault behaviour).
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ReproError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_s < 0:
            raise ReproError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )
        if self.max_queue_depth < 1:
            raise ReproError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ReproError(
                f"deadline_s must be > 0 (or None), got {self.deadline_s}"
            )

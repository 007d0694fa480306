"""Fault-tolerant tuning job queue: lease-based claims, bounded retries.

MITuna-style fleet tuning treats each :class:`~repro.core.plan_cache.PlanKey`
as one unit of embarrassingly parallel work.  Workers die, so the queue
never *hands over* a job — it **leases** it:

* a claim marks the job leased until ``now + lease_timeout_s``; if the
  worker neither completes nor fails it by then, the lease expires and
  the job is requeued (the crash counts as an attempt);
* a failed attempt requeues the job with a deterministic exponential
  backoff gate (:meth:`~repro.faults.resilience.RetryPolicy.delay`,
  token = job id, so two same-seed runs back off identically);
* a job that exhausts ``RetryPolicy.max_attempts`` is **poisoned** —
  parked with its failure history instead of spinning forever;
* claims are ordered by ``(priority, job_id)``: hot keys (priority 0,
  e.g. batch-1 interactive plans) compile before the long tail, and the
  job-id tiebreak keeps claim order deterministic.

The queue is *coordinator-owned* and lives in its memory: only the
fleet's coordinator mutates it (workers are pool processes that report
back), so it takes no lock.  The plan store is the fleet's only durable
record: a killed coordinator restarts by enqueueing the keys its store
still lacks (:func:`~repro.tuning.fleet.run_fleet`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..core.plan_cache import PlanKey
from ..errors import ReproError
from ..faults.resilience import RetryPolicy

#: Job lifecycle states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
POISONED = "poisoned"

_STATES = (PENDING, LEASED, DONE, POISONED)


@dataclass(frozen=True)
class TuneJob:
    """One unit of fleet work: compile one plan key (its device fixes
    how)."""

    key: PlanKey
    #: claim order: lower claims first (0 = hot key).
    priority: int = 1
    #: attempts already consumed (failures + expired leases).
    attempts: int = 0
    state: str = PENDING
    #: earliest queue-clock instant the job may be claimed (backoff gate).
    not_before_s: float = 0.0
    #: queue-clock deadline of the current lease (while leased).
    lease_deadline_s: float = 0.0
    #: who holds / last held the lease.
    worker: str = ""
    #: failure reasons, in order (provenance for poisoned jobs).
    failures: Tuple[str, ...] = ()
    #: content hash of the produced store object (set when done).
    sha256: str = ""

    def __post_init__(self) -> None:
        if self.state not in _STATES:
            raise ReproError(
                f"job state must be one of {_STATES}, got {self.state!r}"
            )

    @property
    def job_id(self) -> str:
        """The key's slug — unique per catalog entry."""
        return self.key.slug()


class JobQueue:
    """Lease-based, in-memory queue of :class:`TuneJob` records.

    The clock is explicit: every time-dependent operation takes ``now``
    (seconds on whatever monotone clock the coordinator uses), so lease
    expiry and backoff are unit-testable without sleeping.
    """

    def __init__(
        self,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        lease_timeout_s: float = 60.0,
        obs=None,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ReproError(
                f"lease_timeout_s must be > 0, got {lease_timeout_s}"
            )
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=4, base_delay_s=0.01, max_delay_s=0.25
        )
        self.lease_timeout_s = lease_timeout_s
        self._obs = obs
        self._jobs: Dict[str, TuneJob] = {}
        #: attempts re-queued after a reported failure.
        self.retries = 0
        #: leases that expired without a report (worker presumed dead).
        self.lease_expirations = 0

    # -- enqueue --------------------------------------------------------------

    def add(self, job: TuneJob) -> bool:
        """Enqueue a job; returns False if its id is already present."""
        if job.job_id in self._jobs:
            return False
        self._jobs[job.job_id] = job
        self._gauge_depth()
        return True

    def add_all(self, jobs: List[TuneJob]) -> int:
        """Enqueue many jobs; returns how many were new."""
        added = 0
        for job in jobs:
            if job.job_id not in self._jobs:
                self._jobs[job.job_id] = job
                added += 1
        if added:
            self._gauge_depth()
        return added

    # -- lease protocol -------------------------------------------------------

    def expire_leases(self, now: float) -> List[str]:
        """Requeue every lease past its deadline; returns the job ids.

        An expired lease means the worker died (or hung) without
        reporting: the silence consumes an attempt exactly like a
        reported failure, so a job that kills every worker it lands on
        still poisons out after ``max_attempts``.
        """
        expired: List[str] = []
        for job_id in sorted(self._jobs):
            job = self._jobs[job_id]
            if job.state == LEASED and now >= job.lease_deadline_s:
                expired.append(job_id)
                self.lease_expirations += 1
                self._record_failure(
                    job, f"lease expired (worker {job.worker!r})", now
                )
        if expired:
            self._gauge_depth()
        return expired

    def claim(self, worker: str, now: float) -> Optional[TuneJob]:
        """Lease the highest-priority claimable job to ``worker``.

        Claimable = pending with its backoff gate open
        (``not_before_s <= now``).  Ordering is ``(priority, job_id)``,
        so hot keys drain first and ties break deterministically.
        Returns None when nothing is claimable right now.
        """
        best: Optional[TuneJob] = None
        for job in self._jobs.values():
            if job.state != PENDING or job.not_before_s > now:
                continue
            if best is None or (
                (job.priority, job.job_id)
                < (best.priority, best.job_id)
            ):
                best = job
        if best is None:
            return None
        leased = replace(
            best,
            state=LEASED,
            worker=worker,
            lease_deadline_s=now + self.lease_timeout_s,
        )
        self._jobs[leased.job_id] = leased
        return leased

    def complete(self, job_id: str, sha256: str, now: float) -> TuneJob:
        """Mark a leased job done (its store object is ``sha256``)."""
        job = self._require(job_id)
        if job.state != LEASED:
            raise ReproError(
                f"cannot complete job {job_id!r} in state {job.state!r}"
            )
        done = replace(
            job, state=DONE, sha256=sha256, lease_deadline_s=0.0
        )
        self._jobs[job_id] = done
        self._gauge_depth()
        return done

    def fail(self, job_id: str, reason: str, now: float) -> TuneJob:
        """Record a failed attempt; requeue with backoff or poison."""
        job = self._require(job_id)
        if job.state not in (LEASED, PENDING):
            raise ReproError(
                f"cannot fail job {job_id!r} in state {job.state!r}"
            )
        failed = self._record_failure(job, reason, now)
        self._gauge_depth()
        return failed

    def _record_failure(
        self, job: TuneJob, reason: str, now: float
    ) -> TuneJob:
        attempts = job.attempts + 1
        failures = job.failures + (reason,)
        if attempts >= self.retry_policy.max_attempts:
            updated = replace(
                job,
                state=POISONED,
                attempts=attempts,
                failures=failures,
                lease_deadline_s=0.0,
            )
            self._counter("tune_jobs_poisoned_total").inc()
        else:
            # Deterministic backoff: attempt index + job id fully
            # determine the delay, so two same-seed fleet runs gate
            # retries identically no matter which worker failed when.
            delay = self.retry_policy.delay(
                attempts - 1, token=job.job_id
            )
            updated = replace(
                job,
                state=PENDING,
                attempts=attempts,
                failures=failures,
                not_before_s=now + delay,
                lease_deadline_s=0.0,
                worker="",
            )
            self.retries += 1
            self._counter("tune_jobs_retried_total").inc()
        self._jobs[job.job_id] = updated
        return updated

    def _require(self, job_id: str) -> TuneJob:
        job = self._jobs.get(job_id)
        if job is None:
            raise ReproError(f"unknown tune job {job_id!r}")
        return job

    # -- introspection --------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Jobs per state (every state present, zero-filled)."""
        counts = {state: 0 for state in _STATES}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts

    def outstanding(self) -> int:
        """Jobs that still need work (pending + leased)."""
        counts = self.counts()
        return counts[PENDING] + counts[LEASED]

    def next_ready_at(self, now: float) -> Optional[float]:
        """Earliest instant a pending job becomes claimable (>= now).

        None when no job is pending; ``now`` when one is claimable
        already.  The fleet uses this to sleep exactly through a
        backoff gap instead of polling.
        """
        gates = [
            max(job.not_before_s, now)
            for job in self._jobs.values()
            if job.state == PENDING
        ]
        return min(gates) if gates else None

    def jobs(self, state: Optional[str] = None) -> List[TuneJob]:
        """Snapshot of jobs (optionally one state), sorted by id."""
        selected = [
            job for job in self._jobs.values()
            if state is None or job.state == state
        ]
        return sorted(selected, key=lambda j: j.job_id)

    def __len__(self) -> int:
        return len(self._jobs)

    # -- obs ------------------------------------------------------------------

    def _counter(self, name: str):
        if self._obs is not None and getattr(self._obs, "enabled", False):
            return self._obs.metrics.counter(
                name, "Tuning fleet job-queue events."
            )
        return _NULL_INSTRUMENT

    def _gauge_depth(self) -> None:
        if self._obs is not None and getattr(self._obs, "enabled", False):
            counts = {state: 0 for state in _STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            self._obs.metrics.gauge(
                "tune_queue_depth", "Unfinished tuning jobs.",
            ).set(float(counts[PENDING] + counts[LEASED]))


class _NullInstrument:
    def inc(self, value: float = 1.0) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


__all__ = [
    "DONE",
    "JobQueue",
    "LEASED",
    "PENDING",
    "POISONED",
    "TuneJob",
]

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

The queue is *coordinator-owned*: exactly one process mutates it (the
fleet's scheduler thread; workers are pool tasks that report back), so
there is no cross-process locking — just crash safety.  Every
transition persists the whole queue as one atomic JSON write, so a
killed coordinator restarts from its last transition: leased jobs are
simply left to expire and re-run.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..core.plan_cache import PlanKey
from ..errors import ReproError
from ..faults.resilience import RetryPolicy
from ..fsutil import atomic_write_text

QUEUE_SCHEMA = "repro.tune-queue"
QUEUE_VERSION = 1

#: Job lifecycle states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
POISONED = "poisoned"

_STATES = (PENDING, LEASED, DONE, POISONED)

#: How a plan key is compiled: the adaptive five-stage pipeline or a
#: degenerate fixed placement (the baselines' path for CPU-only /
#: discrete-GPU devices).
MODES = ("adaptive", "fixed:cpu", "fixed:gpu")


@dataclass(frozen=True)
class TuneJob:
    """One unit of fleet work: compile one plan key, one way."""

    key: PlanKey
    mode: str = "adaptive"
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
        if self.mode not in MODES:
            raise ReproError(
                f"job mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.state not in _STATES:
            raise ReproError(
                f"job state must be one of {_STATES}, got {self.state!r}"
            )

    @property
    def job_id(self) -> str:
        """The key's slug — unique per catalog entry."""
        return self.key.slug()

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key.to_dict(),
            "mode": self.mode,
            "priority": self.priority,
            "attempts": self.attempts,
            "state": self.state,
            "not_before_s": self.not_before_s,
            "lease_deadline_s": self.lease_deadline_s,
            "worker": self.worker,
            "failures": list(self.failures),
            "sha256": self.sha256,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TuneJob":
        try:
            key_data = data["key"]
            if not isinstance(key_data, Mapping):
                raise ReproError(
                    f"job key must be an object, got {key_data!r}"
                )
            return cls(
                key=PlanKey.from_dict(key_data),
                mode=str(data.get("mode", "adaptive")),
                priority=int(data.get("priority", 1)),  # type: ignore[arg-type]
                attempts=int(data.get("attempts", 0)),  # type: ignore[arg-type]
                state=str(data.get("state", PENDING)),
                not_before_s=float(
                    data.get("not_before_s", 0.0)  # type: ignore[arg-type]
                ),
                lease_deadline_s=float(
                    data.get("lease_deadline_s", 0.0)  # type: ignore[arg-type]
                ),
                worker=str(data.get("worker", "")),
                failures=tuple(
                    str(f) for f in data.get("failures", ())  # type: ignore[union-attr]
                ),
                sha256=str(data.get("sha256", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed tune job record: {exc}") from exc


class JobQueue:
    """Lease-based, file-backed queue of :class:`TuneJob` records.

    The clock is explicit: every time-dependent operation takes ``now``
    (seconds on whatever monotone clock the coordinator uses), so lease
    expiry and backoff are unit-testable without sleeping.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        lease_timeout_s: float = 60.0,
        obs=None,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ReproError(
                f"lease_timeout_s must be > 0, got {lease_timeout_s}"
            )
        self._path = Path(path) if path is not None else None
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=4, base_delay_s=0.01, max_delay_s=0.25
        )
        self.lease_timeout_s = lease_timeout_s
        self._obs = obs
        self._lock = threading.RLock()
        self._jobs: Dict[str, TuneJob] = {}
        #: attempts re-queued after a reported failure.
        self.retries = 0
        #: leases that expired without a report (worker presumed dead).
        self.lease_expirations = 0

    # -- persistence ----------------------------------------------------------

    @property
    def path(self) -> Optional[Path]:
        return self._path

    def _persist(self) -> None:
        if self._path is None:
            return
        doc = {
            "schema": QUEUE_SCHEMA,
            "version": QUEUE_VERSION,
            "jobs": [
                self._jobs[job_id].to_dict()
                for job_id in sorted(self._jobs)
            ],
        }
        atomic_write_text(
            self._path, json.dumps(doc, indent=1, sort_keys=True) + "\n"
        )

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        *,
        retry_policy: Optional[RetryPolicy] = None,
        lease_timeout_s: float = 60.0,
        obs=None,
    ) -> "JobQueue":
        """Resume a queue from its file (crashed-coordinator restart).

        Leased jobs are loaded as-is; their leases date from the dead
        coordinator's clock, so callers typically follow up with
        :meth:`expire_leases` to requeue them.
        """
        queue = cls(
            path,
            retry_policy=retry_policy,
            lease_timeout_s=lease_timeout_s,
            obs=obs,
        )
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ReproError(f"cannot read job queue {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"job queue {path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict) or data.get("schema") != QUEUE_SCHEMA:
            raise ReproError(
                f"{path} is not a tune-queue file "
                f"(expected schema {QUEUE_SCHEMA!r})"
            )
        if data.get("version") != QUEUE_VERSION:
            raise ReproError(
                f"unsupported tune-queue version {data.get('version')!r} "
                f"(this build reads {QUEUE_VERSION})"
            )
        for record in data.get("jobs", ()):
            job = TuneJob.from_dict(record)
            queue._jobs[job.job_id] = job
        return queue

    # -- enqueue --------------------------------------------------------------

    def add(self, job: TuneJob) -> bool:
        """Enqueue a job; returns False if its id is already present."""
        with self._lock:
            if job.job_id in self._jobs:
                return False
            self._jobs[job.job_id] = job
            self._persist()
            self._gauge_depth()
            return True

    def add_all(self, jobs: List[TuneJob]) -> int:
        """Enqueue many jobs in one persist; returns how many were new."""
        with self._lock:
            added = 0
            for job in jobs:
                if job.job_id not in self._jobs:
                    self._jobs[job.job_id] = job
                    added += 1
            if added:
                self._persist()
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
        with self._lock:
            expired: List[str] = []
            for job_id in sorted(self._jobs):
                job = self._jobs[job_id]
                if job.state == LEASED and now >= job.lease_deadline_s:
                    expired.append(job_id)
                    self.lease_expirations += 1
                    self._fail_locked(
                        job, f"lease expired (worker {job.worker!r})", now
                    )
            if expired:
                self._persist()
                self._gauge_depth()
            return expired

    def claim(self, worker: str, now: float) -> Optional[TuneJob]:
        """Lease the highest-priority claimable job to ``worker``.

        Claimable = pending with its backoff gate open
        (``not_before_s <= now``).  Ordering is ``(priority, job_id)``,
        so hot keys drain first and ties break deterministically.
        Returns None when nothing is claimable right now.
        """
        with self._lock:
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
            self._persist()
            return leased

    def complete(self, job_id: str, sha256: str, now: float) -> TuneJob:
        """Mark a leased job done (its store object is ``sha256``)."""
        with self._lock:
            job = self._require(job_id)
            if job.state != LEASED:
                raise ReproError(
                    f"cannot complete job {job_id!r} in state {job.state!r}"
                )
            done = replace(
                job, state=DONE, sha256=sha256, lease_deadline_s=0.0
            )
            self._jobs[job_id] = done
            self._persist()
            self._gauge_depth()
            return done

    def fail(self, job_id: str, reason: str, now: float) -> TuneJob:
        """Record a failed attempt; requeue with backoff or poison."""
        with self._lock:
            job = self._require(job_id)
            if job.state not in (LEASED, PENDING):
                raise ReproError(
                    f"cannot fail job {job_id!r} in state {job.state!r}"
                )
            failed = self._fail_locked(job, reason, now)
            self._persist()
            self._gauge_depth()
            return failed

    def _fail_locked(self, job: TuneJob, reason: str, now: float) -> TuneJob:
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
        with self._lock:
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
        with self._lock:
            gates = [
                max(job.not_before_s, now)
                for job in self._jobs.values()
                if job.state == PENDING
            ]
            return min(gates) if gates else None

    def jobs(self, state: Optional[str] = None) -> List[TuneJob]:
        """Snapshot of jobs (optionally one state), sorted by id."""
        with self._lock:
            selected = [
                job for job in self._jobs.values()
                if state is None or job.state == state
            ]
            return sorted(selected, key=lambda j: j.job_id)

    def __len__(self) -> int:
        with self._lock:
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
    "MODES",
    "PENDING",
    "POISONED",
    "QUEUE_SCHEMA",
    "QUEUE_VERSION",
    "TuneJob",
]

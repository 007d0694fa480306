"""TuneFleet: fan plan compilation across a crash-tolerant worker pool.

The coordinator owns the :class:`~repro.tuning.queue.JobQueue` and the
:class:`~repro.store.plan_store.PlanStore` manifest; workers are
process-pool tasks that compile one plan each and write only
content-addressed object files (idempotent, atomic).  The division of
labor is what makes crashes cheap:

* a worker that dies mid-write leaves at worst a ``*.tmp`` corpse — the
  coordinator sees the failure, the queue requeues with backoff, and a
  later attempt writes the same content-addressed object;
* a worker whose write lands corrupted is caught at **ingest**: the
  coordinator re-hashes the object before touching the manifest, and a
  mismatch quarantines the bytes and retries the job;
* a worker that hangs is bounded by the queue's lease deadline;
* a coordinator that dies loses only its in-memory queue: the store is
  the only durable record, and a re-run over it (:func:`run_fleet`)
  compiles just the keys the store lacks.

Failures are injected deterministically through the
:class:`~repro.faults.FaultInjector` keyed draws — the outcome of
(job, attempt) depends only on the seed, never on scheduling order —
which is why two same-seed runs of ``repro tune-fleet`` end with
byte-identical store manifests (the CI determinism gate).
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..compile.pipeline import compile_key
from ..core.plan_cache import PlanKey
from ..errors import ReproError
from ..faults.injector import FaultInjector
from ..faults.resilience import RetryPolicy
from ..faults.scenario import FaultScenario
from ..fsutil import atomic_write_text, sha256_text
from ..hardware.variants import spec_by_name
from ..store.plan_store import PlanStore
from .queue import DONE, JobQueue, POISONED, TuneJob

_LOG = logging.getLogger(__name__)

#: Quiet scenario for fault-free fleet runs.
_QUIET = FaultScenario(name="quiet-fleet", description="no injected faults")


class WorkerCrashError(ReproError):
    """A (simulated) worker process death mid-write.

    Raised *after* the torn tmp file is on disk, so the coordinator-side
    recovery path sees exactly what a killed process leaves behind.
    Module-level so it pickles across the process-pool boundary.
    """


def _run_worker_job(
    store_root: str,
    key_data: Dict[str, object],
    attempt: int,
    scenario_data: Optional[Dict[str, object]],
    seed: int,
) -> str:
    """Process-pool entry point: compile one job, write its object.

    Returns the object's sha256 for the coordinator to verify and
    register.  Module-level (picklable) and manifest-free: workers only
    ever touch ``objects/`` — the coordinator owns the manifest.
    """
    key = PlanKey.from_dict(key_data)
    job_id = key.slug()
    injector: Optional[FaultInjector] = None
    if scenario_data is not None:
        injector = FaultInjector(
            FaultScenario.from_dict(scenario_data), seed=seed
        )
    artifact = compile_key(key, spec_by_name(key.device)).artifact
    text = PlanStore.artifact_text(artifact)
    sha = sha256_text(text)
    store = PlanStore(store_root, check_fingerprints=False)
    path = store.object_path(sha)
    if injector is not None and injector.worker_crashes(
        job_id=job_id, attempt=attempt
    ):
        # Die "mid-write": the torn half of the payload is left as the
        # tmp sibling a killed atomic_write_text would leave, then the
        # worker vanishes without reporting a result.
        path.parent.mkdir(parents=True, exist_ok=True)
        torn = path.with_name(path.name + ".tmp")
        # Chaos injection: the torn write IS the point here.
        torn.write_text(text[: max(1, len(text) // 2)])  # repro-analysis: ignore[REPRO230]
        raise WorkerCrashError(
            f"worker crashed mid-write of {job_id} (attempt {attempt})"
        )
    if injector is not None and injector.artifact_corrupt_keyed(
        job_id=job_id, attempt=attempt
    ):
        # The write completes but the payload is damaged: the file sits
        # at the address of the *intended* content, so only the
        # coordinator's ingest-time re-hash can catch it.
        corrupted = text[: max(1, len(text) // 2)] + '"}garbage'
        atomic_write_text(path, corrupted)
        return sha
    if not path.exists():
        atomic_write_text(path, text)
    return sha


@dataclass
class FleetReport:
    """What one ``tune-fleet`` run did (JSON-serializable)."""

    planned: int = 0
    completed: int = 0
    poisoned: int = 0
    attempts: int = 0
    retries: int = 0
    lease_expirations: int = 0
    worker_crashes: int = 0
    corrupt_ingests: int = 0
    quarantined: int = 0
    workers: int = 0
    seed: int = 0
    scenario: str = ""
    wall_s: float = 0.0
    manifest_digest: str = ""
    store_root: str = ""
    poisoned_jobs: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "planned": self.planned,
            "completed": self.completed,
            "poisoned": self.poisoned,
            "attempts": self.attempts,
            "retries": self.retries,
            "lease_expirations": self.lease_expirations,
            "worker_crashes": self.worker_crashes,
            "corrupt_ingests": self.corrupt_ingests,
            "quarantined": self.quarantined,
            "workers": self.workers,
            "seed": self.seed,
            "scenario": self.scenario,
            "wall_s": self.wall_s,
            "manifest_digest": self.manifest_digest,
            "store_root": self.store_root,
            "poisoned_jobs": self.poisoned_jobs,
        }

    def describe(self) -> str:
        lines = [
            f"tune-fleet: {self.completed}/{self.planned} plans compiled "
            f"across {self.workers} workers in {self.wall_s:.2f}s",
            f"  attempts  : {self.attempts} "
            f"({self.retries} retries, "
            f"{self.lease_expirations} expired leases)",
            f"  faults    : {self.worker_crashes} worker crashes, "
            f"{self.corrupt_ingests} corrupt ingests "
            f"({self.quarantined} quarantined)",
            f"  manifest  : {self.manifest_digest}",
        ]
        if self.poisoned:
            lines.append(f"  poisoned  : {self.poisoned} jobs")
            for job in self.poisoned_jobs:
                lines.append(
                    f"    {job['job_id']}: {job['failures']}"
                )
        return "\n".join(lines)


class TuneFleet:
    """Coordinator: drain a job queue through a process pool into a store."""

    def __init__(
        self,
        store: PlanStore,
        queue: JobQueue,
        *,
        workers: int = 4,
        seed: int = 0,
        scenario: Optional[FaultScenario] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.queue = queue
        self.workers = workers
        self.seed = seed
        self.scenario = scenario if scenario is not None else _QUIET
        self._progress = progress or (lambda message: None)

    def run(self) -> FleetReport:
        """Drain the queue; returns the run report.

        Never raises on job failures — crashes, corruption, and poison
        jobs are the expected weather; the report carries the tallies.
        """
        report = FleetReport(
            planned=len(self.queue),
            workers=self.workers,
            seed=self.seed,
            scenario=self.scenario.name,
            store_root=str(self.store.root),
        )
        scenario_data = (
            None if self.scenario.is_quiet else self.scenario.to_dict()
        )
        started = time.monotonic()
        quarantined_at_start = self.store.quarantined
        in_flight: Dict[Future, TuneJob] = {}
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            while True:
                now = time.monotonic() - started
                self.queue.expire_leases(now)
                # Fill every free pool slot with the hottest ready job.
                while len(in_flight) < self.workers:
                    job = self.queue.claim(
                        f"worker-{len(in_flight)}", now
                    )
                    if job is None:
                        break
                    report.attempts += 1
                    future = pool.submit(
                        _run_worker_job,
                        str(self.store.root),
                        job.key.to_dict(),
                        job.attempts,
                        scenario_data,
                        self.seed,
                    )
                    in_flight[future] = job
                if not in_flight:
                    ready_at = self.queue.next_ready_at(now)
                    if ready_at is None:
                        break  # nothing pending or leased: drained
                    # Sleep exactly through the backoff gap.
                    time.sleep(max(0.0, ready_at - now))
                    continue
                done, _ = wait(
                    in_flight, timeout=1.0, return_when=FIRST_COMPLETED
                )
                now = time.monotonic() - started
                for future in done:
                    job = in_flight.pop(future)
                    self._settle(future, job, now, report)
        # Collect torn-write corpses crashes left behind.
        self.store.sweep_tmp()
        counts = self.queue.counts()
        report.completed = counts[DONE]
        report.poisoned = counts[POISONED]
        report.retries = self.queue.retries
        report.lease_expirations = self.queue.lease_expirations
        report.quarantined = self.store.quarantined - quarantined_at_start
        report.wall_s = time.monotonic() - started
        report.manifest_digest = self.store.digest()
        report.poisoned_jobs = [
            {"job_id": job.job_id, "failures": list(job.failures)}
            for job in self.queue.jobs(POISONED)
        ]
        return report

    def _settle(
        self,
        future: Future,
        job: TuneJob,
        now: float,
        report: FleetReport,
    ) -> None:
        """Apply one finished worker future to the queue + store."""
        try:
            sha = future.result()
        except WorkerCrashError as exc:
            report.worker_crashes += 1
            self._progress(
                f"worker crash on {job.job_id} "
                f"(attempt {job.attempts}): retrying"
            )
            self.queue.fail(job.job_id, f"worker_crash: {exc}", now)
            return
        except Exception as exc:  # noqa: BLE001 - worker errors must not kill the fleet
            self._progress(f"{job.job_id} failed: {exc}")
            self.queue.fail(job.job_id, f"{type(exc).__name__}: {exc}", now)
            return
        try:
            self.store.register(job.key, sha)
        except ReproError as exc:
            # Ingest-time integrity failure: the object was quarantined
            # by the store; consume an attempt and retry the job.
            report.corrupt_ingests += 1
            self._progress(
                f"corrupt object for {job.job_id} quarantined: retrying"
            )
            self.queue.fail(job.job_id, f"corrupt_ingest: {exc}", now)
            return
        self.queue.complete(job.job_id, sha, now)


def run_fleet(
    store_root: Union[str, Path],
    jobs: List[TuneJob],
    *,
    workers: int = 4,
    seed: int = 0,
    scenario: Optional[FaultScenario] = None,
    retry_policy: Optional[RetryPolicy] = None,
    lease_timeout_s: float = 60.0,
    obs=None,
    progress: Optional[Callable[[str], None]] = None,
) -> FleetReport:
    """One-call fleet run: build the store + queue, drain the jobs.

    The store is the run's only durable record, so a re-run over the
    same store resumes a killed or failed one: it enqueues only the
    keys the store lacks, and a worker whose object a dead run already
    wrote hands it back for the coordinator to re-hash and register.
    """
    store = PlanStore(store_root, obs=obs)
    policy = retry_policy or RetryPolicy(
        max_attempts=4, base_delay_s=0.01, max_delay_s=0.25, seed=seed
    )
    queue = JobQueue(
        retry_policy=policy,
        lease_timeout_s=lease_timeout_s,
        obs=obs,
    )
    # Skip keys the store already holds: a warm re-run is a no-op.
    fresh = [job for job in jobs if not store.contains(job.key)]
    skipped = len(jobs) - len(fresh)
    if skipped and progress is not None:
        progress(f"{skipped} plans already in the store; skipping")
    queue.add_all(fresh)
    fleet = TuneFleet(
        store,
        queue,
        workers=workers,
        seed=seed,
        scenario=scenario,
        progress=progress,
    )
    report = fleet.run()
    report.planned = len(jobs)
    report.completed += skipped
    return report


__all__ = ["FleetReport", "TuneFleet", "WorkerCrashError", "run_fleet"]

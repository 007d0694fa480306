"""Fixture: deliberately broken JobQueue variants for REPRO240.

Each subclass re-introduces one lease-protocol bug the model checker
must catch when injected via the ``REPRO_ANALYSIS_QUEUE_CLASS`` seam
(``buggy_queue:DoubleGrantQueue`` etc., with this directory on
``PYTHONPATH``).
"""

from dataclasses import replace

from repro.tuning.queue import LEASED, PENDING, JobQueue


class DoubleGrantQueue(JobQueue):
    """claim() ignores the LEASED state: hands one job to two workers."""

    def claim(self, worker, now):
        best = None
        for job in self._jobs.values():
            if job.state not in (PENDING, LEASED):
                continue
            if job.worker == worker:
                continue
            if best is None or job.job_id < best.job_id:
                best = job
        if best is None:
            return None
        leased = replace(
            best, state=LEASED, worker=worker,
            lease_deadline_s=now + self.lease_timeout_s,
        )
        self._jobs[leased.job_id] = leased
        return leased


class ForgetfulFailQueue(JobQueue):
    """fail() requeues without counting the attempt: jobs retry forever
    and the poison path never triggers (breaks retry monotonicity's
    exact-increment contract)."""

    def _record_failure(self, job, reason, now):
        updated = replace(
            job, state=PENDING, lease_deadline_s=0.0, worker="",
            not_before_s=0.0,
        )
        self._jobs[job.job_id] = updated
        return updated


class ReorderQueue(JobQueue):
    """complete() releases the lease but forgets to record DONE: the
    job drops back to PENDING, so finished work re-runs (lost
    completion / lease-release reorder)."""

    def complete(self, job_id, sha256, now):
        job = self._require(job_id)
        undone = replace(
            job, state=PENDING, worker="", lease_deadline_s=0.0
        )
        self._jobs[job_id] = undone
        return undone

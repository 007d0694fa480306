"""JobQueue: lease protocol, retries, poison, introspection.

Everything runs against an explicit clock (``now`` parameters) — no
wall time — so lease expiry and backoff windows are exact.
"""

import pytest

from repro.core.plan_cache import PlanKey
from repro.errors import ReproError
from repro.faults.resilience import RetryPolicy
from repro.tuning import (
    DONE,
    JobQueue,
    LEASED,
    PENDING,
    POISONED,
    TuneJob,
)


def make_key(network="lenet", batch_size=1):
    return PlanKey(
        network=network, device="jetson-agx-xavier",
        batch_size=batch_size, precision="fp32",
        use_memory_management=True, use_hybrid_execution=True,
        use_inter_kernel=True, use_intra_kernel=True,
        objective="latency",
    )


def make_job(network="lenet", batch_size=1, priority=1):
    return TuneJob(key=make_key(network, batch_size), priority=priority)


SHA = "0" * 64


@pytest.fixture
def queue():
    return JobQueue(
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.25
        ),
        lease_timeout_s=10.0,
    )


class TestClaimOrdering:
    def test_priority_then_job_id(self, queue):
        low = make_job("squeezenet", priority=1)
        hot = make_job("alexnet", priority=0)
        queue.add_all([low, hot])
        first = queue.claim("w0", now=0.0)
        assert first.job_id == hot.job_id
        second = queue.claim("w1", now=0.0)
        assert second.job_id == low.job_id
        assert queue.claim("w2", now=0.0) is None

    def test_claim_sets_lease(self, queue):
        queue.add(make_job())
        job = queue.claim("w0", now=5.0)
        assert job.state == LEASED
        assert job.worker == "w0"
        assert job.lease_deadline_s == 15.0

    def test_backoff_defers_claim(self, queue):
        queue.add(make_job())
        job = queue.claim("w0", now=0.0)
        queue.fail(job.job_id, "boom", now=1.0)
        (pending,) = queue.jobs(PENDING)
        assert pending.not_before_s > 1.0
        assert queue.claim("w0", now=1.0) is None
        assert queue.next_ready_at(1.0) == pending.not_before_s
        assert queue.claim("w0", now=pending.not_before_s) is not None


class TestLeaseExpiry:
    def test_expired_lease_requeues_and_counts_attempt(self, queue):
        queue.add(make_job())
        job = queue.claim("w0", now=0.0)
        assert queue.expire_leases(now=9.9) == []
        expired = queue.expire_leases(now=10.1)
        assert expired == [job.job_id]
        assert queue.lease_expirations == 1
        (requeued,) = queue.jobs(PENDING)
        assert requeued.attempts == 1
        assert "lease expired" in requeued.failures[-1]

    def test_completion_beats_expiry(self, queue):
        queue.add(make_job())
        job = queue.claim("w0", now=0.0)
        queue.complete(job.job_id, SHA, now=3.0)
        assert queue.expire_leases(now=100.0) == []
        (done,) = queue.jobs(DONE)
        assert done.sha256 == SHA


class TestRetriesAndPoison:
    def test_poison_after_max_attempts(self, queue):
        queue.add(make_job())
        for i in range(3):
            job = queue.claim("w0", now=float(i * 100))
            assert job is not None, f"attempt {i} should be claimable"
            queue.fail(job.job_id, f"boom {i}", now=float(i * 100) + 1)
        (poisoned,) = queue.jobs(POISONED)
        assert poisoned.attempts == 3
        assert len(poisoned.failures) == 3
        assert queue.claim("w0", now=1e9) is None
        assert queue.outstanding() == 0

    def test_backoff_is_deterministic_per_job(self):
        delays = []
        for _ in range(2):
            queue = JobQueue(
                retry_policy=RetryPolicy(
                    max_attempts=4, base_delay_s=0.01, max_delay_s=0.25
                ),
            )
            queue.add(make_job())
            job = queue.claim("w0", now=0.0)
            queue.fail(job.job_id, "boom", now=0.0)
            (pending,) = queue.jobs(PENDING)
            delays.append(pending.not_before_s)
        assert delays[0] == delays[1]

    def test_retry_counter(self, queue):
        queue.add(make_job())
        job = queue.claim("w0", now=0.0)
        queue.fail(job.job_id, "boom", now=0.0)
        assert queue.retries == 1

    def test_unknown_job_rejected(self, queue):
        with pytest.raises(ReproError):
            queue.fail("nope", "boom", now=0.0)

    def test_duplicate_add_ignored(self, queue):
        job = make_job()
        assert queue.add(job) is True
        assert queue.add(job) is False
        assert len(queue) == 1


class TestPersistence:
    def test_counts_shape(self, queue):
        queue.add(make_job())
        counts = queue.counts()
        assert counts == {
            PENDING: 1, LEASED: 0, DONE: 0, POISONED: 0,
        }

"""Deadlines, timeout abandonment, and the goodput/throughput split."""

import math

import pytest

from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import (
    BatchServiceTime,
    ServingConfig,
    ServingSimulator,
    TenantSpec,
)
from repro.sim.engine import PENDING, TIMED_OUT, IndexQueue, RequestTable
from repro.sim.engine.queue import EPS
from repro.workloads.arrivals import UniformArrivals


class FixedServiceModel:
    """Batch of size b costs ``base + incr * (b - 1)`` seconds."""

    def __init__(self, base_s=0.010, incr_s=0.002, cold_factor=3.0):
        self.base_s = base_s
        self.incr_s = incr_s
        self.cold_factor = cold_factor

    def _time(self, batch):
        return self.base_s + self.incr_s * (batch - 1)

    def warm(self, network, batch):
        t = self._time(batch)
        return BatchServiceTime(total_s=t, cpu_busy_s=0.2 * t,
                                gpu_busy_s=0.9 * t)

    def cold(self, network, batch):
        t = self._time(batch) * self.cold_factor
        return BatchServiceTime(total_s=t, cpu_busy_s=0.2 * t,
                                gpu_busy_s=0.9 * t)


def run_sim(tenants, policy=None, config=None, model=None):
    cfg = config or ServingConfig(policy=policy or BatchPolicy())
    sim = ServingSimulator(
        JETSON_AGX_XAVIER, tenants, cfg,
        service_model=model or FixedServiceModel(),
    )
    return sim.run()


def uniform_tenant(rate, duration, **kwargs):
    return TenantSpec(network="lenet",
                      arrival=UniformArrivals(rate, duration), **kwargs)


def make_queue(policy):
    return IndexQueue("t", policy, RequestTable())


def offer(queue, arrival_s):
    """Offer a request arriving at ``arrival_s``; returns its row."""
    idx = queue.table.append(arrival_s, 0)
    assert queue.offer(idx, arrival_s)
    return idx


class TestQueueDeadlines:
    def test_offer_stamps_absolute_deadline(self):
        queue = make_queue(BatchPolicy(deadline_s=0.5))
        idx = offer(queue, 1.25)
        assert queue.table.deadline_s[idx] == pytest.approx(1.75)

    def test_no_policy_deadline_means_none(self):
        queue = make_queue(BatchPolicy())
        idx = offer(queue, 0.0)
        assert math.isnan(queue.table.deadline_s[idx])
        assert queue.expire(1e9) == 0
        assert queue.table.status[idx] == PENDING

    def test_expire_pops_only_expired_fifo_prefix(self):
        queue = make_queue(BatchPolicy(deadline_s=1.0))
        for i in range(3):
            offer(queue, float(i))
        # only request 0 (deadline 1.0) is past
        assert queue.expire(1.5) == 1
        table = queue.table
        assert table.status[:3].tolist() == [TIMED_OUT, PENDING, PENDING]
        assert table.finish_s[0] == pytest.approx(1.5)
        assert queue.timed_out == 1
        assert len(queue) == 2

    def test_expiry_boundary_uses_eps(self):
        queue = make_queue(BatchPolicy(deadline_s=1.0))
        offer(queue, 0.0)
        # At exactly the deadline the request is still viable.
        assert queue.expire(1.0) == 0
        assert queue.expire(1.0 + EPS) == 0
        assert queue.expire(1.0 + 1e-9) == 1

    def test_policy_validates_deadline(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="deadline_s"):
            BatchPolicy(deadline_s=0.0)


class TestServingDeadlines:
    def test_overload_times_out_instead_of_queueing_forever(self):
        # Capacity is 100 rps (10 ms serial batches of 1); offering
        # 500 rps with a 30 ms budget must abandon most requests.
        report = run_sim(
            [uniform_tenant(500, 0.5)],
            policy=BatchPolicy(
                max_batch_size=1, max_wait_s=0.0,
                max_queue_depth=1024, deadline_s=0.03,
            ),
        )
        assert report.timed_out > 0
        assert report.served + report.shed + report.timed_out \
            + report.failed + report.rejected == report.offered
        # Served requests all met the budget.
        assert report.latency.max_s <= 0.03 + 1e-9
        assert report.goodput_rps < report.throughput_rps or \
            report.late == 0

    def test_late_completion_counts_as_timed_out(self):
        # Service takes 10 ms but the budget is 5 ms: every dispatched
        # request completes late and is counted timed_out + late.
        report = run_sim(
            [uniform_tenant(10, 0.5)],
            policy=BatchPolicy(
                max_batch_size=1, max_wait_s=0.0, deadline_s=0.005,
            ),
        )
        assert report.served == 0
        assert report.timed_out == report.offered
        assert report.late == report.timed_out
        assert report.goodput_rps == 0.0
        assert report.throughput_rps > 0.0

    def test_abandoned_latency_tracks_time_in_system(self):
        report = run_sim(
            [uniform_tenant(500, 0.5)],
            policy=BatchPolicy(
                max_batch_size=1, max_wait_s=0.0,
                max_queue_depth=1024, deadline_s=0.03,
            ),
        )
        assert report.abandoned_latency.count == report.timed_out
        # Abandonment happens at/after the deadline.
        assert report.abandoned_latency.mean_s >= 0.03 - 1e-9

    def test_no_deadline_preserves_seed_behaviour(self):
        report = run_sim(
            [uniform_tenant(50, 1.0)],
            policy=BatchPolicy(max_batch_size=4),
        )
        assert report.timed_out == 0
        assert report.late == 0
        assert report.rejected == 0
        assert report.failed == 0
        assert report.served + report.shed == report.offered
        assert report.goodput_rps == pytest.approx(report.throughput_rps)

    def test_goodput_excludes_late_responses(self):
        report = run_sim(
            [uniform_tenant(500, 0.5)],
            policy=BatchPolicy(
                max_batch_size=1, max_wait_s=0.0,
                max_queue_depth=1024, deadline_s=0.03,
            ),
        )
        assert report.goodput_rps == pytest.approx(
            report.served / report.makespan_s
        )
        assert report.throughput_rps == pytest.approx(
            (report.served + report.late) / report.makespan_s
        )

    def test_per_tenant_timeout_accounting(self):
        report = run_sim(
            [
                uniform_tenant(300, 0.5, name="tight",
                               policy=BatchPolicy(
                                   max_batch_size=1, max_wait_s=0.0,
                                   max_queue_depth=1024, deadline_s=0.02,
                               )),
                uniform_tenant(5, 0.5, name="loose",
                               policy=BatchPolicy(
                                   max_batch_size=1, max_wait_s=0.0,
                               )),
            ],
            policy=BatchPolicy(max_batch_size=1, max_wait_s=0.0),
        )
        by_name = {t.name: t for t in report.tenants}
        assert by_name["tight"].timed_out > 0
        assert by_name["loose"].timed_out == 0
        assert report.timed_out == by_name["tight"].timed_out

    def test_report_digest_is_deterministic(self):
        policy = BatchPolicy(
            max_batch_size=2, max_wait_s=0.001, deadline_s=0.05
        )
        a = run_sim([uniform_tenant(200, 0.5)], policy=policy)
        b = run_sim([uniform_tenant(200, 0.5)], policy=policy)
        assert a.digest() == b.digest()

"""Differential check: both simulators apply one deadline rule.

A one-replica, one-tenant cluster with ``max_wait_s=0`` and a
:class:`ServingSimulator` with the same arrivals, policy and fixed
service time must give every request the same outcome.  The inputs sit
within about 1e-12 s of a deadline, where ``now - arrival > deadline +
EPS`` and ``now > (arrival + deadline) + EPS`` round differently; both
simulators must use the second form, the one
:class:`~repro.sim.engine.queue.IndexQueue` applies.
"""

from typing import List

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, ClusterTenant, DeviceMix
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import (
    BatchServiceTime,
    ServingConfig,
    ServingSimulator,
    TenantSpec,
)
from repro.workloads.arrivals import ArrivalProcess

DEADLINE_S = 0.25


class FixedArrivals(ArrivalProcess):
    """Open-loop arrivals at prescribed instants."""

    def __init__(self, times: List[float], duration_s: float) -> None:
        self.times = list(times)
        self.duration_s = duration_s

    def initial_arrivals(self) -> List[float]:
        return list(self.times)


class FixedService:
    """Every batch takes exactly ``total_s`` seconds."""

    def __init__(self, total_s: float) -> None:
        self.total_s = total_s

    def service(self, network, batch, **kwargs):
        return BatchServiceTime(
            total_s=self.total_s, cpu_busy_s=0.0, gpu_busy_s=self.total_s,
        )

    def warm(self, network, batch):
        return self.service(network, batch)

    def cold(self, network, batch):
        return self.service(network, batch)


POLICY = BatchPolicy(max_batch_size=1, max_wait_s=0.0, deadline_s=DEADLINE_S)


def serving_outcomes(times, service_s):
    arrivals = FixedArrivals(times, duration_s=times[-1] + 1.0)
    report = ServingSimulator(
        JETSON_AGX_XAVIER,
        [TenantSpec("lenet", arrivals)],
        ServingConfig(policy=POLICY),
        service_model=FixedService(service_s),
    ).run()
    return report.served, report.timed_out, report.late


def cluster_outcomes(times, service_s):
    arrivals = FixedArrivals(times, duration_s=times[-1] + 1.0)
    sim = ClusterSimulator(
        [ClusterTenant("lenet", arrivals)],
        DeviceMix.parse("jetson-agx-xavier"),
        1,
        ClusterConfig(router="round_robin", policy=POLICY),
    )
    for pool in sim.fleet.pools:
        for replica in pool.replicas:
            replica.model = FixedService(service_s)
    report = sim.run()
    return report.served, report.timed_out, report.late


# (arrival instants, fixed service time, expected (served, timed_out,
# late)); each case sits where the two deadline expressions disagree.
CASES = {
    # One request completes within 1e-12 s past its deadline: still
    # served under ``now > (arrival + deadline) + EPS``.
    "completion": ([10.566644671935615], 0.2500000000010001, (1, 0, 0)),
    # The first request completes late, and the second reaches
    # dispatch within 1e-12 s past its deadline: still viable, so it is
    # dispatched (and completes late) rather than abandoned in queue.
    "queued": ([0.0, 7.592924851251231], 7.842924851252231, (0, 2, 2)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_both_simulators_give_the_same_outcomes(name):
    times, service_s, expected = CASES[name]
    assert serving_outcomes(times, service_s) == expected
    assert cluster_outcomes(times, service_s) == expected

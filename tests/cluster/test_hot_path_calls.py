"""Call-count guard for the cluster's per-event path.

The fleet loop should work only where state changes.  On the rolling
thermal-soak fleet, the edge-storm fleet with the autoscaler on, and
the end-to-end benchmark's cluster-fleet configuration at half scale,
this counts the calls that would show it working on every event
instead:

* a faulted replica reads its fault windows
  (``FaultInjector.throttle_at`` and ``memory_pressure_at``) at its
  first dispatch and then once per window edge at most;
* a replica without faults looks each batch size up in its
  ``ServiceTimeModel`` once;
* the dispatch routine runs only on a free device with a queue.
"""

from collections import Counter

import pytest

from repro.cluster import ClusterSimulator
from repro.faults import FaultInjector
from repro.sim.engine.queue import EPS

from ..sim.engine_scenarios import cluster_routing, cluster_storm
from .test_memory import fleet


class CountingModel:
    """One replica's view of its shared service model, counting the
    service lookups per batch size."""

    def __init__(self, model) -> None:
        self.model = model
        self.calls = Counter()

    def service(self, network, batch, **kwargs):
        self.calls[batch] += 1
        return self.model.service(network, batch, **kwargs)

    def warm(self, network, batch):
        return self.service(network, batch)


@pytest.fixture
def calls(monkeypatch):
    """Window queries per injector, and one (free, queued) flag per
    dispatch."""
    counts = {"windows": Counter(), "dispatch": []}
    for name in ("throttle_at", "memory_pressure_at"):
        def query(self, now, _query=getattr(FaultInjector, name)):
            counts["windows"][id(self)] += 1
            return _query(self, now)

        monkeypatch.setattr(FaultInjector, name, query)
    dispatch = ClusterSimulator._dispatch

    def counted_dispatch(self, replica, pool, now, heap):
        counts["dispatch"].append(
            (replica.busy_until <= now + EPS, len(replica.queue) > 0)
        )
        return dispatch(self, replica, pool, now, heap)

    monkeypatch.setattr(ClusterSimulator, "_dispatch", counted_dispatch)
    return counts


@pytest.mark.parametrize("build", [cluster_routing, cluster_storm, fleet])
def test_fleet_loop_works_only_on_state_changes(calls, build):
    sim = build()
    nominal = [
        r for pool in sim.fleet.pools for r in pool.replicas
        if r.injector is None
    ]
    for replica in nominal:
        replica.model = CountingModel(replica.model)
    sim.run()
    faulted = [
        r for pool in sim.fleet.pools for r in pool.replicas
        if r.injector is not None
    ]
    assert nominal and faulted

    # Every dispatch found its device free and its queue non-empty.
    assert calls["dispatch"]
    assert all(free and queued for free, queued in calls["dispatch"])
    # Each faulted replica read its windows at most once per edge, plus
    # its first dispatch (two queries per read).
    windows = calls["windows"]
    for replica in faulted:
        edges = len(replica.faults.window_edges)
        assert windows[id(replica.injector)] <= 2 * (edges + 1)
    assert sum(windows.values()) < sum(r.batches for r in faulted)
    # Each nominal replica looked each batch size up once.
    for replica in nominal:
        assert max(replica.model.calls.values(), default=0) <= 1
    assert sum(r.batches for r in nominal) > sum(
        len(r.model.calls) for r in nominal
    )

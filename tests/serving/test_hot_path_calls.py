"""Call-count guard for serving's per-event path.

The scalar path should work only when state changes.  On two storm
runs, one of them closed loop, and on the benchmark's serve-mixed
configuration (3 s horizon), this counts the calls that would show it
working on every event instead:

* the fault windows are read by ``note_windows`` at window edges only,
  so ``FaultScenario.thermal_at`` and ``memory_pressure_at`` run from
  nowhere else, at most once per edge plus the first event;
* ``IndexQueue.expire`` compares the instant with its cached head key
  first, so it reaches ``np.searchsorted`` only when it removes a row.

Every row, open or closed loop, draws its payload flag once, through
``FaultInjector.payload_corrupt`` at its arrival.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultScenario
from repro.faults import load_scenario, scale_to_horizon
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.obs.timeline import SloObjective
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import ServingConfig, ServingSimulator, TenantSpec
from repro.sim.engine import IndexQueue
from repro.sim.engine import queue as queue_module
from repro.workloads import DiurnalPoissonArrivals, PoissonArrivals

from ..sim.engine_scenarios import (
    run_hermetic,
    serving_closed_loop_faults,
    serving_storm_obs,
)


def serve_mixed(horizon: float = 3.0, seed: int = 7) -> ServingSimulator:
    """The end-to-end benchmark's serve-mixed configuration: three
    open-loop tenants near the knee under edge-storm, with the timeline
    and one SLO on."""
    tenants = [
        TenantSpec(
            "lenet",
            DiurnalPoissonArrivals(
                600.0, horizon, period_s=horizon / 3, amplitude=0.5,
                seed=seed,
            ),
            weight=3.0,
        ),
        TenantSpec("fcnn", PoissonArrivals(8.0, horizon, seed=seed + 1)),
        TenantSpec("squeezenet", PoissonArrivals(0.5, horizon, seed=seed + 2)),
    ]
    config = ServingConfig(
        policy=BatchPolicy(
            max_batch_size=8, max_wait_s=0.002, max_queue_depth=256,
            deadline_s=0.5,
        ),
        seed=seed,
        faults=scale_to_horizon(load_scenario("edge-storm"), horizon),
        resilience=True,
        timeline_window_s=1.0,
        slos=(SloObjective.parse("goodput_ratio>=0.9"),),
    )
    return ServingSimulator(JETSON_AGX_XAVIER, tenants, config)


class _CountingNumpy:
    """The queue module's ``np``, counting ``searchsorted`` calls."""

    def __init__(self, counts: Counter) -> None:
        self.counts = counts

    def __getattr__(self, name):
        return getattr(np, name)

    def searchsorted(self, *args, **kwargs):
        self.counts["searchsorted"] += 1
        return np.searchsorted(*args, **kwargs)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the guarded calls: ``payload_corrupt``,
    ``searchsorted``, ``expire_removing`` (expire calls that removed a
    row) and, per window query, a Counter of its calling functions."""
    counts = Counter()
    payload_corrupt = FaultInjector.payload_corrupt

    def counted_payload_corrupt(self, *args, **kwargs):
        counts["payload_corrupt"] += 1
        return payload_corrupt(self, *args, **kwargs)

    monkeypatch.setattr(
        FaultInjector, "payload_corrupt", counted_payload_corrupt
    )
    for name in ("thermal_at", "memory_pressure_at"):
        callers = counts[name] = Counter()

        def query(
            self, now, _callers=callers, _query=getattr(FaultScenario, name)
        ):
            _callers[sys._getframe(1).f_code.co_name] += 1
            return _query(self, now)

        monkeypatch.setattr(FaultScenario, name, query)
    monkeypatch.setattr(queue_module, "np", _CountingNumpy(counts))
    expire = IndexQueue.expire

    def counted_expire(self, now):
        removed = expire(self, now)
        counts["expire_removing"] += removed > 0
        return removed

    monkeypatch.setattr(IndexQueue, "expire", counted_expire)
    return counts


@pytest.mark.parametrize(
    "build", [serving_storm_obs, serve_mixed, serving_closed_loop_faults]
)
def test_scalar_path_works_only_on_state_changes(calls, build):
    sim, report = run_hermetic(build)
    assert report.rejected > 0
    assert calls["payload_corrupt"] == len(sim.table)
    # Window queries ran at window edges, from note_windows only.
    edges = len(sim._config.faults.window_edges)
    for name in ("thermal_at", "memory_pressure_at"):
        assert set(calls[name]) == {"note_windows"}
        assert 1 <= calls[name]["note_windows"] <= edges + 1
    # Every searchsorted in IndexQueue.expire removed a row.
    assert calls["searchsorted"] == calls["expire_removing"]

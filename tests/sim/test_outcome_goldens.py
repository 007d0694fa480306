"""Goldens for what the report digest does not cover: request outcomes.

The serving loop records each request's outcome in one place, the
request table; the report's counts and the per-request Prometheus
series are derived from it after the run.  These goldens pin, for
every serving scenario:

* the request table itself, column by column;
* the timeline derived from it, where the scenario records one (the
  storm runs are the only timelines that reach shed, rejected,
  fail-fast, abandoned and late requests);
* with observability on, every metric value per (family, label set),
  the span forest and the provenance log;
* the Prometheus text of ``serving_obs``, byte for byte;
* with observability on, the merged Chrome trace: the kernel trace plus
  one lifecycle track per request.

Metric series are compared sorted by label set: the order of label sets
within a family is not part of the contract, their values are.

The cluster rebuilds its per-request rows from a dispatch log after the
run.  Its parity scenarios serve every request, so one storm run pins
the rebuild's shed, abandoned, late and failed paths: its report and
timeline digests and each replica's served, failed and batch counts,
and, run again with observability on, its batch trace.

Alongside the goldens, two oracles that need no golden at all: the
outcome counts of every report add up from the table, and Little's law
holds on every run's sample path.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.obs import Observability
from repro.obs.export import chrome_trace, metrics_to_dict, prometheus_text
from repro.sim.engine import (
    FAILED,
    REJECTED,
    SERVED,
    SHED,
    TIMED_OUT,
)

from .engine_scenarios import SERVING_BUILDERS, cluster_storm, run_hermetic

#: columns of the request table, in digest order.
COLUMNS = (
    "arrival_s", "finish_s", "dispatch_s", "deadline_s",
    "status", "tenant", "batch_size", "corrupt",
)

#: scenario -> sha256 over every table column's used rows.
TABLE_GOLDENS = {
    "serving_closed_loop": (
        "ace38a0543708906d8ae56a3b9a12101c1eb3e2116ce54182cb95cf052f1a083"
    ),
    "serving_cold_start": (
        "59bad26bfda5ecfd545521d3c197441eab17188d392691838353d78cd1a83be8"
    ),
    "serving_deadline": (
        "8f8fe19727172e0119a389791042801f7b7a1d44e5cbc549062d8c13a10c02e4"
    ),
    "serving_faults": (
        "1a52a89fd9b4b6fc2bc1c7da622fea48107a59348281b0343b21d687dc1f745a"
    ),
    "serving_faults_naive": (
        "878af47c8d1bdc3daeabe43adfd40affce02e19547788b2143b179836fd976f4"
    ),
    "serving_knee": (
        "208b37bd006468ae53143724053c0a8ecd8826f82c999229b0da799a3934d8ea"
    ),
    "serving_multitenant": (
        "1613f4555f9036f6e979edcf266efc646bcba9de16b076885cff01ac671c7a08"
    ),
    "serving_obs": (
        "d9fcf62592365beb2ac593392fa9466792181bcef369c0e79927279c4f886054"
    ),
    "serving_storm_obs": (
        "3981fbfcbaa0d8a09741aa473f53523e46709a43a2aab61a15371397a6d6f57b"
    ),
    "serving_storm_obs_naive": (
        "c6cb129dac8ee03c1c8d30897f7e6fb3eb2c27bf7575492fe9c70e9803af4081"
    ),
}

#: scenario -> timeline digest (absent: the scenario records none).
TIMELINE_GOLDENS = {
    "serving_deadline": (
        "ea0788ee6f931effb27c5ac5840567919a911b3828132bcd291ec7cb38e10b94"
    ),
    "serving_faults": (
        "f08005caeebbeef6002bba9ea56a142c5ef07b270a8dc48487428dd0109b107d"
    ),
    "serving_storm_obs": (
        "a65eb76419a6e4d2a813cf1cd825217e7563073abd74c2dc00807ac0a4a60e78"
    ),
    "serving_storm_obs_naive": (
        "5c11c75c4f51012402f006aa3a425583e255b53a31a5c2c4406f19da6031140e"
    ),
}

#: scenario -> sha256 of (sorted metrics JSON, span JSON, provenance JSON)
OBS_GOLDENS = {
    "serving_obs": (
        "a3dfb69f868611c1da4edc5133da253d30e9b9cd42f3cee3e3ef55394d235d79",
        "2c460f095076656ead0c1e5245301e90555891d4d67a55d3c04ea49527519d0b",
        "7daf739adb7d8c85d9ac5aa501e8a542f15e9adbe86cf709f38726be93fc1603",
    ),
    "serving_storm_obs": (
        "25dbb52dd5295c361a4f74edd18b5f7bacb89c271caa69b35c9903d1d896f0ac",
        "7c153d4365406398caad63330a67f13859270667cfc2c9b96c29fc3821cf98ed",
        "59227aec1830ec671e556ffed2940b1d70f6dabf160e49a732ce581157ae29d1",
    ),
    "serving_storm_obs_naive": (
        "4f45458e2c1ea8292c98f4f0be96c4ec76906470ece2e24f1d8bf00283aabd34",
        "a6aaf055659a4123293af09aca0fd93024dcb2388475dd44bfa6f5863c1db069",
        "e1603a1e4a27781a22f0b0a6bd3e824ff1a056c98724e348ebe0be59a39ccb6e",
    ),
}

#: sha256 of serving_obs's Prometheus text export.
SERVING_OBS_PROMETHEUS = (
    "dcd60e0625f6b9600dfdec4f265cebb45b2a6a9236857b9c375b5d2a06a0cbb3"
)

#: scenario -> sha256 of the merged Chrome trace of the run.
TRACE_GOLDENS = {
    "serving_obs": (
        "11c07cc94e7a418b1da5f847f79717d0adf8b282bf5ec70f8ab3a49b6d3dac5a"
    ),
    "serving_storm_obs": (
        "5cb84ff07ea04a117f87f622037797556989c44914c027f091c3e3a60a9c467b"
    ),
    "serving_storm_obs_naive": (
        "9af6203ad9f0514d1a945df5f7e5d0f82c0e65aec658607872f3f032f58d3dad"
    ),
}

#: the storm runs reach every outcome: (offered, served, shed,
#: timed_out, late, failed, rejected).
STORM_COUNTS = {
    "serving_storm_obs": (1527, 114, 620, 727, 76, 0, 66),
    "serving_storm_obs_naive": (1527, 75, 516, 617, 50, 319, 0),
}


#: cluster_storm: (report digest, timeline digest).
CLUSTER_STORM_DIGESTS = (
    "a4e2f80f02ef561bd410c26d6c8b41d724bfa08c8b7d67e29035063e7203d6a7",
    "d933e95f3f5ed3ef510d43d3470013d9e8b03f4ef4ce86262a2cae6eba53962c",
)

#: sha256 of cluster_storm's Chrome trace, run with observability on.
CLUSTER_STORM_TRACE = (
    "958e0a27b51d4f514a56ad48791e1c471368ffdcb52e873bdbe2f238b9220ec7"
)

#: cluster_storm: replica -> (served, failed, batches).
CLUSTER_STORM_REPLICAS = {
    "lenet#0": (2514, 0, 1680),
    "lenet#1": (1987, 358, 1763),
    "lenet#2": (44, 0, 44),
    "lenet#3": (1656, 0, 1386),
    "fcnn#0": (0, 12, 66),
    "fcnn#1": (0, 28, 67),
    "fcnn#2": (0, 0, 0),
    "fcnn#3": (0, 8, 59),
    "fcnn#4": (0, 14, 53),
    "fcnn#5": (0, 0, 0),
}

#: cluster_storm: (offered, served, shed, timed_out, late, failed,
#: scaling events).
CLUSTER_STORM_COUNTS = (8152, 6201, 594, 937, 288, 420, 4)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _table_digest(table) -> str:
    h = hashlib.sha256()
    for column in COLUMNS:
        h.update(getattr(table, column)[: len(table)].tobytes())
    return h.hexdigest()


def _sorted_metrics(registry) -> str:
    families = metrics_to_dict(registry)
    for family in families.values():
        family["series"].sort(key=lambda s: sorted(s["labels"].items()))
    return json.dumps(families, sort_keys=True)


@pytest.fixture(scope="module")
def runs():
    """scenario -> (simulator, report), each run once per module."""
    return {
        name: run_hermetic(build) for name, build in SERVING_BUILDERS.items()
    }


def test_goldens_cover_every_serving_scenario():
    assert sorted(TABLE_GOLDENS) == sorted(SERVING_BUILDERS)


@pytest.mark.parametrize("name", sorted(TABLE_GOLDENS))
def test_request_table_golden(name, runs):
    sim, _ = runs[name]
    assert _table_digest(sim._table) == TABLE_GOLDENS[name]


@pytest.mark.parametrize("name", sorted(TABLE_GOLDENS))
def test_timeline_golden(name, runs):
    sim, _ = runs[name]
    digest = sim.timeline.digest() if sim.timeline is not None else None
    assert digest == TIMELINE_GOLDENS.get(name)


@pytest.mark.parametrize("name", sorted(OBS_GOLDENS))
def test_observability_golden(name, runs):
    sim, _ = runs[name]
    obs = sim._obs
    metrics, spans, provenance = OBS_GOLDENS[name]
    assert _sha(_sorted_metrics(obs.metrics)) == metrics
    assert _sha(obs.tracer.to_json()) == spans
    assert _sha(obs.provenance.to_json()) == provenance


def test_serving_obs_prometheus_text_is_byte_identical(runs):
    sim, _ = runs["serving_obs"]
    assert _sha(prometheus_text(sim._obs.metrics)) == SERVING_OBS_PROMETHEUS


@pytest.mark.parametrize("name", sorted(TRACE_GOLDENS))
def test_chrome_trace_golden(name, runs):
    sim, _ = runs[name]
    trace = chrome_trace(sim.trace, sim.table, sim._names)
    assert _sha(trace) == TRACE_GOLDENS[name]


@pytest.mark.parametrize("name", sorted(STORM_COUNTS))
def test_storm_runs_reach_every_outcome(name, runs):
    _, report = runs[name]
    assert (
        report.offered, report.served, report.shed, report.timed_out,
        report.late, report.failed, report.rejected,
    ) == STORM_COUNTS[name]


@pytest.fixture(scope="module")
def storm():
    """(simulator, report) of the cluster storm, run once per module."""
    return run_hermetic(cluster_storm)


def test_cluster_storm_golden(storm):
    sim, report = storm
    assert (report.digest(), sim.timeline.digest()) == CLUSTER_STORM_DIGESTS
    assert {
        r.name: (r.served, r.failed, r.batches) for r in report.replicas
    } == CLUSTER_STORM_REPLICAS


def test_cluster_storm_trace_golden():
    sim, _ = run_hermetic(lambda: cluster_storm(Observability.on()))
    assert _sha(chrome_trace(sim.trace)) == CLUSTER_STORM_TRACE


def test_cluster_storm_reaches_every_outcome(storm):
    sim, report = storm
    assert (
        report.offered, report.served, report.shed, report.timed_out,
        report.late, report.failed, report.scaling_events,
    ) == CLUSTER_STORM_COUNTS
    # Abandoned in queue: timed out without a dispatch instant.
    rows = sim._rows
    abandoned = (rows.status == TIMED_OUT) & np.isnan(rows.dispatch_s)
    assert np.count_nonzero(abandoned) == report.timed_out - report.late > 0


# -- oracles ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TABLE_GOLDENS))
def test_report_counts_add_up_from_the_table(name, runs):
    """Every tenant's outcome counts are its table rows by status, and
    every request ends in exactly one terminal outcome."""
    sim, report = runs[name]
    table = sim._table
    n = len(table)
    status = table.status[:n]
    owner = table.tenant[:n]
    dispatched = ~np.isnan(table.dispatch_s[:n])
    for k, stats in enumerate(report.tenants):
        mine = owner == k
        assert stats.offered == np.count_nonzero(mine)
        assert stats.served == np.count_nonzero(mine & (status == SERVED))
        assert stats.shed == np.count_nonzero(mine & (status == SHED))
        assert stats.timed_out == np.count_nonzero(
            mine & (status == TIMED_OUT)
        )
        assert stats.failed == np.count_nonzero(mine & (status == FAILED))
        assert stats.rejected == np.count_nonzero(
            mine & (status == REJECTED)
        )
        assert (
            stats.served + stats.shed + stats.timed_out + stats.failed
            + stats.rejected == stats.offered
        )
    assert report.late == np.count_nonzero(
        (status == TIMED_OUT) & dispatched
    )


@pytest.mark.parametrize("name", sorted(TABLE_GOLDENS))
def test_littles_law_on_the_sample_path(name, runs):
    """The time integral of the queue depth equals the summed queue
    residence of every admitted request: from arrival to dispatch, or
    to abandonment for a request that expired in its queue."""
    sim, report = runs[name]
    table = sim._table
    n = len(table)
    status = table.status[:n]
    admitted = (status != SHED) & (status != REJECTED)
    dispatch = table.dispatch_s[:n][admitted]
    leave = np.where(np.isnan(dispatch), table.finish_s[:n][admitted], dispatch)
    residence = math.fsum((leave - table.arrival_s[:n][admitted]).tolist())
    integral = report.queue_depth_mean * report.makespan_s
    assert residence > 0.0
    assert abs(integral - residence) <= 1e-9 * residence

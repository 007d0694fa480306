"""One plan path for every device.

A plan key goes to the plan cache's memory tier, then to its store, and
only then to :func:`~repro.compile.pipeline.compile_key`.  So a cluster
over a store the tuning fleet filled compiles nothing, a cold cluster
compiles each plan key once however its replicas are throttled, and
every path from a key to a plan writes the same artifact bytes.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, ClusterTenant, DeviceMix
from repro.compile import pipeline
from repro.compile.pipeline import compile_key
from repro.core.engine import EdgeNN, EdgeNNConfig
from repro.core.plan_cache import (
    PlanCache,
    clear_plan_cache,
    configure_default_plan_cache,
)
from repro.faults import load_scenario, scale_to_horizon
from repro.hardware.variants import spec_by_name
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import SERVICE_TIMES, ServiceTimeModel
from repro.store.plan_store import PlanStore
from repro.tuning import fleet_catalog, key_for, run_fleet
from repro.tuning.fleet import _run_worker_job
from repro.workloads.arrivals import PoissonArrivals

#: one device of each kind: integrated, CPU-only, discrete GPU.
DEVICES = ("jetson-agx-xavier", "raspberry-pi-4", "rtx-2080ti-host")


@pytest.fixture
def default_store(tmp_path):
    """Point the process-wide plan cache at a store; returns its root."""
    root = tmp_path / "store"
    configure_default_plan_cache(store_dir=root)
    SERVICE_TIMES.clear()
    yield root
    configure_default_plan_cache()


def compiles(monkeypatch):
    """Record the key of every plan compiled from here on."""
    keys = []
    for name in ("compile_plan", "compile_fixed"):
        original = getattr(pipeline, name)

        def counted(*args, _original=original, **kwargs):
            compiled = _original(*args, **kwargs)
            keys.append(compiled.key)
            return compiled

        monkeypatch.setattr(pipeline, name, counted)
    return keys


def lenet_fleet(replicas, *, max_batch, share=0.0, **config):
    return ClusterSimulator(
        [ClusterTenant("lenet", PoissonArrivals(60.0, 2.0, seed=7))],
        DeviceMix.parse(",".join(DEVICES), throttled_share=share),
        replicas,
        ClusterConfig(
            seed=7,
            policy=BatchPolicy(max_wait_s=0.0, max_batch_size=max_batch),
            **config,
        ),
    )


def test_cluster_over_a_fleet_store_compiles_nothing(
    tmp_path, monkeypatch
):
    jobs = fleet_catalog(
        networks=["lenet"], devices=list(DEVICES), batch_sizes=(1, 2)
    )
    run_fleet(tmp_path / "store", jobs, workers=2, seed=0)
    configure_default_plan_cache(store_dir=tmp_path / "store")
    try:
        SERVICE_TIMES.clear()
        compiled = compiles(monkeypatch)
        report = lenet_fleet(len(DEVICES), max_batch=2).run()
    finally:
        configure_default_plan_cache()
    assert compiled == []
    assert report.extra["plan_cache_misses"] == 0
    assert report.extra["plan_cache_hits"] == len(jobs)
    assert report.served > 0


def test_cold_throttled_fleet_compiles_each_key_once(monkeypatch):
    clear_plan_cache()
    SERVICE_TIMES.clear()
    compiled = compiles(monkeypatch)
    sim = lenet_fleet(
        2 * len(DEVICES),
        max_batch=2,
        share=0.5,
        router="round_robin",  # every replica dispatches in the window
        faults=scale_to_horizon(load_scenario("thermal-soak"), 2.0),
        fault_share=1.0,
    )
    report = sim.run()
    devices = {r.spec.name for p in sim.fleet.pools for r in p.replicas}
    assert any("@thr-" in name for name in devices)
    baseline = [key for key in compiled if not key.use_hybrid_execution]
    assert len(baseline) == len(set(baseline))
    assert {key.device for key in baseline} == {
        name for name in devices if not name.startswith("jetson")
    }
    assert report.extra["plan_cache_misses"] == len(compiled)


@pytest.mark.parametrize("device", DEVICES)
def test_every_path_writes_the_same_artifact(tmp_path, device, default_store):
    spec = spec_by_name(device)
    key = key_for("lenet", spec, 2)

    def stored(root):
        store = PlanStore(root)
        return store.object_path(store.entries()[key.slug()].sha256).read_text()

    sha = _run_worker_job(str(tmp_path / "fleet"), key.to_dict(), 0, None, 0)
    worker = PlanStore(tmp_path / "fleet").object_path(sha).read_text()
    # A plan-cache miss: EdgeNN's on an integrated device.
    cache = PlanCache(store=PlanStore(tmp_path / "cache"))
    if spec.is_integrated:
        EdgeNN("lenet", spec, EdgeNNConfig(batch_size=2), plan_cache=cache).tune()
    else:
        cache.get_or_tune(key, lambda: compile_key(key, spec).artifact)
    ServiceTimeModel(spec).warm("lenet", 2)
    assert stored(tmp_path / "cache") == worker
    assert stored(default_store) == worker

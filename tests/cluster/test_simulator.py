"""End-to-end fleet simulation: accounting, faults, scaling, determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AutoscalerPolicy,
    ClusterConfig,
    ClusterSimulator,
    ClusterTenant,
    DeviceMix,
    simulate_cluster,
)
from repro.cluster.simulator import _FleetLog
from repro.errors import ReproError
from repro.faults import load_scenario, scale_to_horizon
from repro.serving.batcher import BatchPolicy
from repro.workloads.arrivals import ClosedLoopArrivals, PoissonArrivals

MIX = "jetson-agx-xavier:2,raspberry-pi-4"


def run(
    *, rate=50.0, duration=2.0, replicas=3, router="plan_cost",
    mix=MIX, networks=("lenet",), seed=0, **config_kw,
):
    tenants = [
        ClusterTenant(
            network, PoissonArrivals(rate, duration, seed=seed + i)
        )
        for i, network in enumerate(networks)
    ]
    config_kw.setdefault(
        "policy",
        BatchPolicy(max_wait_s=0.0, max_batch_size=4, deadline_s=2.0),
    )
    config = ClusterConfig(router=router, seed=seed, **config_kw)
    return simulate_cluster(
        tenants, DeviceMix.parse(mix), replicas, config
    )


class TestAccounting:
    @pytest.mark.parametrize(
        "router", ["round_robin", "least_queue", "plan_cost"]
    )
    def test_conservation_every_router(self, router):
        report = run(router=router)
        assert report.offered > 0
        assert (
            report.served + report.shed + report.timed_out + report.failed
            == report.offered
        )

    def test_sane_run_serves_everything(self):
        # 3 replicas of a sub-millisecond model at 50 req/s: no sheds,
        # no deadline misses, latencies near the service time.
        report = run()
        assert report.shed == 0
        assert report.timed_out == 0
        assert report.served == report.offered
        assert report.latency.p99_s < 0.1
        assert report.energy_j > 0.0

    def test_multiple_pools_route_independently(self):
        report = run(networks=("lenet", "fcnn"), rate=20.0)
        assert len(report.pools) == 2
        assert {p.network for p in report.pools} == {"lenet", "fcnn"}
        assert all(p.offered > 0 for p in report.pools)

    def test_makespan_covers_trailing_completions(self):
        report = run()
        assert report.makespan_s >= report.duration_s


class TestDispatchLogFigures:
    """Per-replica busy time and energy and per-pool batch histograms
    are derived from the dispatch log after the run.  They equal the
    running counters a loop keeps per dispatch, in log order, bit for
    bit."""

    #: replica index -> pool index
    POOL_OF = np.array([0, 0, 1, 1, 1], dtype=np.int32)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(0, 4),
            st.floats(0.0, 10.0, allow_nan=False),
            st.floats(0.0, 10.0, allow_nan=False),
            st.integers(0, 8),
        ),
        max_size=80,
    ))
    def test_match_running_counters(self, records):
        log = _FleetLog()
        busy = [0.0] * len(self.POOL_OF)
        energy = [0.0] * len(self.POOL_OF)
        histograms = [{}, {}]
        for replica, total, joules, size in records:
            if not size:
                # A dispatch call that only abandoned requests.
                total = joules = 0.0
            log.replica.append(replica)
            log.start_s.append(0.0)
            log.total_s.append(total)
            log.energy_j.append(joules)
            log.size.append(size)
            if size:
                busy[replica] += total
                energy[replica] += joules
                hist = histograms[self.POOL_OF[replica]]
                hist[size] = hist.get(size, 0) + 1
        assert log.replica_totals(len(self.POOL_OF)) == (busy, energy)
        assert log.batch_histograms(self.POOL_OF, 2) == histograms


class TestValidation:
    def test_closed_loop_tenants_rejected(self):
        with pytest.raises(ReproError, match="open-loop"):
            ClusterTenant(
                "lenet",
                ClosedLoopArrivals(clients=2, think_s=0.1, duration_s=1.0),
            )

    def test_duplicate_tenant_names_rejected(self):
        tenants = [
            ClusterTenant("lenet", PoissonArrivals(10, 1.0)),
            ClusterTenant("lenet", PoissonArrivals(10, 1.0)),
        ]
        with pytest.raises(ReproError, match="duplicate tenant"):
            ClusterSimulator(tenants, DeviceMix.parse(MIX), 1)

    def test_no_tenants_rejected(self):
        with pytest.raises(ReproError, match="at least one tenant"):
            ClusterSimulator([], DeviceMix.parse(MIX), 1)


class TestFaults:
    def test_faulted_run_still_conserves(self):
        report = run(
            faults=scale_to_horizon(load_scenario("thermal-soak"), 2.0),
            fault_share=1.0,
            fault_stagger_s=0.5,
        )
        assert (
            report.served + report.shed + report.timed_out + report.failed
            == report.offered
        )

    def test_kernel_failures_surface_as_failed(self):
        report = run(
            faults=scale_to_horizon(load_scenario("flaky-kernels"), 2.0),
            fault_share=1.0,
            rate=200.0,
        )
        assert report.failed > 0

    @pytest.mark.parametrize("mix", ["raspberry-pi-4", "rtx-2080ti-host"])
    def test_baseline_replicas_draw_no_kernel_failures(self, mix):
        # Kernel failures are hybrid-kernel launch failures; a CPU-only
        # board or a discrete GPU on its original program launches none.
        report = run(
            mix=mix,
            faults=scale_to_horizon(load_scenario("flaky-kernels"), 2.0),
            fault_share=1.0,
            rate=200.0,
        )
        assert report.offered > 0
        assert report.failed == 0

    def test_thermal_soak_slows_faulted_fleet(self):
        healthy = run(rate=150.0)
        soaked = run(
            rate=150.0,
            faults=scale_to_horizon(load_scenario("thermal-soak"), 2.0),
            fault_share=1.0,
        )
        assert soaked.latency.mean_s > healthy.latency.mean_s


class TestAutoscaling:
    def test_overload_triggers_scale_up(self):
        report = run(
            mix="jetson-agx-xavier",
            networks=("squeezenet",),
            rate=30.0,
            duration=4.0,
            replicas=2,
            autoscaler=AutoscalerPolicy(
                interval_s=0.5, high_depth=2.0, cooldown_s=0.5,
                max_replicas=8,
            ),
        )
        assert report.replicas_peak > report.replicas_start
        assert report.scaling_events > 0

    def test_quiet_fleet_scales_down_and_retires(self):
        report = run(
            mix="jetson-agx-xavier",
            rate=5.0,
            duration=4.0,
            replicas=4,
            autoscaler=AutoscalerPolicy(
                interval_s=0.5, low_depth=0.5, low_miss_rate=0.01,
                cooldown_s=0.5, min_replicas=1,
            ),
        )
        assert report.replicas_end < report.replicas_start
        retired = [r for r in report.replicas if r.retired_s >= 0.0]
        assert retired


class TestDeterminism:
    def test_same_seed_same_digest_in_process(self):
        kw = dict(
            networks=("lenet", "fcnn"),
            faults=scale_to_horizon(load_scenario("edge-storm"), 2.0),
            fault_share=0.5,
            fault_stagger_s=0.5,
        )
        assert run(**kw).digest() == run(**kw).digest()

    def test_seed_changes_digest(self):
        assert run(seed=1).digest() != run(seed=2).digest()

    def test_same_seed_same_digest_across_processes(self):
        """The acceptance gate: a fresh interpreter reproduces the
        digest bit-for-bit (no wall clock, id(), or hash-order leaks)."""
        snippet = (
            "from repro.cluster import ClusterConfig, ClusterTenant, "
            "DeviceMix, simulate_cluster\n"
            "from repro.faults import load_scenario, scale_to_horizon\n"
            "from repro.serving.batcher import BatchPolicy\n"
            "from repro.workloads.arrivals import DiurnalPoissonArrivals\n"
            "tenants = [ClusterTenant('lenet', DiurnalPoissonArrivals("
            "80.0, 2.0, period_s=2.0, seed=5))]\n"
            "config = ClusterConfig(router='plan_cost', seed=5, "
            "policy=BatchPolicy(max_wait_s=0.0, deadline_s=2.0), "
            "faults=scale_to_horizon(load_scenario('thermal-soak'), 2.0), "
            "fault_share=0.5, fault_stagger_s=0.5)\n"
            "report = simulate_cluster(tenants, "
            "DeviceMix.parse('jetson-agx-xavier:2,raspberry-pi-4', "
            "throttled_share=0.34), 3, config)\n"
            "print(report.digest())\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        digests = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.append(proc.stdout.strip().splitlines()[-1])
        assert digests[0] == digests[1]
        assert len(digests[0]) == 64

    def test_second_run_is_refused_before_touching_state(self):
        sim = ClusterSimulator(
            [ClusterTenant("lenet", PoissonArrivals(300.0, 2.0, seed=3))],
            DeviceMix.parse(MIX),
            3,
            ClusterConfig(policy=BatchPolicy(
                max_wait_s=0.0, max_batch_size=4, deadline_s=1.0,
            )),
        )
        report = sim.run()
        assert report.offered > 0

        def state():
            return [
                (r.busy_until, r.version, r.batches, list(r.queue))
                for pool in sim.fleet.pools for r in pool.replicas
            ]

        before = state()
        with pytest.raises(ReproError, match="already run"):
            sim.run()
        assert state() == before
        assert sim._rows is not None

    def test_report_extra_records_plan_cache_traffic(self):
        report = run()
        assert "plan_cache_hits" in report.extra
        assert "plan_cache_misses" in report.extra

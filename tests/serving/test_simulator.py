"""End-to-end serving-simulator behaviour.

Most tests inject a synthetic :class:`ServiceTimeModel` with exact,
hand-checkable batch costs so assertions are about the *serving* logic
(queueing, batching, shedding, fairness), not the engine's cost model.
A few integration tests at the bottom run the real engine on lenet.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile.pipeline import compile_fixed
from repro.hardware.specs import (
    JETSON_AGX_XAVIER,
    RASPBERRY_PI_4,
    RTX_2080TI_HOST,
)
from repro.hardware.throttle import ThrottleFactors
from repro.obs import NOOP_OBS
from repro.serving.batcher import BatchPolicy
from repro.serving.report import ServingReport
from repro.serving.simulator import (
    BatchServiceTime,
    ServiceTimeModel,
    ServingConfig,
    ServingSimulator,
    TenantSpec,
    _utilization,
    poisson_tenant,
    simulate,
    simulate_poisson,
    warm_service_time,
)
from repro.workloads.arrivals import (
    ClosedLoopArrivals,
    PoissonArrivals,
    UniformArrivals,
)
from repro.errors import ReproError


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


class TestValidation:
    def test_needs_tenants(self):
        with pytest.raises(ReproError):
            ServingSimulator(JETSON_AGX_XAVIER, [], ServingConfig())

    def test_duplicate_tenant_names(self):
        tenants = [uniform_tenant(10, 1.0), uniform_tenant(10, 1.0)]
        with pytest.raises(ReproError):
            ServingSimulator(JETSON_AGX_XAVIER, tenants, ServingConfig())

    @pytest.mark.parametrize(
        "spec", [RASPBERRY_PI_4, RTX_2080TI_HOST], ids=lambda s: s.name
    )
    def test_rejects_non_integrated_device(self, spec):
        # Refused before any run, whatever model prices the batches.
        with pytest.raises(ReproError, match="integrated"):
            ServingSimulator(
                spec, [uniform_tenant(50, 0.2)], ServingConfig(),
                service_model=FixedServiceModel(),
            )


class TestBeforeRun:
    def test_results_are_empty_until_a_run(self):
        sim = ServingSimulator(
            JETSON_AGX_XAVIER, [uniform_tenant(50, 0.2)], ServingConfig(),
            service_model=FixedServiceModel(),
        )
        assert sim.trace is None
        assert sim.table is None
        report = sim.run()
        assert len(sim.table) == report.offered
        batches = report.extra["batch_count"]
        assert batches > 0
        assert len(sim.trace) == 3 * batches


class TestUtilization:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=60),
        st.floats(0.0, 100.0, allow_nan=False),
    )
    def test_sums_the_batch_log_like_a_running_total(self, busy, makespan):
        """CPU/GPU utilization sums a batch-log column after the run;
        it equals a per-dispatch ``+=`` total, bit for bit."""
        running = 0.0
        for busy_s in busy:
            running += busy_s
        expected = min(1.0, running / makespan) if makespan > 0 else 0.0
        assert _utilization(np.array(busy), makespan) == expected


class TestConservation:
    @pytest.mark.parametrize("rate", [5, 50, 500])
    def test_served_plus_shed_is_offered(self, rate):
        report = run_sim(
            [uniform_tenant(rate, 2.0)],
            policy=BatchPolicy(max_batch_size=4, max_queue_depth=8),
        )
        assert report.served + report.shed == report.offered
        assert report.offered == len(UniformArrivals(rate, 2.0)
                                     .initial_arrivals())

    def test_everything_drains_under_light_load(self):
        report = run_sim([uniform_tenant(10, 1.0)])
        assert report.shed == 0
        assert report.served == report.offered


class TestLatencyInvariants:
    @pytest.mark.parametrize("rate", [20, 200])
    def test_percentiles_ordered(self, rate):
        report = run_sim([uniform_tenant(rate, 2.0)])
        lat = report.latency
        assert lat.p50_s <= lat.p95_s <= lat.p99_s <= lat.max_s
        # Latency can never be below one batch-1 service time.
        assert lat.p50_s >= FixedServiceModel().base_s - 1e-12

    def test_max_wait_bounds_idle_queueing(self):
        # One lone request: dispatched exactly when its wait budget
        # expires, so latency = max_wait + service.
        policy = BatchPolicy(max_batch_size=8, max_wait_s=0.005)
        tenant = TenantSpec(network="lenet",
                            arrival=UniformArrivals(1.0, 0.5))
        report = run_sim([tenant], policy=policy)
        assert report.served == 1
        assert report.latency.max_s == pytest.approx(0.005 + 0.010)

    def test_zero_wait_single_request_immediate(self):
        policy = BatchPolicy(max_batch_size=8, max_wait_s=0.0)
        report = run_sim([uniform_tenant(1.0, 0.5)], policy=policy)
        assert report.latency.max_s == pytest.approx(0.010)


class TestBatching:
    def test_batches_form_under_backlog(self):
        report = run_sim(
            [uniform_tenant(1000, 0.5)],
            policy=BatchPolicy(max_batch_size=8, max_queue_depth=1000),
        )
        assert report.mean_batch_size > 4
        assert max(report.batch_histogram) == 8

    def test_batch_one_never_batches(self):
        report = run_sim(
            [uniform_tenant(1000, 0.2)],
            policy=BatchPolicy(max_batch_size=1, max_queue_depth=1000),
        )
        assert set(report.batch_histogram) == {1}

    def test_batching_raises_peak_throughput(self):
        # Sub-linear batch cost => batching must beat per-request
        # dispatch under overload.
        batched = run_sim(
            [uniform_tenant(2000, 0.5)],
            policy=BatchPolicy(max_batch_size=8, max_queue_depth=64),
        )
        single = run_sim(
            [uniform_tenant(2000, 0.5)],
            policy=BatchPolicy(max_batch_size=1, max_queue_depth=64),
        )
        assert batched.throughput_rps > single.throughput_rps


class TestAdmissionControl:
    def test_overload_sheds(self):
        report = run_sim(
            [uniform_tenant(2000, 0.5)],
            policy=BatchPolicy(max_batch_size=1, max_queue_depth=4),
        )
        assert report.shed > 0
        assert 0.0 < report.shed_rate < 1.0
        assert report.queue_depth_max <= 4

    def test_bounded_queue_bounds_latency(self):
        # With depth D and batch=1, a request waits at most D services.
        policy = BatchPolicy(max_batch_size=1, max_queue_depth=4)
        report = run_sim([uniform_tenant(2000, 0.5)], policy=policy)
        assert report.latency.max_s <= (4 + 1) * 0.010 + 1e-9


class TestFairness:
    def test_weights_shape_service_shares(self):
        # Two identical overloaded tenants, weights 3:1 — the heavy one
        # must serve roughly 3x the requests.
        policy = BatchPolicy(max_batch_size=1, max_queue_depth=16)
        tenants = [
            uniform_tenant(500, 1.0, weight=3.0, name="heavy"),
            uniform_tenant(500, 1.0, weight=1.0, name="light"),
        ]
        report = run_sim(tenants, policy=policy)
        heavy = report.tenant("heavy")
        light = report.tenant("light")
        assert heavy.served > 2.0 * light.served
        assert heavy.latency.p99_s < light.latency.p99_s

    def test_idle_tenant_share_redistributes(self):
        # The second tenant offers nothing after t=0.1; the first must
        # then get the whole device (work conservation).
        tenants = [
            uniform_tenant(500, 1.0, name="busy"),
            uniform_tenant(10, 0.1, weight=5.0, name="brief"),
        ]
        report = run_sim(
            tenants, policy=BatchPolicy(max_batch_size=1,
                                        max_queue_depth=2000),
        )
        assert report.tenant("busy").served == 500


class TestDeterminism:
    def test_same_seed_identical_report(self):
        def one():
            tenants = [TenantSpec(
                network="lenet",
                arrival=PoissonArrivals(300, 2.0, seed=42),
            )]
            return run_sim(
                tenants,
                policy=BatchPolicy(max_batch_size=4, max_queue_depth=16),
            )

        a, b = one(), one()
        assert a.to_dict() == b.to_dict()
        assert [t.batch_histogram for t in a.tenants] == \
               [t.batch_histogram for t in b.tenants]

    def test_different_seed_differs(self):
        def one(seed):
            tenants = [TenantSpec(
                network="lenet",
                arrival=PoissonArrivals(300, 2.0, seed=seed),
            )]
            return run_sim(tenants)

        assert one(1).to_dict() != one(2).to_dict()


class TestColdStart:
    def test_cold_first_batch_slows_only_once(self):
        tenant = [uniform_tenant(1.0, 3.0)]  # 3 well-separated requests
        policy = BatchPolicy(max_batch_size=1)
        warm = run_sim(tenant, config=ServingConfig(policy=policy))
        cold = run_sim(
            tenant,
            config=ServingConfig(policy=policy, cold_start=True),
        )
        # First request pays 3x service; the rest are warm.
        assert cold.latency.max_s == pytest.approx(0.030)
        assert warm.latency.max_s == pytest.approx(0.010)
        assert cold.latency.p50_s == pytest.approx(0.010)


class TestClosedLoop:
    def test_population_limits_backlog(self):
        tenant = TenantSpec(
            network="lenet",
            arrival=ClosedLoopArrivals(clients=4, think_s=0.01,
                                       duration_s=2.0),
        )
        report = run_sim([tenant])
        assert report.shed == 0
        assert report.queue_depth_max <= 4
        assert report.served == report.offered
        assert report.served > 50


class TestQueueDepthAccounting:
    def test_depth_metrics_present(self):
        report = run_sim(
            [uniform_tenant(2000, 0.3)],
            policy=BatchPolicy(max_batch_size=8, max_queue_depth=32),
        )
        assert report.queue_depth_max >= 1
        assert 0.0 < report.queue_depth_mean <= report.queue_depth_max


class TestRealEngineIntegration:
    """Slower tests through the real tuner + warm executor (lenet)."""

    def test_simulate_poisson_end_to_end(self):
        report = simulate_poisson("lenet", rate_rps=100, duration_s=1.0,
                                  seed=3)
        assert isinstance(report, ServingReport)
        assert report.served + report.shed == report.offered
        assert report.served > 0
        assert report.latency.p50_s <= report.latency.p99_s
        assert report.device == "jetson-agx-xavier"
        assert 0.0 < report.gpu_utilization <= 1.0

    def test_real_engine_deterministic(self):
        a = simulate_poisson("lenet", rate_rps=200, duration_s=1.0, seed=9)
        b = simulate_poisson("lenet", rate_rps=200, duration_s=1.0, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_multi_tenant_real_engine(self):
        tenants = [
            poisson_tenant("lenet", 100, 1.0, seed=1, weight=2.0,
                           name="cam-a"),
            poisson_tenant("fcnn", 100, 1.0, seed=2, weight=1.0,
                           name="cam-b"),
        ]
        report = simulate(tenants)
        assert {t.name for t in report.tenants} == {"cam-a", "cam-b"}
        assert report.served + report.shed == report.offered


class TestBaselineServiceTimes:
    """Non-integrated devices run the paper's fixed baseline plan."""

    @pytest.mark.parametrize(
        "spec, placement",
        [(RASPBERRY_PI_4, "cpu"), (RTX_2080TI_HOST, "gpu")],
        ids=["raspberry-pi-4", "rtx-2080ti-host"],
    )
    def test_one_fixed_plan_for_every_variant(self, spec, placement):
        model = ServiceTimeModel(spec)
        nominal = model.service("lenet", 2)
        variants = [
            model.service("lenet", 2, kind=kind)
            for kind in ("normal", "no_hybrid", "no_zerocopy", "safe")
        ]
        variants.append(model.service("lenet", 2, retuned=True))
        assert variants == [nominal] * 5
        fixed = compile_fixed(
            "lenet", spec, placement=placement, batch_size=2,
            serialize=placement == "gpu", host_staging=placement == "gpu",
        )
        assert nominal == warm_service_time(fixed, NOOP_OBS)
        factors = ThrottleFactors(cpu=0.5, gpu=0.5, bandwidth=0.5)
        throttled = model.service("lenet", 2, factors=factors)
        assert throttled.total_s > nominal.total_s

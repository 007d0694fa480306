"""The process-wide service-time memo.

A batch's warm service time is a pure function of (plan, device spec),
so a second simulator in the same process must execute nothing: no
executor runs, no graph builds, no fixed-plan compiles.  It must still
do its own plan-cache lookups (the report counts them), and it must
never serve the time of a plan the cache has since replaced.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, ClusterTenant, DeviceMix
from repro.compile import pipeline
from repro.compile.artifact import Lowering, PlanArtifact
from repro.compile.pipeline import CompiledPlan, compile_fixed
from repro.core.executor import HybridExecutor
from repro.core.plan_cache import clear_plan_cache, default_plan_cache
from repro.hardware.device import Device
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.hardware.throttle import ThrottleFactors
from repro.nn.models import MODEL_BUILDERS, build
from repro.obs import NOOP_OBS
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import (
    SERVICE_TIMES,
    ServiceTimeModel,
    warm_service_time,
)
from repro.workloads import PoissonArrivals

from ..sim.engine_scenarios import BUILDERS, run_hermetic


def count_calls(monkeypatch, owner, attr):
    """Replace ``owner.attr`` with a wrapper that records each call."""
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def count_graph_builds(monkeypatch):
    """Record every catalog graph build, whichever module asks."""
    builds = []
    for name, builder in list(MODEL_BUILDERS.items()):
        def counted(name=name, builder=builder):
            builds.append(name)
            return builder()

        monkeypatch.setitem(MODEL_BUILDERS, name, counted)
    return builds


def without_cache_counters(report):
    data = report.to_dict()
    del data["plan_cache_hits"], data["plan_cache_misses"]
    return data


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestServingSimulators:
    def test_second_simulator_executes_and_builds_nothing(self, monkeypatch):
        _, first = run_hermetic(BUILDERS["serving_multitenant"])
        runs = count_calls(monkeypatch, HybridExecutor, "run")
        builds = count_graph_builds(monkeypatch)
        second = BUILDERS["serving_multitenant"]().run()
        assert runs == []
        assert builds == []
        # Every per-simulator variant still looks its plan up once.
        assert second.plan_cache_misses == 0
        assert second.plan_cache_hits == (
            first.plan_cache_hits + first.plan_cache_misses
        )
        assert without_cache_counters(second) == without_cache_counters(first)


class TestClusterSimulators:
    @staticmethod
    def fleet():
        return ClusterSimulator(
            [ClusterTenant("lenet", PoissonArrivals(80.0, 1.0, seed=3))],
            DeviceMix.parse("jetson-agx-xavier,raspberry-pi-4"),
            2,
            ClusterConfig(seed=3, policy=BatchPolicy(max_wait_s=0.0)),
        )

    def test_second_fleet_compiles_and_executes_nothing(self, monkeypatch):
        SERVICE_TIMES.clear()
        fixed = count_calls(monkeypatch, pipeline, "compile_fixed")
        runs = count_calls(monkeypatch, HybridExecutor, "run")
        first_sim = self.fleet()
        assert first_sim.fleet.device_counts() == {
            "jetson-agx-xavier": 1, "raspberry-pi-4": 1,
        }
        first = first_sim.run()
        assert fixed and runs  # the first fleet executes both paths
        del fixed[:], runs[:]
        second = self.fleet().run()
        assert fixed == []
        assert runs == []
        assert second.digest() == first.digest()


class TestReplacedPlans:
    def test_memo_never_serves_a_replaced_plan(self):
        nominal = ServiceTimeModel(JETSON_AGX_XAVIER).service("lenet", 2)
        model = ServiceTimeModel(JETSON_AGX_XAVIER)
        key = model.plan_key("lenet", 2)
        assert default_plan_cache().invalidate(key)
        # A stub compile returns a different plan: all-CPU, no split.
        cpu_only = PlanArtifact(
            key=key,
            plan=compile_fixed(
                "lenet", JETSON_AGX_XAVIER, placement="cpu", batch_size=2
            ).plan,
            lowering=Lowering(batch_size=2),
        )
        assert default_plan_cache().get_or_tune(key, lambda: cpu_only) is (
            cpu_only
        )
        want = warm_service_time(
            CompiledPlan(
                graph=build("lenet"),
                device=Device(JETSON_AGX_XAVIER),
                artifact=cpu_only,
            ),
            NOOP_OBS,
        )
        served = model.service("lenet", 2)
        assert served == want
        assert served.total_s != nominal.total_s

    def test_fresh_model_reads_every_throttle_mode_back(self, monkeypatch):
        factors = ThrottleFactors(cpu=0.5, gpu=0.4, bandwidth=0.6)
        modes = [{}, {"factors": factors}, {"factors": factors, "retuned": True}]
        model = ServiceTimeModel(JETSON_AGX_XAVIER)
        times = [model.service("lenet", 1, **mode) for mode in modes]
        assert times[1].total_s > times[0].total_s
        noop = model.service("lenet", 1, factors=ThrottleFactors())
        assert noop == times[0]
        runs = count_calls(monkeypatch, HybridExecutor, "run")
        fresh = ServiceTimeModel(JETSON_AGX_XAVIER)
        assert [fresh.service("lenet", 1, **mode) for mode in modes] == times
        assert runs == []

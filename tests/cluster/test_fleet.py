"""Device mixes, replicas, and fleet construction."""

import pytest

from repro.cluster import DeviceMix, Fleet
from repro.cluster.fleet import base_device_name, stable_hash, unit_fraction
from repro.compile.pipeline import compile_fixed
from repro.errors import ReproError
from repro.faults import load_scenario
from repro.hardware.specs import RASPBERRY_PI_4
from repro.hardware.throttle import ThrottleFactors
from repro.obs import NOOP_OBS
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import warm_service_time


class TestDeviceMix:
    def test_parse_names_and_weights(self):
        mix = DeviceMix.parse("jetson-agx-xavier:2,raspberry-pi-4")
        assert mix.entries == (
            ("jetson-agx-xavier", 2), ("raspberry-pi-4", 1),
        )

    def test_parse_rejects_unknown_device(self):
        with pytest.raises(ReproError, match="unknown device"):
            DeviceMix.parse("no-such-board")

    def test_parse_rejects_bad_weight(self):
        with pytest.raises(ReproError, match="weight"):
            DeviceMix.parse("jetson-agx-xavier:two")
        with pytest.raises(ReproError, match="weight"):
            DeviceMix.parse("jetson-agx-xavier:0")

    def test_parse_rejects_empty(self):
        with pytest.raises(ReproError, match="empty"):
            DeviceMix.parse(" , ")

    def test_throttled_share_bounds(self):
        with pytest.raises(ReproError, match="throttled_share"):
            DeviceMix.parse("jetson-agx-xavier", throttled_share=1.5)

    def test_spec_for_cycles_weighted(self):
        mix = DeviceMix.parse("jetson-agx-xavier:2,raspberry-pi-4")
        names = [mix.spec_for(i).name for i in range(6)]
        assert names == [
            "jetson-agx-xavier", "jetson-agx-xavier", "raspberry-pi-4",
        ] * 2

    def test_spec_for_rejects_negative_index(self):
        mix = DeviceMix.parse("jetson-agx-xavier")
        with pytest.raises(ReproError):
            mix.spec_for(-1)

    def test_throttled_share_spread_evenly(self):
        mix = DeviceMix.parse("jetson-agx-xavier", throttled_share=0.25)
        throttled = [
            "@thr-" in mix.spec_for(i).name for i in range(20)
        ]
        # Exactly one quarter of any aligned prefix, spread out — not
        # all bunched at the front.
        assert sum(throttled) == 5
        assert sum(throttled[:8]) == 2

    def test_throttle_is_a_first_class_spec(self):
        mix = DeviceMix.parse(
            "jetson-agx-xavier",
            throttled_share=1.0,
            throttle=ThrottleFactors(cpu=0.5, gpu=0.5, bandwidth=1.0),
        )
        spec = mix.spec_for(0)
        base = DeviceMix.parse("jetson-agx-xavier").spec_for(0)
        assert spec.name != base.name
        assert spec.cpu.clock_hz < base.cpu.clock_hz

    def test_describe_mentions_throttle(self):
        mix = DeviceMix.parse("jetson-agx-xavier:3", throttled_share=0.5)
        text = mix.describe()
        assert "jetson-agx-xavier:3" in text
        assert "50%" in text

    def test_base_device_name_strips_suffix(self):
        assert base_device_name("jetson-agx-xavier@thr-c0.8") == (
            "jetson-agx-xavier"
        )
        assert base_device_name("raspberry-pi-4") == "raspberry-pi-4"


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)
        assert stable_hash("a", 1) != stable_hash("a", 2)

    def test_unit_fraction_in_range(self):
        draws = [unit_fraction("seed", i) for i in range(100)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # Not degenerate.
        assert len(set(draws)) == 100


class TestFleet:
    def _fleet(self, **kw):
        mix = DeviceMix.parse("jetson-agx-xavier:2,raspberry-pi-4")
        kw.setdefault("policy", BatchPolicy(max_wait_s=0.0))
        return Fleet(mix, [("lenet", 3)], **kw)

    def test_builds_requested_replicas(self):
        fleet = self._fleet()
        assert fleet.replica_count() == 3
        assert fleet.pools[0].replicas_start == 3
        names = [r.name for r in fleet.pools[0].replicas]
        assert names == ["lenet#0", "lenet#1", "lenet#2"]

    def test_replica_idx_is_fleet_wide_and_unique(self):
        mix = DeviceMix.parse("jetson-agx-xavier")
        fleet = Fleet(
            mix, [("lenet", 2), ("fcnn", 2)],
            policy=BatchPolicy(max_wait_s=0.0),
        )
        idxs = [r.idx for p in fleet.pools for r in p.replicas]
        assert len(set(idxs)) == 4

    def test_models_shared_per_spec(self):
        fleet = self._fleet()
        jetsons = [
            r for r in fleet.pools[0].replicas
            if r.spec.name == "jetson-agx-xavier"
        ]
        assert len(jetsons) == 2
        assert jetsons[0].model is jetsons[1].model

    def test_non_integrated_devices_get_baseline_model(self):
        fleet = self._fleet()
        by_device = {r.spec.name: r for r in fleet.pools[0].replicas}
        # The Pi is CPU-only: EdgeNN's integrated engine cannot run
        # there, so it gets the paper's all-CPU baseline plan.
        cpu_only = compile_fixed("lenet", RASPBERRY_PI_4, placement="cpu")
        assert by_device["raspberry-pi-4"].svc1_s == (
            warm_service_time(cpu_only, NOOP_OBS).total_s
        )

    def test_plan_costs_precomputed(self):
        fleet = self._fleet()
        for replica in fleet.pools[0].replicas:
            assert replica.svc1_s > 0.0
            assert replica.unit_s > 0.0
            assert replica.unit_s <= replica.svc1_s + 1e-12

    def test_fault_assignment_deterministic_and_partial(self):
        scenario = load_scenario("thermal-soak")
        make = lambda: self._fleet(  # noqa: E731
            seed=3, faults=scenario, fault_share=0.5, fault_stagger_s=2.0
        )
        a, b = make(), make()
        flags_a = [r.injector is not None for r in a.pools[0].replicas]
        flags_b = [r.injector is not None for r in b.pools[0].replicas]
        assert flags_a == flags_b
        # A half share faults some, but not all, of a larger pool.
        large = Fleet(
            DeviceMix.parse("jetson-agx-xavier"), [("lenet", 32)],
            policy=BatchPolicy(max_wait_s=0.0), seed=3, faults=scenario,
            fault_share=0.5,
        )
        faulted = sum(r.injector is not None for r in large.pools[0].replicas)
        assert 0 < faulted < 32
        # fault_share=0 means nobody is faulted.
        clean = self._fleet(seed=3, faults=scenario, fault_share=0.0)
        assert all(
            r.injector is None for r in clean.pools[0].replicas
        )

    def test_add_replica_extends_pool(self):
        fleet = self._fleet()
        pool = fleet.pools[0]
        replica = fleet.add_replica(pool, now=4.0)
        assert replica.name == "lenet#3"
        assert replica.created_s == 4.0
        assert fleet.replica_count() == 4
        assert pool.replicas_start == 3

    def test_duplicate_pool_rejected(self):
        mix = DeviceMix.parse("jetson-agx-xavier")
        with pytest.raises(ReproError, match="duplicate pool"):
            Fleet(mix, [("lenet", 1), ("lenet", 1)])

    def test_empty_pool_rejected(self):
        mix = DeviceMix.parse("jetson-agx-xavier")
        with pytest.raises(ReproError, match="at least one replica"):
            Fleet(mix, [("lenet", 0)])
        with pytest.raises(ReproError, match="at least one model pool"):
            Fleet(mix, [])

    def test_device_counts_use_base_names(self):
        mix = DeviceMix.parse("jetson-agx-xavier", throttled_share=0.5)
        fleet = Fleet(
            mix, [("lenet", 4)], policy=BatchPolicy(max_wait_s=0.0)
        )
        assert fleet.device_counts() == {"jetson-agx-xavier": 4}


class TestReplicaPredictions:
    def test_predicted_wait_counts_busy_and_queue(self):
        fleet = Fleet(
            DeviceMix.parse("jetson-agx-xavier"), [("lenet", 1)],
            policy=BatchPolicy(max_wait_s=0.0),
        )
        replica = fleet.pools[0].replicas[0]
        assert replica.predicted_wait_s(0.0) == 0.0
        replica.busy_until = 2.0
        replica.queue.append(0.0)
        expected = 1.0 + replica.unit_s
        assert replica.predicted_wait_s(1.0) == pytest.approx(expected)
        assert replica.predicted_latency_s(1.0) == pytest.approx(
            expected + replica.svc1_s
        )

    def test_utilization_bounded(self):
        fleet = Fleet(
            DeviceMix.parse("jetson-agx-xavier"), [("lenet", 1)],
            policy=BatchPolicy(max_wait_s=0.0),
        )
        replica = fleet.pools[0].replicas[0]
        assert replica.utilization(50.0, 10.0) == 1.0
        assert replica.utilization(5.0, 10.0) == pytest.approx(0.5)
        assert replica.utilization(5.0, 0.0) == 0.0

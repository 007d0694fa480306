"""Plan cache: LRU semantics and EdgeNN integration."""

from dataclasses import fields, replace

import pytest

from repro.core.engine import EdgeNN, EdgeNNConfig
from repro.core.plan_cache import PlanCache, PlanKey
from repro.core.tuner import TuningObjective
from repro.nn.models import build as build_model
from repro.nn.precision import Precision


def key(batch=1, network="lenet", precision="fp32"):
    return PlanKey(
        network=network, device="jetson-agx-xavier", batch_size=batch,
        precision=precision, use_memory_management=True,
        use_hybrid_execution=True, use_inter_kernel=True,
        use_intra_kernel=True, objective="latency",
    )


class TestLRU:
    def test_miss_then_hit(self):
        cache = PlanCache()
        calls = []

        def tune():
            calls.append(1)
            return "plan"

        assert cache.get_or_tune(key(), tune) == "plan"
        assert cache.get_or_tune(key(), tune) == "plan"
        assert len(calls) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_keys_tune_separately(self):
        cache = PlanCache()
        cache.get_or_tune(key(batch=1), lambda: "b1")
        cache.get_or_tune(key(batch=2), lambda: "b2")
        cache.get_or_tune(key(precision="fp16"), lambda: "half")
        assert cache.misses == 3
        assert len(cache) == 3
        assert cache.get_or_tune(key(batch=2), lambda: "new") == "b2"

    def test_eviction_drops_least_recent(self):
        cache = PlanCache(capacity=2)
        cache.get_or_tune(key(batch=1), lambda: "a")
        cache.get_or_tune(key(batch=2), lambda: "b")
        cache.get_or_tune(key(batch=1), lambda: "a")   # refresh 1
        cache.get_or_tune(key(batch=3), lambda: "c")   # evicts 2
        assert key(batch=1) in cache
        assert key(batch=2) not in cache
        assert key(batch=3) in cache

    def test_clear(self):
        cache = PlanCache()
        cache.get_or_tune(key(), lambda: "x")
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestEngineIntegration:
    def test_second_engine_reuses_plan(self):
        cache = PlanCache()
        first = EdgeNN("lenet", plan_cache=cache)
        first.tune()
        assert (cache.hits, cache.misses) == (0, 1)

        second = EdgeNN("lenet", plan_cache=cache)
        result = second.tune()
        assert (cache.hits, cache.misses) == (1, 1)
        # The cache holds the artifact: one object, not a re-tune.
        assert second.artifact() is first.artifact()
        assert result.plan is first.tune().plan
        assert result.rounds == []  # a hit runs no tuner rounds

    def test_engine_level_memoization_still_works(self):
        cache = PlanCache()
        engine = EdgeNN("lenet", plan_cache=cache)
        assert engine.tune() is engine.tune()
        assert cache.misses == 1

    def test_force_bypasses_cache(self):
        cache = PlanCache()
        engine = EdgeNN("lenet", plan_cache=cache)
        engine.tune()
        engine.tune(force=True)
        # Forced re-tune neither reads nor needs the cached entry.
        assert cache.hits == 0

    def test_batch_sizes_get_distinct_entries(self):
        cache = PlanCache()
        for batch in (1, 2, 4):
            EdgeNN("lenet", config=EdgeNNConfig(batch_size=batch),
                   plan_cache=cache).tune()
        assert len(cache) == 3
        assert cache.misses == 3

    def test_custom_graph_never_cached(self):
        cache = PlanCache()
        graph = build_model("lenet")
        engine = EdgeNN(graph, plan_cache=cache)
        engine.tune()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_cached_plan_matches_uncached(self):
        cached = EdgeNN("lenet", plan_cache=PlanCache())
        fresh = EdgeNN("lenet", plan_cache=PlanCache())
        assert cached.run().total_s == pytest.approx(fresh.run().total_s)


class TestKey:
    def test_from_config_round_trip(self):
        config = EdgeNNConfig(batch_size=4, precision=Precision.FP16)
        built = PlanKey.from_config("alexnet", "jetson-agx-xavier", config)
        assert built.batch_size == 4
        assert built.precision == "fp16"
        assert built.network == "alexnet"
        assert built == PlanKey.from_config(
            "alexnet", "jetson-agx-xavier", config)

    def test_every_config_field_is_a_key_field(self):
        # A key is the whole tuning job: configs that differ in any
        # field never share a cache entry or a store object.
        names = [f.name for f in fields(EdgeNNConfig)]
        assert set(names) <= {f.name for f in fields(PlanKey)}
        changed = {
            "use_memory_management": False,
            "use_hybrid_execution": False,
            "use_inter_kernel": False,
            "use_intra_kernel": False,
            "objective": TuningObjective.ENERGY,
            "precision": Precision.FP16,
            "batch_size": 2,
        }
        assert sorted(changed) == sorted(names)
        base = PlanKey.from_config("lenet", "jetson-agx-xavier", EdgeNNConfig())
        for name, value in changed.items():
            config = replace(EdgeNNConfig(), **{name: value})
            key = PlanKey.from_config("lenet", "jetson-agx-xavier", config)
            assert key != base, name
            assert getattr(key, name) == getattr(value, "value", value)

    def test_key_is_hashable_and_comparable(self):
        assert key(batch=1) != key(batch=2)
        assert len({key(batch=1), key(batch=1), key(batch=2)}) == 2

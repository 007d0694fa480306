"""PlanCache as a read-through client of the content-addressed store."""

import pytest

from repro.compile.pipeline import compile_key
from repro.core.plan_cache import (
    PlanCache,
    PlanKey,
    configure_default_plan_cache,
    default_plan_cache,
)
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.obs import Observability
from repro.serving.simulator import simulate_poisson
from repro.store import plan_store
from repro.store.plan_store import PlanStore


def make_key(**overrides) -> PlanKey:
    fields = dict(
        network="lenet", device="jetson-agx-xavier", batch_size=1,
        precision="fp32", use_memory_management=True,
        use_hybrid_execution=True, use_inter_kernel=True,
        use_intra_kernel=True, objective="latency",
    )
    fields.update(overrides)
    return PlanKey(**fields)


def tune_lenet():
    return compile_key(make_key(), JETSON_AGX_XAVIER).artifact


def fail_tune():
    raise AssertionError("tuner should not run on a store hit")


@pytest.fixture
def store(tmp_path):
    return PlanStore(tmp_path / "store")


class TestReadThrough:
    def test_store_hit_skips_tuning(self, store):
        key = make_key()
        writer = PlanCache(store=store)
        written = writer.get_or_tune(key, tune_lenet)
        assert store.contains(key)

        reader = PlanCache(store=store)
        result = reader.get_or_tune(key, fail_tune)
        # A store hit returns the stored artifact, provenance and all.
        assert result.to_json() == written.to_json()
        assert reader.disk_hits == 1
        assert reader.misses == 0

    def test_memory_wins_over_store(self, store):
        key = make_key()
        cache = PlanCache(store=store)
        first = cache.get_or_tune(key, tune_lenet)
        store_hits_before = store.hits
        assert cache.get_or_tune(key, fail_tune) is first
        assert store.hits == store_hits_before

    def test_corrupt_store_object_degrades_to_retune(self, store):
        key = make_key()
        PlanCache(store=store).get_or_tune(key, tune_lenet)
        (obj,) = store.objects_dir.glob("*.json")
        obj.write_text(obj.read_text()[:50])

        reader = PlanCache(store=store)
        result = reader.get_or_tune(key, tune_lenet)
        assert result is not None
        assert reader.corrupt_loads == 1
        assert store.quarantined == 1
        # The re-tuned plan healed the store.
        assert store.contains(key)

    def test_stale_entry_is_retuned_never_served(self, tmp_path,
                                                 monkeypatch):
        root = tmp_path / "store"
        key = make_key()
        PlanCache(store=PlanStore(root)).get_or_tune(key, tune_lenet)
        # A later build whose cost model fingerprints differently: the
        # stored plan was computed against another predictor.
        monkeypatch.setattr(
            plan_store, "cost_model_fingerprint", lambda: "e" * 64
        )
        tunes = []

        def tune():
            tunes.append(1)
            return tune_lenet()

        reader = PlanCache(store=PlanStore(root))
        reader.get_or_tune(key, tune)
        assert tunes == [1]
        assert (reader.hits, reader.disk_hits, reader.misses) == (0, 0, 1)
        assert reader.store.stale_misses == 1
        # The re-tuned plan replaced the entry under the new fingerprint,
        # so the next process under this build warm-starts from it.
        assert reader.store.entries()[key.slug()].cost_model_fingerprint \
            == "e" * 64
        warm = PlanCache(store=PlanStore(root))
        assert warm.get_or_tune(key, fail_tune).key == key
        assert warm.disk_hits == 1


class TestInvalidate:
    def test_invalidate_without_remove_disk_keeps_files(self, store):
        key = make_key()
        cache = PlanCache(store=store)
        cache.get_or_tune(key, tune_lenet)
        assert cache.invalidate(key) is True
        assert store.contains(key)
        # The dropped memory entry is refilled from the store, not re-tuned.
        assert cache.get_or_tune(key, fail_tune).key == key
        assert cache.disk_hits == 1

    def test_empty_invalidate_is_falsy(self, store):
        cache = PlanCache(store=store)
        assert not cache.invalidate(make_key())


class TestDefaultCacheWiring:
    def test_configure_store_dir(self, tmp_path):
        try:
            configure_default_plan_cache(store_dir=tmp_path / "store")
            cache = default_plan_cache()
            assert cache.store is not None
            key = make_key()
            cache.get_or_tune(key, tune_lenet)
            assert PlanStore(tmp_path / "store").contains(key)
        finally:
            configure_default_plan_cache()

    def test_store_property_default_none(self):
        assert PlanCache().store is None


def _serve_squeezenet(store_dir):
    """One ``repro serve``-shaped run on a fresh cache over ``store_dir``;
    returns the report and the tuner feedback rounds it executed."""
    configure_default_plan_cache(store_dir=store_dir)
    obs = Observability.on()
    report = simulate_poisson("squeezenet", 20, 4, seed=7, obs=obs)
    rounds = 0.0
    if "repro_tuner_feedback_rounds_total" in obs.metrics:
        family = obs.metrics.family("repro_tuner_feedback_rounds_total")
        rounds = sum(inst.value for _, inst in family.children())
    return report, rounds


class TestWarmRestart:
    def test_second_run_replays_with_zero_misses(self, tmp_path):
        store_dir = tmp_path / "store"
        try:
            cold, cold_rounds = _serve_squeezenet(store_dir)
            warm, warm_rounds = _serve_squeezenet(store_dir)
        finally:
            configure_default_plan_cache()
        assert cold.plan_cache_misses > 0 and cold_rounds > 0
        assert warm.plan_cache_misses == 0
        assert warm.plan_cache_hits == cold.plan_cache_misses
        assert warm_rounds == 0
        # The served behaviour is identical; only the cache counters
        # differ.  digest() covers those counters, so it is not compared.
        counters = ("plan_cache_hits", "plan_cache_misses")
        cold_body, warm_body = cold.to_dict(), warm.to_dict()
        for name in counters:
            cold_body.pop(name)
            warm_body.pop(name)
        assert warm_body == cold_body

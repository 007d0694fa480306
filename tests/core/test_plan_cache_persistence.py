"""PlanCache satellites: store persistence and key validation."""

import pytest

from repro.compile.pipeline import compile_key
from repro.core.engine import EdgeNN, EdgeNNConfig
from repro.core.plan_cache import PlanCache, PlanKey
from repro.errors import ReproError
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.obs import Observability
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


def store_cache(root) -> PlanCache:
    """A cache over a fresh view of the store at ``root`` — what a new
    process sees."""
    return PlanCache(store=PlanStore(root))


class TestDiskPersistence:
    def test_tuned_result_written_as_artifact(self, tmp_path):
        key = make_key()
        store_cache(tmp_path).get_or_tune(key, tune_lenet)
        store = PlanStore(tmp_path)
        entry = store.entries()[key.slug()]
        assert store.object_path(entry.sha256).exists()
        assert store.get(key).key == key

    def test_fresh_cache_warm_starts_without_tuning(self, tmp_path):
        key = make_key()
        original = store_cache(tmp_path).get_or_tune(key, tune_lenet)

        def fail():  # pragma: no cover - must not be called
            raise AssertionError("warm start should not tune")

        fresh = store_cache(tmp_path)
        reloaded = fresh.get_or_tune(key, fail)
        assert fresh.hits == 1
        assert fresh.disk_hits == 1
        assert fresh.misses == 0
        assert reloaded.to_json() == original.to_json()

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        key = make_key()
        store_cache(tmp_path).get_or_tune(key, tune_lenet)
        fresh = store_cache(tmp_path)
        fresh.get_or_tune(key, tune_lenet)
        fresh.get_or_tune(key, tune_lenet)
        assert fresh.disk_hits == 1     # second hit came from memory
        assert fresh.hits == 2
        assert fresh.store.hits == 1

    def test_warm_started_engine_runs_zero_tuner_rounds(self, tmp_path):
        key = make_key()
        store_cache(tmp_path).get_or_tune(key, tune_lenet)
        obs = Observability.on()
        cache = store_cache(tmp_path)
        engine = EdgeNN(
            "lenet", JETSON_AGX_XAVIER, plan_cache=cache, obs=obs,
        )
        engine.run()
        assert cache.disk_hits == 1 and cache.misses == 0
        if "repro_tuner_feedback_rounds_total" in obs.metrics:
            fam = obs.metrics.family("repro_tuner_feedback_rounds_total")
            assert sum(inst.value for _, inst in fam.children()) == 0.0

    def test_clear_keeps_disk_artifacts(self, tmp_path):
        cache = store_cache(tmp_path)
        key = make_key()
        cache.get_or_tune(key, tune_lenet)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
        assert cache.store.contains(key)
        cache.get_or_tune(key, tune_lenet)
        assert cache.disk_hits == 1

    def test_miss_persists_the_artifact_it_was_given(self, tmp_path):
        artifact = tune_lenet()
        cache = store_cache(tmp_path)
        assert cache.get_or_tune(make_key(), lambda: artifact) is artifact
        store = PlanStore(tmp_path)
        entry = store.entries()[make_key().slug()]
        assert store.object_path(entry.sha256).read_text() == (
            PlanStore.artifact_text(artifact)
        )


class TestFromConfigValidation:
    def test_valid_config_round_trips(self):
        config = EdgeNNConfig()
        key = PlanKey.from_config("lenet", "jetson-agx-xavier", config)
        assert PlanKey.from_dict(key.to_dict()) == key

    @pytest.mark.parametrize("network", ["", None, 7])
    def test_bad_network(self, network):
        with pytest.raises(ReproError, match="PlanKey.from_config.*network"):
            PlanKey.from_config(network, "jetson-agx-xavier", EdgeNNConfig())

    @pytest.mark.parametrize("device", ["", None])
    def test_bad_device(self, device):
        with pytest.raises(ReproError, match="PlanKey.from_config.*device"):
            PlanKey.from_config("lenet", device, EdgeNNConfig())

    @pytest.mark.parametrize("batch", [0, -1, 1.5, True, None])
    def test_bad_batch_size(self, batch):
        bad = type("Cfg", (), {"batch_size": batch})()
        with pytest.raises(ReproError, match="batch_size must be an int"):
            PlanKey.from_config("lenet", "jetson-agx-xavier", bad)

    def test_missing_precision_named_in_error(self):
        class Cfg:
            batch_size = 1

        with pytest.raises(ReproError, match="precision must be a Precision"):
            PlanKey.from_config("lenet", "jetson-agx-xavier", Cfg())

    def test_missing_objective_named_in_error(self):
        config = EdgeNNConfig()

        class Cfg:
            batch_size = config.batch_size
            precision = config.precision

        with pytest.raises(ReproError, match="objective must be a Tuning"):
            PlanKey.from_config("lenet", "jetson-agx-xavier", Cfg())

    def test_non_bool_flag_named_in_error(self):
        config = EdgeNNConfig()

        class Cfg:
            batch_size = config.batch_size
            precision = config.precision
            objective = config.objective
            use_memory_management = "yes"

        with pytest.raises(
            ReproError, match="use_memory_management must be a bool"
        ):
            PlanKey.from_config("lenet", "jetson-agx-xavier", Cfg())

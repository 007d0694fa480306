"""Store-load hardening: corrupt objects degrade to a miss + re-tune,
checksum tampering is caught, invalidation drops only the memory entry."""

import json
import logging

import pytest

from repro.compile.artifact import PlanArtifact
from repro.compile.pipeline import compile_key
from repro.core.plan_cache import PlanCache, PlanKey
from repro.errors import ReproError
from repro.fsutil import atomic_write_text, sha256_text
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.store.plan_store import MANIFEST_NAME, PlanStore


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
    """A cache over a fresh view of the store at ``root``."""
    return PlanCache(store=PlanStore(root))


@pytest.fixture
def populated(tmp_path):
    """A store with one persisted lenet plan; returns (key, object path)."""
    key = make_key()
    store_cache(tmp_path).get_or_tune(key, tune_lenet)
    store = PlanStore(tmp_path)
    return key, store.object_path(store.entries()[key.slug()].sha256)


@pytest.fixture
def artifact_file(tmp_path):
    """One lenet plan saved as a standalone artifact file."""
    return tune_lenet().save(tmp_path / f"{make_key().slug()}.json")


class TestCorruptLoads:
    def test_truncated_file_is_a_warned_miss(self, populated, tmp_path,
                                             caplog):
        key, path = populated
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        cache = store_cache(tmp_path)
        with caplog.at_level(logging.WARNING):
            result = cache.get_or_tune(key, tune_lenet)
        assert result.plan is not None  # re-tuned, not crashed
        assert cache.corrupt_loads == 1
        assert cache.misses == 1
        assert cache.hits == 0
        assert any("quarantined" in r.message for r in caplog.records)

    def test_garbage_json_is_a_miss(self, populated, tmp_path):
        key, path = populated
        path.write_text("not json at all {{{")
        cache = store_cache(tmp_path)
        sentinel_calls = []

        def tune():
            sentinel_calls.append(1)
            return tune_lenet()

        cache.get_or_tune(key, tune)
        assert sentinel_calls == [1]
        assert cache.corrupt_loads == 1

    def test_checksum_tamper_is_caught(self, populated, tmp_path):
        key, path = populated
        data = json.loads(path.read_text())
        # Flip a value the checksum covers, keep the JSON well-formed.
        data["provenance"]["final_total_s"] = 123.456
        path.write_text(json.dumps(data))
        with pytest.raises(ReproError, match="checksum mismatch"):
            PlanArtifact.load(path)
        # The cache degrades the same tamper to a counted miss.
        cache = store_cache(tmp_path)
        cache.get_or_tune(key, tune_lenet)
        assert cache.corrupt_loads == 1

    def test_artifact_without_checksum_still_loads(self, populated,
                                                   tmp_path):
        key, path = populated
        data = json.loads(path.read_text())
        del data["checksum"]  # a pre-hardening artifact
        text = json.dumps(data) + "\n"
        store = PlanStore(tmp_path)
        atomic_write_text(store.object_path(sha256_text(text)), text)
        store.register(key, sha256_text(text))
        cache = store_cache(tmp_path)
        cache.get_or_tune(key, tune_lenet)
        assert cache.disk_hits == 1
        assert cache.corrupt_loads == 0

    def test_wrong_key_object_is_quarantined(self, populated, tmp_path):
        # A manifest entry whose object carries another key is treated
        # like any other corrupt object: quarantined, a miss, re-tuned.
        key, _ = populated
        other = make_key(objective="energy")
        manifest = tmp_path / MANIFEST_NAME
        doc = json.loads(manifest.read_text())
        doc["entries"][other.slug()] = dict(
            doc["entries"][key.slug()], key=other.to_dict()
        )
        manifest.write_text(json.dumps(doc))
        cache = store_cache(tmp_path)
        fresh = compile_key(other, JETSON_AGX_XAVIER).artifact
        assert cache.get_or_tune(other, lambda: fresh) is fresh
        assert cache.corrupt_loads == 1
        assert cache.misses == 1
        # The wrong-key entry is gone; the recompiled plan replaced it.
        assert cache.store.get(other).to_json() == fresh.to_json()

    def test_clear_resets_corrupt_counter(self, populated, tmp_path):
        key, path = populated
        path.write_text("{")
        cache = store_cache(tmp_path)
        cache.get_or_tune(key, tune_lenet)
        assert cache.corrupt_loads == 1
        cache.clear()
        assert cache.corrupt_loads == 0


class TestInvalidate:
    def test_invalidate_memory_entry(self, tmp_path):
        cache = PlanCache()
        key = make_key()
        sentinel = object()
        cache.get_or_tune(key, lambda: sentinel)
        assert cache.invalidate(key)
        assert key not in cache
        assert not cache.invalidate(key)  # already gone

    def test_invalidate_keeps_disk_by_default(self, populated, tmp_path):
        key, path = populated
        cache = store_cache(tmp_path)
        cache.get_or_tune(key, tune_lenet)
        assert cache.invalidate(key) is True
        assert path.exists() and cache.store.contains(key)
        # Next lookup reloads from the store (the plan is still valid
        # for the device spec and cost model that built it).
        cache.get_or_tune(key, tune_lenet)
        assert cache.disk_hits == 2
        assert cache.misses == 0


class TestChecksumDeterminism:
    def test_round_trip_preserves_checksum(self, artifact_file):
        art = PlanArtifact.load(artifact_file)
        again = PlanArtifact.from_json(art.to_json())
        assert again.to_dict()["checksum"] == art.to_dict()["checksum"]
        assert again.to_dict() == art.to_dict()

    def test_checksum_covers_every_section(self, artifact_file):
        data = json.loads(artifact_file.read_text())
        recorded = data["checksum"]
        assert recorded == PlanArtifact._checksum_of(data)
        for section in ("key", "plan", "lowering", "provenance"):
            mutated = json.loads(artifact_file.read_text())
            mutated[section] = {"tampered": True}
            assert PlanArtifact._checksum_of(mutated) != recorded

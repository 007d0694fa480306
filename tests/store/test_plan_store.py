"""PlanStore: content addressing, quarantine, staleness, rebuild."""

import json
from dataclasses import replace

import pytest

from repro.compile.pipeline import compile_fixed, compile_key
from repro.errors import ReproError
from repro.fsutil import sha256_text
from repro.hardware import specs
from repro.hardware.throttle import ThrottleFactors, apply_throttle
from repro.hardware.variants import spec_by_name
from repro.store.fingerprint import device_fingerprint, device_fingerprint_for
from repro.tuning.catalog import key_for
from repro.store.plan_store import (
    MANIFEST_NAME,
    PlanStore,
    QUARANTINE_SCHEMA,
    STORE_SCHEMA,
    STORE_VERSION,
)


def make_artifact(network="lenet", device="raspberry-pi-4", batch_size=1):
    compiled = compile_fixed(
        network, spec_by_name(device), placement="cpu",
        batch_size=batch_size,
    )
    return compiled.artifact


@pytest.fixture
def store(tmp_path):
    return PlanStore(tmp_path / "store")


class TestContentAddressing:
    def test_put_get_round_trip(self, store):
        artifact = make_artifact()
        sha = store.put(artifact).sha256
        loaded = store.get(artifact.key)
        assert loaded is not None
        assert loaded.key == artifact.key
        assert loaded.to_json() == artifact.to_json()
        assert store.hits == 1

    def test_object_filename_is_content_hash(self, store):
        artifact = make_artifact()
        sha = store.put(artifact).sha256
        path = store.object_path(sha)
        assert path.exists()
        assert sha256_text(path.read_text()) == sha

    def test_put_is_idempotent(self, store):
        artifact = make_artifact()
        assert store.put(artifact).sha256 == store.put(artifact).sha256
        objects = list(store.objects_dir.glob("*.json"))
        assert len(objects) == 1

    def test_contains_and_miss(self, store):
        artifact = make_artifact()
        assert not store.contains(artifact.key)
        assert store.get(artifact.key) is None
        assert store.misses == 1
        store.put(artifact)
        assert store.contains(artifact.key)

    def test_manifest_shape(self, store):
        store.put(make_artifact())
        doc = json.loads((store.root / MANIFEST_NAME).read_text())
        assert doc["schema"] == STORE_SCHEMA
        assert doc["version"] == STORE_VERSION
        (entry,) = doc["entries"].values()
        assert set(entry) >= {"key", "sha256", "fingerprints"}
        assert set(entry["fingerprints"]) == {"device", "cost_model"}


class TestQuarantine:
    def test_corrupt_object_quarantined_on_get(self, store):
        artifact = make_artifact()
        sha = store.put(artifact).sha256
        path = store.object_path(sha)
        path.write_text(path.read_text()[:40])

        assert store.get(artifact.key) is None
        assert store.quarantined == 1
        assert not path.exists()
        assert not store.contains(artifact.key)
        quarantined = list(store.quarantine_dir.glob("*.json"))
        assert len(quarantined) == 1

    def test_quarantine_record_provenance(self, store):
        artifact = make_artifact()
        sha = store.put(artifact).sha256
        store.object_path(sha).write_text("not json at all")
        store.get(artifact.key)

        (record,) = store.quarantine_records()
        assert record["schema"] == QUARANTINE_SCHEMA
        assert record["expected_sha256"] == sha
        assert record["label"] == artifact.key.slug()
        assert record["reason"]

    def test_register_rejects_wrong_hash(self, store, tmp_path):
        artifact = make_artifact()
        text = store.artifact_text(artifact)
        bogus_sha = "0" * 64
        store.object_path(bogus_sha).parent.mkdir(
            parents=True, exist_ok=True
        )
        store.object_path(bogus_sha).write_text(text)
        with pytest.raises(ReproError):
            store.register(artifact.key, bogus_sha)
        assert store.quarantined == 1
        assert not store.contains(artifact.key)

    def test_register_rejects_key_mismatch(self, store):
        artifact = make_artifact()
        sha = store.write_object(artifact)
        other = make_artifact(network="squeezenet")
        with pytest.raises(ReproError):
            store.register(other.key, sha)

    def test_corrupt_manifest_quarantined_and_rebuilt(self, store):
        artifact = make_artifact()
        store.put(artifact)
        (store.root / MANIFEST_NAME).write_text('{"torn')

        reopened = PlanStore(store.root)
        assert reopened.contains(artifact.key)
        assert reopened.get(artifact.key) is not None
        records = reopened.quarantine_records()
        assert any("manifest" in str(r["reason"]) for r in records)


class TestStaleness:
    def test_doctored_fingerprint_is_stale_miss(self, store):
        artifact = make_artifact()
        store.put(artifact)
        slug = artifact.key.slug()
        entry = store._entries[slug]
        store._entries[slug] = type(entry)(
            key=entry.key, sha256=entry.sha256, size=entry.size,
            device_fingerprint="f" * 64,
            cost_model_fingerprint=entry.cost_model_fingerprint,
        )
        assert store.get(artifact.key) is None
        assert store.stale_misses == 1
        # The entry survives (sweep_stale is the explicit eviction).
        assert slug in store.stale_entries()
        assert store.sweep_stale() == [slug]
        assert not store.contains(artifact.key)

    def test_throttled_name_fingerprints_from_its_base(self):
        base = specs.JETSON_AGX_XAVIER
        slow = apply_throttle(base, ThrottleFactors(0.8, 0.6, 0.8))
        slower = apply_throttle(base, ThrottleFactors(0.5, 0.5, 0.5))
        fingerprints = {
            device_fingerprint_for(spec.name) for spec in (base, slow, slower)
        }
        assert len(fingerprints) == 3 and "" not in fingerprints
        assert device_fingerprint_for(base.name) == device_fingerprint(base)
        assert device_fingerprint_for("no-such-device@" + slow.name) == ""

    def test_editing_the_base_device_stales_its_throttled_plans(
        self, store, monkeypatch
    ):
        base = specs.JETSON_AGX_XAVIER
        throttled = apply_throttle(base, ThrottleFactors(0.8, 0.6, 0.8))
        artifact = compile_key(key_for("lenet", throttled, 1), throttled).artifact
        store.put(artifact)
        assert store.entries()[artifact.key.slug()].device_fingerprint
        assert store.get(artifact.key) is not None
        monkeypatch.setitem(
            specs.DEVICE_CATALOG, base.name,
            replace(base, price_usd=base.price_usd + 1.0),
        )
        assert store.get(artifact.key) is None
        assert store.stale_misses == 1

    def test_check_fingerprints_off_serves_stale(self, tmp_path):
        store = PlanStore(tmp_path / "store", check_fingerprints=False)
        artifact = make_artifact()
        store.put(artifact)
        slug = artifact.key.slug()
        entry = store._entries[slug]
        store._entries[slug] = type(entry)(
            key=entry.key, sha256=entry.sha256, size=entry.size,
            device_fingerprint="f" * 64,
            cost_model_fingerprint="e" * 64,
        )
        assert store.get(artifact.key) is not None


class TestMaintenance:
    def test_digest_is_stable_across_reopen(self, store):
        store.put(make_artifact())
        store.put(make_artifact(network="squeezenet"))
        digest = store.digest()
        assert PlanStore(store.root).digest() == digest

    def test_digest_insensitive_to_insertion_order(self, tmp_path):
        a = make_artifact()
        b = make_artifact(network="squeezenet")
        first = PlanStore(tmp_path / "ab")
        first.put(a)
        first.put(b)
        second = PlanStore(tmp_path / "ba")
        second.put(b)
        second.put(a)
        assert first.digest() == second.digest()

    def test_sweep_tmp_collects_torn_writes(self, store):
        store.put(make_artifact())
        torn = store.objects_dir / "deadbeef.json.tmp"
        torn.write_text('{"torn')
        assert store.sweep_tmp() == [torn]
        assert not torn.exists()

    def test_rebuild_reindexes_orphans(self, store):
        artifact = make_artifact()
        sha = store.write_object(artifact)  # object without manifest entry
        assert not store.contains(artifact.key)
        assert store.rebuild() >= 1
        assert store.contains(artifact.key)
        assert store.get(artifact.key) is not None

"""Content-addressed, versioned plan store: tuned plans as durable assets.

The store is the only persistent tier of
:class:`~repro.core.plan_cache.PlanCache`: a serving process reads
through it and writes every fresh tune back, and an empty or missing
directory becomes a store on its first write.  Tuning at scale is
embarrassingly parallel work whose output — compiled plans — is the
product (MITuna's model), so the store has database obligations:

* **Torn-write immunity.** Every write (objects *and* the manifest) is
  tmp + :func:`os.replace`; a worker killed mid-write leaves at worst
  an ignorable ``*.tmp`` corpse, never a half-written artifact.
* **Content addressing.** Artifact bytes live in
  ``objects/<sha256>.json``.  Two processes compiling the same key
  write the same bytes to the same path — concurrent writers are
  idempotent, and corruption is *detectable* (file bytes must hash to
  the file name).
* **A versioned manifest.** ``manifest.json`` maps key slugs to object
  hashes plus the *producer fingerprints* (DeviceSpec + cost-model, see
  :mod:`repro.store.fingerprint`) that built each plan.  It is the unit
  of determinism: two same-seed fleet runs must produce byte-identical
  manifests, so it contains no timestamps, no host names, no ordering
  artifacts.
* **Quarantine, not crash.** A corrupt object (checksum mismatch, torn
  JSON, wrong key) is moved to ``quarantine/`` with a provenance
  record, its manifest entry dropped, and the lookup degrades to a
  miss — the caller re-tunes.
* **Staleness invalidation.** An entry whose producing fingerprints no
  longer match the current build is reported stale and skipped on read
  (perf4sight: a plan is only as valid as its cost model).

Process model: many processes may *read* and may write *objects*
concurrently; manifest updates are last-writer-wins atomic replaces, so
concurrent manifest writers should be funneled through one coordinator
(what :class:`repro.tuning.fleet.TuneFleet` does).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from ..compile.artifact import PlanArtifact
from ..core.plan_cache import PlanKey
from ..errors import ReproError
from ..fsutil import atomic_write_text, sha256_text, sweep_tmp_files
from .fingerprint import cost_model_fingerprint, device_fingerprint_for

_LOG = logging.getLogger(__name__)

STORE_SCHEMA = "repro.plan-store"
STORE_VERSION = 1

#: Schema of the provenance sidecar written next to quarantined bytes.
QUARANTINE_SCHEMA = "repro.quarantine-record"

MANIFEST_NAME = "manifest.json"
OBJECTS_DIR = "objects"
QUARANTINE_DIR = "quarantine"


@dataclass(frozen=True)
class StoreEntry:
    """One manifest row: a plan key bound to its artifact content."""

    key: PlanKey
    sha256: str
    size: int
    device_fingerprint: str
    cost_model_fingerprint: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key.to_dict(),
            "sha256": self.sha256,
            "size": self.size,
            "fingerprints": {
                "device": self.device_fingerprint,
                "cost_model": self.cost_model_fingerprint,
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StoreEntry":
        try:
            fingerprints = data.get("fingerprints", {})
            if not isinstance(fingerprints, Mapping):
                raise ReproError(
                    f"entry fingerprints must be an object, "
                    f"got {fingerprints!r}"
                )
            key_data = data["key"]
            if not isinstance(key_data, Mapping):
                raise ReproError(
                    f"entry key must be an object, got {key_data!r}"
                )
            return cls(
                key=PlanKey.from_dict(key_data),
                sha256=str(data["sha256"]),
                size=int(data.get("size", 0)),  # type: ignore[arg-type]
                device_fingerprint=str(fingerprints.get("device", "")),
                cost_model_fingerprint=str(
                    fingerprints.get("cost_model", "")
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed store entry: {exc}") from exc


class PlanStore:
    """Content-addressed plan database rooted at one directory."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        check_fingerprints: bool = True,
        obs=None,
    ) -> None:
        self.root = Path(root)
        self._check_fingerprints = check_fingerprints
        self._obs = obs
        self.hits = 0
        self.misses = 0
        #: misses caused by producer-fingerprint drift (entry kept).
        self.stale_misses = 0
        #: corrupt objects moved to quarantine (each also a miss).
        self.quarantined = 0
        self._entries: Dict[str, StoreEntry] = {}
        self._load_manifest()

    # -- paths ----------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def objects_dir(self) -> Path:
        return self.root / OBJECTS_DIR

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def object_path(self, sha256: str) -> Path:
        return self.objects_dir / f"{sha256}.json"

    # -- manifest persistence -------------------------------------------------

    def _load_manifest(self) -> None:
        path = self.manifest_path
        if not path.exists():
            return
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict):
                raise ReproError("store manifest must be a JSON object")
            schema = data.get("schema")
            if schema != STORE_SCHEMA:
                raise ReproError(
                    f"not a plan-store manifest (schema={schema!r}, "
                    f"expected {STORE_SCHEMA!r})"
                )
            version = data.get("version")
            if version != STORE_VERSION:
                raise ReproError(
                    f"unsupported plan-store version {version!r} "
                    f"(this build reads {STORE_VERSION})"
                )
            raw_entries = data.get("entries", {})
            if not isinstance(raw_entries, Mapping):
                raise ReproError("manifest entries must be an object")
            entries = {
                str(slug): StoreEntry.from_dict(record)
                for slug, record in raw_entries.items()
            }
        except (json.JSONDecodeError, ReproError) as exc:
            # A torn or hand-edited manifest must not take the store
            # down: quarantine it and rebuild the index from the
            # content-addressed objects, which are self-describing.
            _LOG.warning(
                "plan-store manifest %s is corrupt (%s); quarantining "
                "and rebuilding from objects", path, exc,
            )
            self._quarantine_file(
                path, label="manifest", expected_sha="",
                reason=f"corrupt manifest: {exc}",
            )
            self._entries = {}
            self.rebuild()
            return
        self._entries = entries

    def _manifest_doc(self) -> Dict[str, object]:
        return {
            "schema": STORE_SCHEMA,
            "version": STORE_VERSION,
            "entries": {
                slug: self._entries[slug].to_dict()
                for slug in sorted(self._entries)
            },
        }

    def _persist_manifest(self) -> None:
        doc = json.dumps(self._manifest_doc(), indent=1, sort_keys=True)
        atomic_write_text(self.manifest_path, doc + "\n")

    def digest(self) -> str:
        """Stable content hash of the manifest — the determinism gate.

        Two fleet runs with the same catalog, seed, and build must
        produce identical digests, no matter which workers did what in
        which order.
        """
        return sha256_text(
            json.dumps(self._manifest_doc(), sort_keys=True)
        )

    # -- fingerprints ---------------------------------------------------------

    def _fingerprints_for(self, key: PlanKey) -> Dict[str, str]:
        return {
            "device": device_fingerprint_for(key.device),
            "cost_model": cost_model_fingerprint(),
        }

    def _entry_is_stale(self, entry: StoreEntry) -> bool:
        if not self._check_fingerprints:
            return False
        current_device = device_fingerprint_for(entry.key.device)
        if (
            entry.device_fingerprint
            and current_device
            and entry.device_fingerprint != current_device
        ):
            return True
        return bool(
            entry.cost_model_fingerprint
            and entry.cost_model_fingerprint != cost_model_fingerprint()
        )

    # -- writes ---------------------------------------------------------------

    @staticmethod
    def artifact_text(artifact: PlanArtifact) -> str:
        """The exact bytes an artifact stores as (newline-terminated)."""
        return artifact.to_json() + "\n"

    def write_object(self, artifact: PlanArtifact) -> str:
        """Write the artifact's content-addressed object file; return sha.

        Safe from any process: the write is atomic and the path is a
        pure function of the content, so racing writers converge on the
        same bytes.  Does *not* touch the manifest.
        """
        text = self.artifact_text(artifact)
        sha = sha256_text(text)
        path = self.object_path(sha)
        if not path.exists():
            atomic_write_text(path, text)
        return sha

    def put(self, artifact: PlanArtifact) -> StoreEntry:
        """Store an artifact and index it under its key's slug."""
        sha = self.write_object(artifact)
        entry = StoreEntry(
            key=artifact.key,
            sha256=sha,
            size=len(self.artifact_text(artifact)),
            **{
                f"{k}_fingerprint": v
                for k, v in self._fingerprints_for(artifact.key).items()
            },
        )
        self._entries[artifact.key.slug()] = entry
        self._persist_manifest()
        return entry

    def register(self, key: PlanKey, sha256: str) -> StoreEntry:
        """Index an object some *other* process already wrote.

        This is the fleet-coordinator ingest path: a worker compiled the
        plan and wrote ``objects/<sha>.json``; the coordinator verifies
        the bytes really hash to ``sha256``, parse as a plan artifact,
        and carry ``key`` — then adds the manifest entry.  Any failure
        quarantines the object and raises, so a corrupted write is
        retried instead of poisoning the manifest.
        """
        path = self.object_path(sha256)
        slug = key.slug()
        try:
            text = path.read_text()
        except OSError as exc:
            raise ReproError(
                f"plan object {path} is unreadable: {exc}"
            ) from exc
        actual = sha256_text(text)
        if actual != sha256:
            self._quarantine_object(
                slug, path, expected_sha=sha256,
                reason=(
                    f"content hashes to {actual[:12]}…, expected "
                    f"{sha256[:12]}… (corrupted write)"
                ),
                network=key.network,
            )
            raise ReproError(
                f"plan object for {slug} failed its content check "
                f"and was quarantined"
            )
        try:
            artifact = PlanArtifact.from_json(text)
        except ReproError as exc:
            self._quarantine_object(
                slug, path, expected_sha=sha256,
                reason=f"undecodable artifact: {exc}",
                network=key.network,
            )
            raise ReproError(
                f"plan object for {slug} is undecodable and was "
                f"quarantined"
            ) from exc
        if artifact.key != key:
            raise ReproError(
                f"plan object {sha256[:12]}… was compiled under "
                f"{artifact.key.slug()!r}, not {slug!r}"
            )
        entry = StoreEntry(
            key=key,
            sha256=sha256,
            size=len(text),
            **{
                f"{k}_fingerprint": v
                for k, v in self._fingerprints_for(key).items()
            },
        )
        self._entries[slug] = entry
        self._persist_manifest()
        return entry

    # -- reads ----------------------------------------------------------------

    def get(self, key: PlanKey) -> Optional[PlanArtifact]:
        """Load the artifact for ``key``; None on miss/stale/corrupt.

        Corruption anywhere on the read path (object bytes not hashing
        to their name, undecodable JSON, artifact checksum mismatch,
        wrong embedded key) quarantines the object and degrades to a
        miss — the caller re-tunes, the evidence is preserved.
        """
        slug = key.slug()
        entry = self._entries.get(slug)
        if entry is None:
            self.misses += 1
            return None
        if self._entry_is_stale(entry):
            self.stale_misses += 1
            self.misses += 1
            _LOG.warning(
                "plan-store entry %s is stale (producer fingerprint "
                "drift); re-tune or sweep_stale()", slug,
            )
            return None
        path = self.object_path(entry.sha256)
        try:
            text = path.read_text()
        except OSError as exc:
            self._drop_entry(
                slug, path, entry, f"object missing/unreadable: {exc}"
            )
            return None
        if sha256_text(text) != entry.sha256:
            self._drop_entry(
                slug, path, entry,
                "object bytes do not hash to their address",
            )
            return None
        try:
            artifact = PlanArtifact.from_json(text)
        except ReproError as exc:
            self._drop_entry(slug, path, entry, f"undecodable: {exc}")
            return None
        if artifact.key != key:
            self._drop_entry(
                slug, path, entry,
                f"object carries key {artifact.key.slug()!r}",
            )
            return None
        self.hits += 1
        return artifact

    def contains(self, key: PlanKey) -> bool:
        return key.slug() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Dict[str, StoreEntry]:
        """Slug → entry snapshot (sorted)."""
        return {
            slug: self._entries[slug] for slug in sorted(self._entries)
        }

    # -- invalidation ---------------------------------------------------------

    def stale_entries(self) -> List[str]:
        """Slugs whose producing fingerprints no longer match this build."""
        return sorted(
            slug for slug, entry in self._entries.items()
            if self._entry_is_stale(entry)
        )

    def sweep_stale(self) -> List[str]:
        """Remove every stale entry (and object); returns their slugs."""
        stale = self.stale_entries()
        for slug in stale:
            entry = self._entries.pop(slug)
            path = self.object_path(entry.sha256)
            if path.exists():
                path.unlink()
        if stale:
            self._persist_manifest()
        return stale

    def sweep_tmp(self) -> List[Path]:
        """Collect torn-write corpses under the store's directories."""
        removed = sweep_tmp_files(self.root)
        removed += sweep_tmp_files(self.objects_dir)
        return removed

    def rebuild(self) -> int:
        """Re-index the manifest from the object files themselves.

        Objects are self-describing (each embeds its key), so a lost or
        quarantined manifest is recoverable: scan ``objects/``, verify
        each file hashes to its address and decodes, and rebuild the
        entries.  Undecodable objects are quarantined.  Returns the
        number of indexed entries.
        """
        self._entries = {}
        for path in sorted(self.objects_dir.glob("*.json")):
            sha = path.stem
            text = path.read_text()
            if sha256_text(text) != sha:
                self._quarantine_object(
                    path.stem[:12], path, expected_sha=sha,
                    reason="object bytes do not hash to their address",
                    network="",
                )
                continue
            try:
                artifact = PlanArtifact.from_json(text)
            except ReproError as exc:
                self._quarantine_object(
                    path.stem[:12], path, expected_sha=sha,
                    reason=f"undecodable during rebuild: {exc}",
                    network="",
                )
                continue
            entry = StoreEntry(
                key=artifact.key,
                sha256=sha,
                size=len(text),
                **{
                    f"{k}_fingerprint": v
                    for k, v in self._fingerprints_for(
                        artifact.key
                    ).items()
                },
            )
            self._entries[artifact.key.slug()] = entry
        self._persist_manifest()
        return len(self._entries)

    # -- quarantine -----------------------------------------------------------

    def _drop_entry(
        self, slug: str, path: Path, entry: StoreEntry, reason: str
    ) -> None:
        """Corrupt-read bookkeeping: quarantine + de-index + count a miss."""
        self._entries.pop(slug, None)
        self._quarantine_object(
            slug, path, expected_sha=entry.sha256, reason=reason,
            network=entry.key.network,
        )
        self._persist_manifest()
        self.misses += 1

    def _quarantine_object(
        self,
        slug: str,
        path: Path,
        *,
        expected_sha: str,
        reason: str,
        network: str,
    ) -> None:
        self._quarantine_file(
            path, label=slug, expected_sha=expected_sha, reason=reason
        )
        self.quarantined += 1
        _LOG.warning(
            "quarantined plan object for %s (%s)", slug, reason,
        )
        if self._obs is not None and getattr(self._obs, "enabled", False):
            from ..obs.provenance import DegradationRecord

            self._obs.provenance.record_degradation(DegradationRecord(
                network=network,
                tenant="",
                t_s=0.0,
                trigger="artifact_corrupt",
                action="quarantine",
                reason=reason,
            ))
            self._obs.metrics.counter(
                "plan_store_quarantined_total",
                "Corrupt plan objects moved to quarantine.",
            ).inc()

    def _quarantine_file(
        self, path: Path, *, label: str, expected_sha: str, reason: str
    ) -> None:
        """Move ``path`` into quarantine/ with a provenance sidecar."""
        if not path.exists():
            return
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        prefix = expected_sha[:12] if expected_sha else "manifest"
        target = self.quarantine_dir / f"{label}.{prefix}.json"
        counter = 0
        while target.exists():
            counter += 1
            target = self.quarantine_dir / f"{label}.{prefix}.{counter}.json"
        path.replace(target)
        record = {
            "schema": QUARANTINE_SCHEMA,
            "label": label,
            "expected_sha256": expected_sha,
            "quarantined_as": target.name,
            "reason": reason,
        }
        atomic_write_text(
            target.with_name(target.name + ".record"),
            json.dumps(record, indent=1, sort_keys=True) + "\n",
        )

    def quarantine_records(self) -> List[Dict[str, object]]:
        """Parsed provenance sidecars of everything ever quarantined."""
        records: List[Dict[str, object]] = []
        if not self.quarantine_dir.is_dir():
            return records
        for path in sorted(self.quarantine_dir.glob("*.record")):
            try:
                data = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if (
                isinstance(data, dict)
                and data.get("schema") == QUARANTINE_SCHEMA
            ):
                records.append(data)
        return records


__all__ = [
    "MANIFEST_NAME",
    "OBJECTS_DIR",
    "PlanStore",
    "QUARANTINE_DIR",
    "QUARANTINE_SCHEMA",
    "STORE_SCHEMA",
    "STORE_VERSION",
    "StoreEntry",
]

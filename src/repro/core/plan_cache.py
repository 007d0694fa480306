"""Shared cache of compiled plans (in-memory LRU + optional store).

Tuning is by far the most expensive operation in the system (two
profiling passes plus up to ``max_feedback_rounds`` measured runs), yet
its result is fully determined by *(network, device, batch size,
precision, ablation flags, objective)* — the simulator is deterministic.
A serving system dispatching batches of varying sizes would otherwise
re-tune the same (model, batch) pair on every dispatch.

:class:`PlanCache` memoizes :class:`~repro.compile.artifact.PlanArtifact`
objects under exactly that key: the same records the plan store holds,
for every device kind (EdgeNN-tuned plans and the fixed baseline plans
of non-integrated devices alike).  :class:`~repro.core.engine.EdgeNN`
consults the process-wide default cache whenever the network was given
by *name* (custom :class:`~repro.nn.graph.NetworkGraph` objects are
never cached — two different user graphs may share a name), and so do
the simulators' service-time models.

Attach a :class:`~repro.store.plan_store.PlanStore` and the cache
becomes its read-through client: every freshly compiled artifact is
``put`` into the store, and a later process (or an ahead-of-time
``repro tune-fleet`` run) warm-starts from it with *zero* tuner rounds.
The store fingerprints each entry, so a plan built under another device
spec or cost model is a miss and is compiled again, never served.
Store loads count as hits and are additionally reported in
:attr:`PlanCache.disk_hits`.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Union, TYPE_CHECKING

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from ..compile.artifact import PlanArtifact
    from ..store.plan_store import PlanStore


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ReproError(f"PlanKey.from_config: {message}")


@dataclass(frozen=True)
class PlanKey:
    """Cache key: everything the tuning outcome depends on."""

    network: str
    device: str
    batch_size: int
    precision: str
    use_memory_management: bool
    use_hybrid_execution: bool
    use_inter_kernel: bool
    use_intra_kernel: bool
    objective: str

    _FLAGS = (
        "use_memory_management",
        "use_hybrid_execution",
        "use_inter_kernel",
        "use_intra_kernel",
    )

    @classmethod
    def from_config(cls, network: str, device: str, config) -> "PlanKey":
        """Build a key from an engine/tuner config object.

        The config is duck-typed (:class:`~repro.core.engine.EdgeNNConfig`
        or anything shaped like it), so every field is validated here and
        a :class:`~repro.errors.ReproError` names exactly what is missing
        or mistyped instead of a late ``AttributeError`` deep in a cache
        lookup.
        """
        _require(isinstance(network, str) and bool(network),
                 f"network must be a non-empty string, got {network!r}")
        _require(isinstance(device, str) and bool(device),
                 f"device must be a non-empty string, got {device!r}")
        batch = getattr(config, "batch_size", None)
        _require(isinstance(batch, int) and not isinstance(batch, bool)
                 and batch >= 1,
                 f"config.batch_size must be an int >= 1, got {batch!r}")
        precision = getattr(config, "precision", None)
        precision_value = getattr(precision, "value", None)
        _require(isinstance(precision_value, str),
                 f"config.precision must be a Precision enum, "
                 f"got {precision!r}")
        objective = getattr(config, "objective", None)
        objective_value = getattr(objective, "value", None)
        _require(isinstance(objective_value, str),
                 f"config.objective must be a TuningObjective enum, "
                 f"got {objective!r}")
        flags = {}
        for flag in cls._FLAGS:
            value = getattr(config, flag, None)
            _require(isinstance(value, bool),
                     f"config.{flag} must be a bool, got {value!r}")
            flags[flag] = value
        return cls(
            network=network,
            device=device,
            batch_size=batch,
            precision=precision_value,
            objective=objective_value,
            **flags,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (round-trips via :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PlanKey":
        """Inverse of :meth:`to_dict`; raises ReproError on bad data."""
        names = {f.name for f in fields(cls)}
        missing = names - set(data)
        if missing:
            raise ReproError(
                f"plan key record is missing fields {sorted(missing)}"
            )
        kwargs = {}
        for f in fields(cls):
            value = data[f.name]
            if f.type == "str" and not isinstance(value, str):
                raise ReproError(
                    f"plan key field {f.name!r} must be a string, "
                    f"got {value!r}"
                )
            if f.type == "bool" and not isinstance(value, bool):
                raise ReproError(
                    f"plan key field {f.name!r} must be a bool, got {value!r}"
                )
            if f.type == "int" and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise ReproError(
                    f"plan key field {f.name!r} must be an int, got {value!r}"
                )
            kwargs[f.name] = value
        return cls(**kwargs)

    def slug(self) -> str:
        """Human-readable, filesystem-safe identifier for this key."""
        flags = "".join(
            "1" if getattr(self, flag) else "0" for flag in self._FLAGS
        )
        raw = (
            f"{self.network}__{self.device}__b{self.batch_size}"
            f"__{self.precision}__{self.objective}__{flags}"
        )
        return re.sub(r"[^A-Za-z0-9._-]+", "-", raw)


@dataclass(frozen=True)
class PlanCacheStats:
    """A cache's counters at one instant.

    A run brackets itself with two snapshots and reports the difference.
    """

    hits: int
    misses: int
    disk_hits: int
    corrupt_loads: int
    entries: int

    def delta(self, before: "PlanCacheStats") -> "PlanCacheStats":
        """Counter traffic since ``before`` (entries is the *current* size)."""
        return PlanCacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            disk_hits=self.disk_hits - before.disk_hits,
            corrupt_loads=self.corrupt_loads - before.corrupt_loads,
            entries=self.entries,
        )


class PlanCache:
    """LRU cache of plan artifacts keyed by :class:`PlanKey`.

    ``store`` adds the persistent tier: the cache becomes a thin
    read-through client of a content-addressed
    :class:`~repro.store.plan_store.PlanStore` (the fleet-tuned plan
    database).  Store hits count as ``disk_hits``; fresh compiles are
    ``put`` back into the store, so tuning survives process restarts.
    """

    def __init__(
        self,
        capacity: int = 128,
        store: Optional["PlanStore"] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[PlanKey, PlanArtifact]" = OrderedDict()
        self._plan_store = store
        self.hits = 0
        self.misses = 0
        #: hits served from the plan store (subset of ``hits``).
        self.disk_hits = 0
        #: store objects that failed to load (corrupt / truncated /
        #: checksum mismatch / wrong key); each also counted as a miss.
        self.corrupt_loads = 0

    @property
    def store(self) -> Optional["PlanStore"]:
        return self._plan_store

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._entries

    def stats(self) -> PlanCacheStats:
        """Snapshot of the hit/miss counters and entry count."""
        return PlanCacheStats(
            hits=self.hits,
            misses=self.misses,
            disk_hits=self.disk_hits,
            corrupt_loads=self.corrupt_loads,
            entries=len(self._entries),
        )

    def get_or_tune(
        self, key: PlanKey, tune: Callable[[], "PlanArtifact"]
    ) -> "PlanArtifact":
        """Return the artifact for ``key``, compiling it on first use.

        Lookup order: in-memory LRU, then the plan store (if attached),
        then ``tune()``, whose artifact is also put into the store.
        """
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        loaded = self._load_from_store(key)
        if loaded is not None:
            self.hits += 1
            self.disk_hits += 1
            self._store(key, loaded)
            return loaded
        self.misses += 1
        artifact = tune()
        self._store(key, artifact)
        if self._plan_store is not None:
            self._plan_store.put(artifact)
        return artifact

    def invalidate(self, key: PlanKey) -> bool:
        """Drop ``key``'s in-memory entry (graceful degradation: a plan
        whose predicted cost has drifted from reality must be re-tuned).

        The store entry stays: it is still valid for the device spec and
        cost model that built it.  Returns whether an entry was dropped.
        """
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters.

        Plan-store entries are left on disk (they are the whole point
        of persistence); delete the store directory to clear those too.
        """
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt_loads = 0

    # -- internals ------------------------------------------------------------

    def _store(self, key: PlanKey, artifact: "PlanArtifact") -> None:
        self._entries[key] = artifact
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def _load_from_store(self, key: PlanKey) -> Optional["PlanArtifact"]:
        """Read-through to the attached plan store, if any.

        The store does its own integrity work (content-hash check,
        checksum, key equality, staleness fingerprints, quarantine on
        corruption) and degrades every failure to ``None``; corrupt
        store objects also bump our ``corrupt_loads``.
        """
        if self._plan_store is None:
            return None
        quarantined_before = self._plan_store.quarantined
        artifact = self._plan_store.get(key)
        self.corrupt_loads += self._plan_store.quarantined - quarantined_before
        return artifact


_DEFAULT: Optional[PlanCache] = None


def default_plan_cache() -> PlanCache:
    """The process-wide cache :class:`~repro.core.engine.EdgeNN` uses."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PlanCache()
    return _DEFAULT


def configure_default_plan_cache(
    store_dir: Optional[Union[str, Path]] = None,
) -> PlanCache:
    """Replace the process-wide cache.  ``store_dir`` attaches a
    content-addressed :class:`~repro.store.plan_store.PlanStore` (what
    ``repro tune-fleet`` produces; an empty or missing directory becomes
    a store on its first write) for ahead-of-time-tuned serving.
    Returns the new cache."""
    global _DEFAULT
    store: Optional["PlanStore"] = None
    if store_dir is not None:
        from ..store.plan_store import PlanStore

        store = PlanStore(store_dir)
    _DEFAULT = PlanCache(store=store)
    return _DEFAULT


def clear_plan_cache() -> None:
    """Drop every cached plan (tests / memory pressure)."""
    if _DEFAULT is not None:
        _DEFAULT.clear()

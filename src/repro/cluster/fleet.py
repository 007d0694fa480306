"""Fleet model: replicas, device mixes, and per-model pools.

A *fleet* is hundreds-to-thousands of :class:`Replica` objects — one
simulated edge device each, drawn from the hardware catalog — grouped
into per-model :class:`Pool` s.  Every replica wraps a per-device-spec
:class:`~repro.serving.simulator.ServiceTimeModel` (shared across all
replicas on the same spec, so each (network, device, batch) tunes
exactly once per process through the global plan cache) and a bounded
FIFO queue driven by the cluster event loop.  The model tunes EdgeNN
plans on integrated CPU-GPU devices and runs the paper's fixed
baseline plans (all-CPU, or the original GPU program) on the rest.

Device diversity is the point: DeepEdgeBench-style fleets mix Jetson,
Raspberry Pi, phone SoCs, and cloud hosts whose service times for the
same model differ by an order of magnitude, which is what makes the
routing policy (:mod:`repro.cluster.router`) matter.  A
:class:`DeviceMix` describes that composition declaratively, including
a share of thermally throttled variants derived through
:func:`repro.hardware.throttle.apply_throttle`.

Everything here is deterministic: replica identity, device assignment,
fault assignment, and the per-replica randomness stream are all pure
functions of (mix, seed, replica index).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..faults import FaultInjector, FaultScenario
from ..hardware.specs import DeviceSpec
from ..hardware.throttle import ThrottleFactors, apply_throttle
from ..hardware.variants import full_catalog
from ..obs import NOOP_OBS, Observability
from ..serving.batcher import BatchPolicy
from ..serving.simulator import BatchServiceTime, ServiceTimeModel


def stable_hash(*parts: object) -> int:
    """Deterministic 64-bit hash of the given parts (never Python's
    randomized ``hash``): the seed substrate for per-replica streams."""
    blob = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def unit_fraction(*parts: object) -> float:
    """Deterministic draw in [0, 1) keyed by the given parts."""
    return stable_hash(*parts) / float(2 ** 64)


#: Default DVFS operating point for the throttled share of a mix: the
#: GPU is cut hardest (hottest block), tracking the thermal windows the
#: fault catalog uses.
DEFAULT_THROTTLE = ThrottleFactors(cpu=0.8, gpu=0.6, bandwidth=0.8)


@dataclass(frozen=True)
class DeviceMix:
    """Declarative fleet composition: weighted catalog devices.

    ``entries`` is a sequence of (catalog device name, integer weight);
    replicas are assigned device specs by cycling through the weighted
    sequence, so a mix of ``(("jetson-agx-xavier", 2), ("raspberry-pi-4",
    1))`` yields two Jetsons for every Pi regardless of fleet size.

    ``throttled_share`` in [0, 1] derives that fraction of replicas as
    thermally throttled variants of their assigned device (first-class
    :class:`DeviceSpec` s via :func:`apply_throttle`), modeling the part
    of a real fleet that sits in hot enclosures or on degraded power.
    """

    entries: Tuple[Tuple[str, int], ...]
    throttled_share: float = 0.0
    throttle: ThrottleFactors = field(default_factory=lambda: DEFAULT_THROTTLE)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ReproError("a device mix needs at least one device")
        catalog = full_catalog()
        for name, weight in self.entries:
            if name not in catalog:
                raise ReproError(
                    f"unknown device {name!r} in mix; "
                    f"available: {sorted(catalog)}"
                )
            if not isinstance(weight, int) or weight < 1:
                raise ReproError(
                    f"mix weight for {name!r} must be an int >= 1, "
                    f"got {weight!r}"
                )
        if not 0.0 <= self.throttled_share <= 1.0:
            raise ReproError(
                f"throttled_share must be in [0, 1], "
                f"got {self.throttled_share}"
            )

    @classmethod
    def parse(
        cls,
        text: str,
        *,
        throttled_share: float = 0.0,
        throttle: Optional[ThrottleFactors] = None,
    ) -> "DeviceMix":
        """Parse ``"name[:weight],name[:weight],..."`` (CLI form)."""
        entries: List[Tuple[str, int]] = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            name, _, weight_text = token.partition(":")
            try:
                weight = int(weight_text) if weight_text else 1
            except ValueError:
                raise ReproError(
                    f"mix weight must be an integer, got {token!r}"
                ) from None
            entries.append((name, weight))
        if not entries:
            raise ReproError(f"empty device mix: {text!r}")
        return cls(
            entries=tuple(entries),
            throttled_share=throttled_share,
            throttle=throttle or DEFAULT_THROTTLE,
        )

    def _cycle(self) -> List[str]:
        cycle: List[str] = []
        for name, weight in self.entries:
            cycle.extend([name] * weight)
        return cycle

    def spec_for(self, index: int) -> DeviceSpec:
        """Device spec of the ``index``-th replica of this mix.

        Pure function of (mix, index): the weighted cycle picks the base
        device, and the throttled share is spread evenly along the
        sequence (replica ``i`` is throttled when the running share
        crosses an integer at ``i``), so any prefix of the fleet has the
        composition the mix declares.
        """
        if index < 0:
            raise ReproError(f"replica index must be >= 0, got {index}")
        cycle = self._cycle()
        catalog = full_catalog()
        spec = catalog[cycle[index % len(cycle)]]
        share = self.throttled_share
        throttled = int((index + 1) * share) > int(index * share)
        if throttled and not self.throttle.is_noop:
            spec = apply_throttle(spec, self.throttle)
        return spec

    def describe(self) -> str:
        parts = [f"{name}:{weight}" for name, weight in self.entries]
        text = ",".join(parts)
        if self.throttled_share > 0:
            text += f" ({self.throttled_share:.0%} throttled)"
        return text


def base_device_name(spec_name: str) -> str:
    """Catalog name with any throttle suffix stripped
    (``jetson-agx-xavier@thr-...`` -> ``jetson-agx-xavier``)."""
    return spec_name.split("@", 1)[0]


class Replica:
    """One simulated device instance serving one model pool.

    Holds the bounded FIFO queue (arrival instants only — at fleet scale
    requests are float timestamps, not objects), the busy horizon, and
    its batch count, which keys its fault draws.  Request outcomes,
    busy time and energy are not counted here: the simulator derives
    them from its logs after the run.  ``version`` increments on every
    routing-relevant state change so the routers' lazy heaps can discard
    stale entries in O(1).  ``warm_s[size]`` is the nominal warm service
    time of a batch of ``size``, looked up in the model on first use.
    """

    __slots__ = (
        "name", "idx", "spec", "pool_name", "network", "model",
        "queue", "busy_until", "version", "active", "draining",
        "created_s", "retired_s", "batches",
        "svc1_s", "unit_s", "unit_energy_j", "warm_s", "faults", "injector",
    )

    def __init__(
        self,
        name: str,
        spec: DeviceSpec,
        pool_name: str,
        network: str,
        model: ServiceTimeModel,
        *,
        idx: int = 0,
        max_batch: int,
        created_s: float = 0.0,
        faults: Optional[FaultScenario] = None,
        seed: int = 0,
    ) -> None:
        self.name = name
        #: fleet-wide creation index: the deterministic heap tie-break
        #: the routers use (``id()`` would vary run to run).
        self.idx = idx
        self.spec = spec
        self.pool_name = pool_name
        self.network = network
        self.model = model
        self.queue: Deque[float] = deque()
        self.busy_until = 0.0
        self.version = 0
        self.active = True
        self.draining = False
        self.created_s = created_s
        self.retired_s: Optional[float] = None
        self.batches = 0
        # Predicted costs from the compiled plan (nominal device): the
        # numbers plan_cost routing ranks replicas by.  Computing them
        # here is the only tuning a replica ever triggers, and it is
        # memoized per device spec through the shared plan cache.
        svc1 = model.service(network, 1)
        svc_b = model.service(network, max_batch)
        self.svc1_s = svc1.total_s
        self.unit_s = svc_b.total_s / max_batch
        self.unit_energy_j = svc_b.energy_j / max_batch
        self.warm_s: List[Optional[BatchServiceTime]] = [None] * (
            max_batch + 1
        )
        self.faults = faults
        # Per-replica deterministic fault draws: each faulted replica
        # gets its own injector stream keyed by (run seed, replica
        # name), so adding a replica never perturbs another's faults.
        self.injector: Optional[FaultInjector] = (
            None if faults is None
            else FaultInjector(faults, seed=stable_hash(seed, name))
        )

    @property
    def routable(self) -> bool:
        """True while the router may send new requests here."""
        return self.active and not self.draining

    @property
    def depth(self) -> int:
        return len(self.queue)

    def predicted_wait_s(self, now: float) -> float:
        """Predicted queueing delay for a request arriving at ``now``:
        the remaining busy time plus the amortized cost of everything
        already queued (the compiled plan's per-request unit cost)."""
        return max(0.0, self.busy_until - now) + self.depth * self.unit_s

    def predicted_latency_s(self, now: float) -> float:
        """Predicted completion delay: wait plus own service."""
        return self.predicted_wait_s(now) + self.svc1_s

    def utilization(self, busy_s: float, makespan_s: float) -> float:
        """Share of this replica's lifetime within the run that
        ``busy_s`` of device time covers."""
        end = self.retired_s if self.retired_s is not None else makespan_s
        alive = end - self.created_s
        if alive <= 0.0:
            return 0.0
        return min(1.0, busy_s / alive)


class Pool:
    """All replicas serving one model, plus its scaling counters
    (request outcomes and batch counts come from the simulator's
    logs)."""

    __slots__ = (
        "name", "network", "policy", "replicas",
        "scale_ups", "scale_downs", "replicas_start", "rr_index",
    )

    def __init__(
        self, name: str, network: str, policy: BatchPolicy
    ) -> None:
        self.name = name
        self.network = network
        self.policy = policy
        self.replicas: List[Replica] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self.replicas_start = 0
        self.rr_index = 0

    @property
    def active_replicas(self) -> List[Replica]:
        return [r for r in self.replicas if r.routable]


class Fleet:
    """Builds and grows the replica population for a set of model pools.

    One :class:`ServiceTimeModel` is kept per distinct device spec, so
    however many replicas share a spec, each (network, batch, variant)
    combination compiles exactly once — plans are per-device assets, the
    fleet's hot path never tunes.
    """

    def __init__(
        self,
        mix: DeviceMix,
        pools: Sequence[Tuple[str, int]],
        *,
        policy: Optional[BatchPolicy] = None,
        seed: int = 0,
        faults: Optional[FaultScenario] = None,
        fault_share: float = 0.25,
        fault_stagger_s: float = 0.0,
        obs: Optional[Observability] = None,
    ) -> None:
        if not pools:
            raise ReproError("a fleet needs at least one model pool")
        if not 0.0 <= fault_share <= 1.0:
            raise ReproError(
                f"fault_share must be in [0, 1], got {fault_share}"
            )
        self.mix = mix
        self.policy = policy or BatchPolicy(max_wait_s=0.0)
        self.seed = seed
        self.faults = faults
        self.fault_share = fault_share
        self.fault_stagger_s = fault_stagger_s
        self._obs = obs if obs is not None else NOOP_OBS
        self._models: Dict[str, ServiceTimeModel] = {}
        #: per-pool count of replicas ever created (names + mix cycle).
        self._counters: Dict[str, int] = {}
        #: fleet-wide creation count (deterministic replica indices).
        self._created = 0
        self.pools: List[Pool] = []
        seen = set()
        for network, count in pools:
            if network in seen:
                raise ReproError(f"duplicate pool for network {network!r}")
            if count < 1:
                raise ReproError(
                    f"pool {network!r} needs at least one replica, "
                    f"got {count}"
                )
            seen.add(network)
            pool = Pool(network, network, self.policy)
            self.pools.append(pool)
            self._counters[network] = 0
            for _ in range(count):
                self.add_replica(pool, now=0.0)
            pool.replicas_start = len(pool.replicas)

    def model_for(self, spec: DeviceSpec) -> ServiceTimeModel:
        """Shared per-spec service model: EdgeNN-tuned plans for
        integrated devices, the paper's baseline paths (all-CPU /
        GPU-only) for everything else."""
        model = self._models.get(spec.name)
        if model is None:
            model = self._models[spec.name] = ServiceTimeModel(
                spec, obs=self._obs
            )
        return model

    def _fault_copy(self, name: str) -> Optional[FaultScenario]:
        """This replica's fault scenario, or None for the healthy share.

        Which replicas are faulted, and each faulted replica's window
        phase, are deterministic draws keyed by (seed, replica name) —
        adding a replica never re-rolls anyone else's faults.
        """
        if self.faults is None or self.fault_share <= 0.0:
            return None
        if unit_fraction(self.seed, name, "faulted") >= self.fault_share:
            return None
        offset = unit_fraction(self.seed, name, "phase") * self.fault_stagger_s
        return self.faults.shifted(offset)

    def add_replica(self, pool: Pool, *, now: float) -> Replica:
        """Create, register, and return one new replica for ``pool``."""
        index = self._counters[pool.name]
        self._counters[pool.name] = index + 1
        self._created += 1
        spec = self.mix.spec_for(index)
        name = f"{pool.name}#{index}"
        replica = Replica(
            name,
            spec,
            pool.name,
            pool.network,
            self.model_for(spec),
            idx=self._created,
            max_batch=self.policy.max_batch_size,
            created_s=now,
            faults=self._fault_copy(name),
            seed=self.seed,
        )
        pool.replicas.append(replica)
        return replica

    def replica_count(self) -> int:
        return sum(len(p.replicas) for p in self.pools)

    def device_counts(self) -> Dict[str, int]:
        """Replicas ever created per base catalog device."""
        counts: Dict[str, int] = {}
        for pool in self.pools:
            for replica in pool.replicas:
                base = base_device_name(replica.spec.name)
                counts[base] = counts.get(base, 0) + 1
        return counts


__all__ = [
    "DEFAULT_THROTTLE",
    "DeviceMix",
    "Fleet",
    "Pool",
    "Replica",
    "base_device_name",
    "stable_hash",
    "unit_fraction",
]

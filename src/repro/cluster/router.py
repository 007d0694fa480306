"""Routing policies: which replica gets the next request.

Three policies, one protocol:

``round_robin``
    Cycle through the pool's routable replicas.  Device-blind — the
    baseline every fleet paper compares against, and the one that falls
    over on heterogeneous hardware because a Raspberry Pi receives the
    same share as a desktop GPU host.

``least_queue``
    Route to the replica with the shallowest queue.  Load-aware but
    still device-blind: five requests queued on a fast device often
    finish before one queued on a slow one.

``plan_cost``
    Route to the replica whose *compiled plan* predicts the best
    completion (or energy, under ``objective="energy"``) for this
    request: predicted queue wait plus the device's tuned single-request
    service time.  This is the cluster-level payoff of per-device plan
    compilation — the tuner's cost model becomes the routing metric, no
    probing required.

Scale note: the event loop routes ~10^6 requests across ~10^3 replicas,
so per-request work must be O(log n), not O(n).  ``least_queue`` and
``plan_cost`` keep lazy heaps with per-replica version stamps: state
changes bump :attr:`Replica.version` via :meth:`Router.note`, pushes are
O(log n), and stale entries are discarded on pop.  For ``plan_cost`` the
heap keys must be *time-invariant while a replica's state is unchanged*
or lazy deletion would be unsound; see :class:`PlanCostRouter` for the
two-heap construction that achieves this exactly (and makes the
never-picks-a-dominated-replica property testable, not approximate).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from .fleet import Pool, Replica


class Router:
    """Per-pool routing policy.

    The simulator calls :meth:`choose` once per admitted request and
    :meth:`note` after any replica state change that affects routing
    (enqueue, dispatch, completion, drain, retire).  Policies keep their
    own indexes; ``note`` is how they stay consistent without the event
    loop knowing what the policy indexes.
    """

    name = "base"

    def __init__(self, pool: Pool) -> None:
        self.pool = pool
        for replica in pool.replicas:
            if replica.routable:
                self.on_replica_added(replica)

    def choose(self, now: float, tenant: str) -> Optional[Replica]:
        """Pick a routable replica, or None when the pool is empty."""
        raise NotImplementedError

    def note(self, replica: Replica, now: float) -> None:
        """Observe a state change on ``replica`` (already version-bumped)."""

    def on_replica_added(self, replica: Replica) -> None:
        """Observe a replica joining the routable set."""


class RoundRobinRouter(Router):
    """Cycle through routable replicas in creation order."""

    name = "round_robin"

    def choose(self, now: float, tenant: str) -> Optional[Replica]:
        replicas = self.pool.replicas
        n = len(replicas)
        for _ in range(n):
            replica = replicas[self.pool.rr_index % n]
            self.pool.rr_index += 1
            if replica.routable:
                return replica
        return None


class LeastQueueRouter(Router):
    """Route to the replica with the fewest requests in flight.

    Lazy min-heap of ``(depth, version, idx)``; entries whose version no
    longer matches the replica's are stale and dropped on pop.
    """

    name = "least_queue"

    def __init__(self, pool: Pool) -> None:
        self._heap: List[Tuple[int, int, int, Replica]] = []
        super().__init__(pool)

    def _push(self, replica: Replica) -> None:
        heapq.heappush(
            self._heap,
            (replica.depth, replica.version, replica.idx, replica),
        )

    def on_replica_added(self, replica: Replica) -> None:
        self._push(replica)

    def note(self, replica: Replica, now: float) -> None:
        if replica.routable:
            self._push(replica)

    def choose(self, now: float, tenant: str) -> Optional[Replica]:
        heap = self._heap
        while heap:
            depth, version, _, replica = heap[0]
            if version != replica.version or not replica.routable:
                heapq.heappop(heap)
                continue
            return replica
        return None


_INF = float("inf")

#: Routing objective: minimize predicted latency or predicted energy.
Objective = str
LATENCY: Objective = "latency"
ENERGY: Objective = "energy"


class PlanCostRouter(Router):
    """Route to the replica whose compiled plan predicts the best cost.

    **Latency objective.**  The predicted completion delay for a request
    arriving at ``now`` is ``wait(now) + svc1`` where ``wait(now) =
    max(0, busy_until - now) + depth * unit_s``.  That quantity changes
    as the clock advances, which a single lazy heap cannot order.  Two
    heaps restore exact argmin with time-invariant keys:

    - *idle heap*: replicas with ``busy_until <= now`` and empty queue
      cost exactly ``svc1_s`` — constant.  Keyed by ``svc1_s``.
    - *busy heap*: replicas with pending work cost ``(busy_until +
      depth * unit_s + svc1_s) - now``.  The parenthesized part — the
      predicted absolute completion instant — is constant while state is
      unchanged.  Keyed by that instant.

    A replica sits in exactly one heap per (state, version); on pop the
    top of each heap is validated against the live replica and the two
    candidate costs are compared at the current clock.  Every state
    change re-files the replica, so both tops are exact minima and the
    chosen replica is the true argmin: it can never be strictly
    dominated on (predicted wait, predicted service) by another
    routable replica — the property test in
    ``tests/properties/test_router_properties.py`` exercises exactly
    this claim.

    **Energy objective.** Keys become ``(unit_energy_j, svc1_s)`` —
    time-invariant outright, one heap suffices (the idle heap is used).

    **Tenant affinity.** A sticky map remembers each tenant's last
    replica; it is reused when its current predicted cost is within
    ``affinity_slack`` of the optimum, keeping per-tenant state (warm
    caches, session KV) on one device without sacrificing more than the
    slack.
    """

    name = "plan_cost"

    def __init__(
        self,
        pool: Pool,
        *,
        objective: Objective = LATENCY,
        affinity_slack: float = 0.0,
    ) -> None:
        if objective not in (LATENCY, ENERGY):
            raise ReproError(
                f"unknown objective {objective!r}; "
                f"expected {LATENCY!r} or {ENERGY!r}"
            )
        if affinity_slack < 0.0:
            raise ReproError(
                f"affinity_slack must be >= 0, got {affinity_slack}"
            )
        self.objective = objective
        self.affinity_slack = affinity_slack
        #: idle replicas (latency) / all replicas (energy), keyed by a
        #: clock-free cost.
        self._idle: List[Tuple[float, int, int, Replica]] = []
        #: busy replicas keyed by predicted absolute completion instant.
        self._busy: List[Tuple[float, int, int, Replica]] = []
        self._sticky: Dict[str, Replica] = {}
        super().__init__(pool)

    # -- heap maintenance -------------------------------------------------

    def note(self, replica: Replica, now: float) -> None:
        """File a routable ``replica`` in the heap its current state
        belongs to.

        The idle heap takes replicas with no pending work *as of now* —
        their cost stays ``svc1_s`` until the next state change because
        the clock only moves forward.  Everything else goes in the busy
        heap keyed by its predicted absolute completion instant; every
        live busy entry has ``busy_until >= now`` (the completion event
        at ``busy_until`` re-files it), so within that heap cost is
        ``key - now`` and the top is the exact argmin.
        """
        if not replica.active or replica.draining:
            return
        if self.objective == ENERGY:
            heapq.heappush(
                self._idle,
                (replica.unit_energy_j, replica.version, replica.idx, replica),
            )
            return
        depth = len(replica.queue)
        if depth == 0 and replica.busy_until <= now:
            heapq.heappush(
                self._idle,
                (replica.svc1_s, replica.version, replica.idx, replica),
            )
        else:
            heapq.heappush(
                self._busy,
                (
                    replica.busy_until + depth * replica.unit_s
                    + replica.svc1_s,
                    replica.version, replica.idx, replica,
                ),
            )

    def on_replica_added(self, replica: Replica) -> None:
        self.note(replica, replica.created_s)

    # -- cost evaluation --------------------------------------------------

    def _cost(self, replica: Replica, now: float) -> float:
        if self.objective == ENERGY:
            return replica.unit_energy_j
        return replica.predicted_latency_s(now)

    def choose(self, now: float, tenant: str) -> Optional[Replica]:
        """The routable replica of least cost at ``now``.

        Each heap's top is validated in place (stale or unroutable
        entries are dropped) and costed with the float expression of
        :meth:`Replica.predicted_latency_s` (``wait if wait > 0.0 else
        0.0`` is ``max(0.0, wait)``), so ties resolve exactly as that
        method orders them; the idle top wins a tie.
        """
        best: Optional[Replica] = None
        best_cost = _INF
        energy = self.objective == ENERGY
        for heap in (self._idle, self._busy):
            while heap:
                _, version, _, replica = heap[0]
                if (
                    version != replica.version
                    or not replica.active or replica.draining
                ):
                    heapq.heappop(heap)
                    continue
                if energy:
                    cost = replica.unit_energy_j
                else:
                    wait = replica.busy_until - now
                    cost = (
                        (wait if wait > 0.0 else 0.0)
                        + len(replica.queue) * replica.unit_s
                    ) + replica.svc1_s
                if cost < best_cost:
                    best, best_cost = replica, cost
                break
        if best is None:
            return None
        if self.affinity_slack > 0.0:
            sticky = self._sticky.get(tenant)
            if (
                sticky is not None
                and sticky.routable
                and self._cost(sticky, now)
                <= best_cost * (1.0 + self.affinity_slack)
            ):
                return sticky
            self._sticky[tenant] = best
        return best


RouterFactory = Callable[[Pool], Router]

ROUTERS: Dict[str, RouterFactory] = {
    "round_robin": RoundRobinRouter,
    "least_queue": LeastQueueRouter,
    "plan_cost": PlanCostRouter,
}


def make_router(
    name: str,
    pool: Pool,
    *,
    objective: Objective = LATENCY,
    affinity_slack: float = 0.0,
) -> Router:
    """Instantiate the named policy for ``pool``."""
    if name not in ROUTERS:
        raise ReproError(
            f"unknown router {name!r}; available: {sorted(ROUTERS)}"
        )
    if name == "plan_cost":
        return PlanCostRouter(
            pool, objective=objective, affinity_slack=affinity_slack
        )
    return ROUTERS[name](pool)


__all__ = [
    "ENERGY",
    "LATENCY",
    "LeastQueueRouter",
    "PlanCostRouter",
    "ROUTERS",
    "RoundRobinRouter",
    "Router",
    "make_router",
]

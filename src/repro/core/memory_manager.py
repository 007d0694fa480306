"""Semantic-aware memory management (§IV-B).

Chooses one of the two memory usage mechanisms per buffer:

* zero-copy (``cudaMallocManaged``) for read-only parameters, inputs, and
  single-writer activations — eliminating explicit h2d/d2h copies;
* regular allocation (``cudaMalloc`` + ``cudaMemcpy``) for outputs that the
  CPU and GPU co-write in one step, where zero-copy's consistency cost
  would dwarf an explicit merge.

On non-integrated devices (discrete GPU) managed memory brings no benefit
(the paper: PCIe makes unified memory migration at least as expensive as
explicit copies), so everything stays REGULAR there regardless of policy.

When an :class:`~repro.obs.Observability` bundle is passed, every
placement decision is recorded in the provenance log together with the
estimated cost of each mechanism *considered* — the explicit-staging
cost a REGULAR allocation would pay versus the first-touch (or, for
co-written outputs, consistency-storm) cost of MANAGED — so a run can be
audited decision by decision.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from ..hardware import calibration as cal
from ..hardware.memory import AllocKind
from ..hardware.specs import DeviceSpec
from ..nn.graph import NetworkGraph
from ..obs import Observability
from ..obs.provenance import (
    MemoryPlacementRecord,
    PlacementCandidate,
    ProvenanceLog,
)
from .plan import Assignment, ExecutionPlan
from .semantics import BufferRole, classify_buffers, graph_buffers


class MemoryPolicy(enum.Enum):
    """Which allocation policy to apply (for ablation, Fig 8)."""

    ALL_REGULAR = "all_regular"       # the original programs' behaviour
    ALL_MANAGED = "all_managed"       # naive zero-copy everywhere
    SEMANTIC = "semantic"             # EdgeNN: choose by data semantics


def _placement_candidates(
    role: BufferRole,
    nbytes: float,
    copy_rate: Optional[float],
    copy_latency_s: float,
    cpu_fraction: float,
) -> tuple:
    """Estimated steady cost of each mechanism for one buffer.

    These are explanation-grade estimates (base buffer size, no
    contention): the simulator's memory model charges the exact costs at
    execution time.  What matters here is *which terms were compared* —
    explicit staging vs first-touch vs the co-write consistency storm.
    """
    if copy_rate is None or copy_rate <= 0:
        return ()
    if role is BufferRole.COWRITTEN_OUTPUT:
        regular = PlacementCandidate(
            kind=AllocKind.REGULAR.value,
            est_cost_s=copy_latency_s + cpu_fraction * nbytes / copy_rate,
            note=f"explicit merge of the CPU slice (Eq. 2, p={cpu_fraction:.3f})",
        )
        managed = PlacementCandidate(
            kind=AllocKind.MANAGED.value,
            est_cost_s=nbytes * cal.MANAGED_COWRITE_PENALTY_S_PER_BYTE,
            note="co-write consistency storm (fine-grained coherence)",
        )
    else:
        regular = PlacementCandidate(
            kind=AllocKind.REGULAR.value,
            est_cost_s=copy_latency_s + nbytes / copy_rate,
            note="explicit h2d staging through the copy engine",
        )
        managed = PlacementCandidate(
            kind=AllocKind.MANAGED.value,
            est_cost_s=nbytes * cal.MANAGED_FIRST_TOUCH_S_PER_BYTE,
            note="zero-copy: first-touch page set-up only",
        )
    return (managed, regular)


class MemoryPlacer:
    """The place stage's bound memory manager: one (graph, device, policy)
    binding whose per-buffer decisions are (re)applied whenever layer
    placements evolve — a split layer forces its output to REGULAR, so
    placement and allocation cannot be decided independently."""

    def __init__(
        self,
        graph: NetworkGraph,
        device: DeviceSpec,
        policy: MemoryPolicy = MemoryPolicy.SEMANTIC,
        *,
        obs: Optional[Observability] = None,
    ) -> None:
        self.graph = graph
        self.device = device
        self.policy = policy
        self._obs = obs

    def buffer_catalog(self) -> Dict[str, float]:
        """Every named buffer and its base (fp32, batch-1) byte size."""
        return dict(graph_buffers(self.graph).sizes)

    def apply(self, plan: ExecutionPlan, *, stage: str = "") -> Dict[str, AllocKind]:
        """Decide every buffer's mechanism for the plan's current placements."""
        return plan_allocations(
            self.graph, plan, self.device, self.policy,
            obs=self._obs, stage=stage,
        )


def _decide(
    role: BufferRole, policy: MemoryPolicy, managed_possible: bool
) -> Tuple[AllocKind, str]:
    """The mechanism for one buffer role, and why."""
    if not managed_possible or policy is MemoryPolicy.ALL_REGULAR:
        return AllocKind.REGULAR, (
            "managed memory unavailable on non-integrated device"
            if not managed_possible
            else "policy forces regular allocation (ablation)"
        )
    if policy is MemoryPolicy.ALL_MANAGED:
        return (
            AllocKind.MANAGED, "policy forces zero-copy everywhere (ablation)"
        )
    if role is BufferRole.COWRITTEN_OUTPUT:
        return AllocKind.REGULAR, (
            "both processors write slices in one step; explicit "
            "merge beats the zero-copy consistency storm"
        )
    return AllocKind.MANAGED, (
        "single-writer semantics; zero-copy eliminates the "
        "explicit transfer"
    )


class _Placements:
    """The decisions that depend only on (graph, policy, integrated), kept
    on the graph: every buffer's mechanism under a plan that splits
    nothing, and the mechanism of a split layer's output."""

    def __init__(
        self, graph: NetworkGraph, policy: MemoryPolicy, managed_possible: bool
    ) -> None:
        self.buffers = graph_buffers(graph)
        self.decisions = {
            role: _decide(role, policy, managed_possible) for role in BufferRole
        }
        self.base: Dict[str, AllocKind] = {
            name: self.decisions[role][0]
            for name, role in self.buffers.roles.items()
        }
        self.cowritten = self.decisions[BufferRole.COWRITTEN_OUTPUT][0]


def plan_allocations(
    graph: NetworkGraph,
    plan: ExecutionPlan,
    device: DeviceSpec,
    policy: MemoryPolicy = MemoryPolicy.SEMANTIC,
    *,
    obs: Optional[Observability] = None,
    stage: str = "",
) -> Dict[str, AllocKind]:
    """Decide the allocation kind of every buffer and record it in ``plan``.

    Returns the mapping (also stored in ``plan.alloc``).  Only the
    outputs of split layers change between plans, so the other decisions
    are made once per (graph, policy, integrated) and kept on the graph.
    With ``obs`` given, each decision and its compared candidate costs
    land in the provenance log under ``stage``.
    """
    managed_possible = device.is_integrated
    placements: _Placements = graph.derived(
        ("placements", policy, managed_possible),
        lambda: _Placements(graph, policy, managed_possible),
    )
    alloc = dict(placements.base)
    for out in placements.buffers.split_outputs(plan):
        alloc[out] = placements.cowritten
    provenance = obs.provenance if obs is not None else None
    if provenance is not None and provenance.enabled:
        _record_placements(
            graph, plan, device, policy, placements, provenance, stage,
        )
    plan.alloc = alloc
    return alloc


def _record_placements(
    graph: NetworkGraph,
    plan: ExecutionPlan,
    device: DeviceSpec,
    policy: MemoryPolicy,
    placements: _Placements,
    provenance: ProvenanceLog,
    stage: str,
) -> None:
    """Provenance: every buffer's decision and the candidate costs it
    compared, in allocation order."""
    if device.interconnect is not None:
        copy_rate: Optional[float] = device.interconnect.rate
        copy_latency_s = device.interconnect.latency_s
    else:
        copy_rate, copy_latency_s = None, 0.0
    sizes = placements.buffers.sizes
    for buffer_name, role in classify_buffers(graph, plan).items():
        kind, reason = placements.decisions[role]
        cpu_fraction = 0.0
        if role is BufferRole.COWRITTEN_OUTPUT:
            layer = buffer_name[: -len(".out")]
            lp = plan.layers.get(layer)
            if lp is not None and lp.assignment is Assignment.SPLIT:
                cpu_fraction = lp.cpu_fraction
        provenance.record_placement(MemoryPlacementRecord(
            network=graph.name,
            buffer=buffer_name,
            role=role.value,
            policy=policy.value,
            chosen=kind.value,
            nbytes=sizes.get(buffer_name, 0.0),
            stage=stage,
            candidates=_placement_candidates(
                role, sizes.get(buffer_name, 0.0),
                copy_rate, copy_latency_s, cpu_fraction,
            ),
            reason=reason,
        ))

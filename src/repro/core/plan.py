"""Execution plans: the tuner's output, the executor's input.

A plan assigns every layer to the GPU, the CPU, or a CPU/GPU split with a
concrete CPU fraction (intra-kernel co-running), and records the memory
mechanism chosen for every buffer (semantic-aware memory management).

Plans serialize to plain dicts (:meth:`ExecutionPlan.to_dict` /
:meth:`ExecutionPlan.from_dict`) so the compilation pipeline can persist
them inside a :class:`~repro.compile.artifact.PlanArtifact`.  Layer order
is preserved through the round-trip: downstream consumers (buffer
classification, provenance) iterate plans in insertion order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from ..errors import PlanError
from ..hardware.memory import AllocKind
from ..hardware.specs import ProcessorKind


class Assignment(enum.Enum):
    """Where a layer executes."""

    GPU = "gpu"
    CPU = "cpu"
    SPLIT = "split"   # intra-kernel co-run: CPU computes `cpu_fraction`


@dataclass(frozen=True)
class LayerPlan:
    """Placement decision for one layer."""

    layer: str
    assignment: Assignment
    cpu_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.assignment is Assignment.SPLIT:
            if not 0.0 < self.cpu_fraction < 1.0:
                raise PlanError(
                    f"{self.layer}: SPLIT needs cpu_fraction in (0, 1), "
                    f"got {self.cpu_fraction}"
                )
        elif self.assignment is Assignment.CPU:
            if self.cpu_fraction not in (0.0, 1.0):
                raise PlanError(f"{self.layer}: CPU assignment implies fraction 1")
            object.__setattr__(self, "cpu_fraction", 1.0)
        else:
            if self.cpu_fraction != 0.0:
                raise PlanError(f"{self.layer}: GPU assignment implies fraction 0")

    @property
    def uses_cpu(self) -> bool:
        return self.assignment is not Assignment.GPU

    @property
    def uses_gpu(self) -> bool:
        return self.assignment is not Assignment.CPU

    @property
    def processor(self) -> ProcessorKind:
        """Single executing processor (raises for SPLIT)."""
        if self.assignment is Assignment.SPLIT:
            raise PlanError(f"{self.layer}: split layer has no single processor")
        return (
            ProcessorKind.CPU
            if self.assignment is Assignment.CPU
            else ProcessorKind.GPU
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        return {
            "layer": self.layer,
            "assignment": self.assignment.value,
            "cpu_fraction": self.cpu_fraction,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LayerPlan":
        """Inverse of :meth:`to_dict` (raises PlanError on bad data)."""
        try:
            layer = data["layer"]
            assignment = Assignment(data["assignment"])
            cpu_fraction = float(data.get("cpu_fraction", 0.0))
        except (KeyError, ValueError, TypeError) as exc:
            raise PlanError(f"malformed layer-plan record {data!r}") from exc
        return cls(str(layer), assignment, cpu_fraction)


def gpu_layer(name: str) -> LayerPlan:
    """Convenience: a GPU-only layer plan."""
    return LayerPlan(name, Assignment.GPU)


def cpu_layer(name: str) -> LayerPlan:
    """Convenience: a CPU-only layer plan."""
    return LayerPlan(name, Assignment.CPU)


def split_layer(name: str, cpu_fraction: float) -> LayerPlan:
    """Convenience: a split layer plan (clamps degenerate fractions)."""
    if cpu_fraction <= 0.0:
        return gpu_layer(name)
    if cpu_fraction >= 1.0:
        return cpu_layer(name)
    return LayerPlan(name, Assignment.SPLIT, cpu_fraction)


@dataclass
class ExecutionPlan:
    """Complete placement + memory decisions for one network on one device."""

    network: str
    layers: Dict[str, LayerPlan] = field(default_factory=dict)
    alloc: Dict[str, AllocKind] = field(default_factory=dict)  # buffer -> kind

    def layer_plan(self, name: str) -> LayerPlan:
        try:
            return self.layers[name]
        except KeyError as exc:
            raise PlanError(f"no plan for layer {name!r}") from exc

    def set_layer(self, plan: LayerPlan) -> None:
        self.layers[plan.layer] = plan

    def alloc_kind(self, buffer_name: str) -> AllocKind:
        """Memory mechanism for a buffer (defaults to REGULAR)."""
        return self.alloc.get(buffer_name, AllocKind.REGULAR)

    @property
    def split_layers(self) -> Dict[str, float]:
        """Layer → cpu fraction for every split layer."""
        return {
            name: lp.cpu_fraction
            for name, lp in self.layers.items()
            if lp.assignment is Assignment.SPLIT
        }

    @property
    def cpu_layers(self) -> list:
        """Names of whole layers assigned to the CPU."""
        return [
            name for name, lp in self.layers.items()
            if lp.assignment is Assignment.CPU
        ]

    def counts(self) -> Mapping[str, int]:
        """How many layers run on each assignment kind."""
        gpu = cpu = 0
        for lp in self.layers.values():
            if lp.assignment is Assignment.GPU:
                gpu += 1
            elif lp.assignment is Assignment.CPU:
                cpu += 1
        split = len(self.layers) - gpu - cpu
        return {"gpu": gpu, "cpu": cpu, "split": split}

    def describe(self) -> str:
        """One-line summary for logs."""
        c = self.counts()
        managed = list(self.alloc.values()).count(AllocKind.MANAGED)
        return (
            f"plan[{self.network}]: gpu={c['gpu']} cpu={c['cpu']} "
            f"split={c['split']} managed_buffers={managed}/{len(self.alloc)}"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form; layer and alloc order are preserved."""
        layers: List[Dict[str, object]] = [
            lp.to_dict() for lp in self.layers.values()
        ]
        return {
            "network": self.network,
            "layers": layers,
            "alloc": {name: kind.value for name, kind in self.alloc.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExecutionPlan":
        """Inverse of :meth:`to_dict` (raises PlanError on bad data)."""
        try:
            network = str(data["network"])
            layer_records = data["layers"]
            alloc_records = data.get("alloc", {})
        except (KeyError, TypeError) as exc:
            raise PlanError(f"malformed execution-plan record: {exc}") from exc
        plan = cls(network)
        for record in layer_records:
            plan.set_layer(LayerPlan.from_dict(record))
        try:
            plan.alloc = {
                str(name): AllocKind(kind)
                for name, kind in alloc_records.items()
            }
        except ValueError as exc:
            raise PlanError(f"unknown allocation kind: {exc}") from exc
        return plan

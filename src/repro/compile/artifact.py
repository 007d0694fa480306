"""Serializable plan artifacts: the compilation pipeline's output.

A :class:`PlanArtifact` is everything needed to execute a compiled plan
in a *different process* without re-tuning:

* the :class:`~repro.core.plan.ExecutionPlan` itself (layer placements +
  per-buffer memory mechanisms, insertion order preserved);
* the :class:`~repro.core.plan_cache.PlanKey` it was compiled under
  (network, device, batch, precision, ablation flags, objective) — the
  full determinant of the tuning outcome;
* the :class:`Lowering` — how the plan should be executed (backend,
  stream serialization, host staging, precision, batch);
* :class:`TunerProvenance` — how the plan was derived (stage list,
  feedback rounds, per-round objective scores, final latency).

Artifacts round-trip through versioned JSON (``schema`` +
``version`` fields are validated on load), which is what the
:class:`~repro.store.plan_store.PlanStore` (the plan cache's persistent
tier) and the ``repro plan compile|show`` CLI persist.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Mapping, Tuple, Union, TYPE_CHECKING

from ..errors import ReproError
from ..core.plan import ExecutionPlan
from ..core.plan_cache import PlanKey

if TYPE_CHECKING:  # pragma: no cover
    from ..core.tuner import TuningResult

ARTIFACT_SCHEMA = "repro.plan-artifact"
ARTIFACT_VERSION = 1

#: The five pipeline stages, in execution order.
STAGE_NAMES: Tuple[str, ...] = (
    "profile", "place", "partition", "schedule", "lower",
)


def payload_checksum(payload: Mapping[str, object]) -> str:
    """Deterministic content hash of an artifact payload.

    Canonical (sorted-keys) JSON over every section except the
    ``checksum`` field itself, so the value is identical no matter which
    process serialized the artifact.  Public so the load-time integrity
    check in :meth:`PlanArtifact.from_json` (which every plan-store read
    goes through) and the static verifier in
    :mod:`repro.analysis.verifiers` agree byte-for-byte.
    """
    body = {k: v for k, v in payload.items() if k != "checksum"}
    blob = json.dumps(body, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Lowering:
    """How a compiled plan is executed by a backend."""

    backend: str = "analytic"
    serialize: bool = False      # single-stream (original-program) execution
    host_staging: bool = False   # stage every layer output through the host
    precision: str = "fp32"
    batch_size: int = 1

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Lowering":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"lowering record has unknown fields {sorted(unknown)}"
            )
        return cls(**{k: data[k] for k in known if k in data})


@dataclass(frozen=True)
class TunerProvenance:
    """How the plan was derived (summary of the tuning history)."""

    objective: str = "latency"
    converged_after: int = 0
    #: measured rounds in the history (profile pass + feedback + final).
    measured_rounds: int = 0
    #: objective score of each measured round, in order.
    round_scores: Tuple[float, ...] = ()
    #: end-to-end latency of the last measured round (seconds).
    final_total_s: float = 0.0
    stages: Tuple[str, ...] = STAGE_NAMES

    def to_dict(self) -> Dict[str, object]:
        return {
            "objective": self.objective,
            "converged_after": self.converged_after,
            "measured_rounds": self.measured_rounds,
            "round_scores": list(self.round_scores),
            "final_total_s": self.final_total_s,
            "stages": list(self.stages),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TunerProvenance":
        try:
            return cls(
                objective=str(data["objective"]),
                converged_after=int(data["converged_after"]),
                measured_rounds=int(data["measured_rounds"]),
                round_scores=tuple(
                    float(s) for s in data.get("round_scores", ())
                ),
                final_total_s=float(data.get("final_total_s", 0.0)),
                stages=tuple(str(s) for s in data.get("stages", STAGE_NAMES)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed tuner provenance: {exc}") from exc


@dataclass(frozen=True)
class PlanArtifact:
    """A versioned, serializable compiled plan."""

    key: PlanKey
    plan: ExecutionPlan
    lowering: Lowering = field(default_factory=Lowering)
    provenance: TunerProvenance = field(default_factory=TunerProvenance)
    version: int = ARTIFACT_VERSION

    def __post_init__(self) -> None:
        if self.key.network != self.plan.network:
            raise ReproError(
                f"artifact key names network {self.key.network!r} but the "
                f"plan is for {self.plan.network!r}"
            )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_tuning(
        cls, key: PlanKey, result: "TuningResult"
    ) -> "PlanArtifact":
        """Package a tuning result (plus the key it was compiled under):
        the key's precision and batch size make the lowering."""
        from ..core.tuner import TuningObjective

        objective = TuningObjective(key.objective)
        provenance = TunerProvenance(
            objective=key.objective,
            converged_after=result.converged_after,
            measured_rounds=len(result.rounds),
            round_scores=tuple(
                objective.score(r) for r in result.rounds
            ),
            final_total_s=(
                result.rounds[-1].total_s if result.rounds else 0.0
            ),
        )
        return cls(
            key=key, plan=result.plan,
            lowering=Lowering(
                precision=key.precision, batch_size=key.batch_size
            ),
            provenance=provenance,
        )

    def to_tuning_result(self) -> "TuningResult":
        """Rehydrate a (round-free) tuning result for cache consumers."""
        from ..core.tuner import TuningResult

        return TuningResult(
            plan=self.plan,
            rounds=[],
            converged_after=self.provenance.converged_after,
            source="artifact",
        )

    # -- serialization --------------------------------------------------------

    #: Deterministic content hash over the payload sections (see
    #: :func:`payload_checksum`).
    _checksum_of = staticmethod(payload_checksum)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "schema": ARTIFACT_SCHEMA,
            "version": self.version,
            "key": self.key.to_dict(),
            "plan": self.plan.to_dict(),
            "lowering": self.lowering.to_dict(),
            "provenance": self.provenance.to_dict(),
        }
        payload["checksum"] = self._checksum_of(payload)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PlanArtifact":
        schema = data.get("schema")
        if schema != ARTIFACT_SCHEMA:
            raise ReproError(
                f"not a plan artifact (schema={schema!r}, "
                f"expected {ARTIFACT_SCHEMA!r})"
            )
        version = data.get("version")
        if version != ARTIFACT_VERSION:
            raise ReproError(
                f"unsupported plan-artifact version {version!r} "
                f"(this build reads version {ARTIFACT_VERSION})"
            )
        for section in ("key", "plan"):
            if section not in data:
                raise ReproError(
                    f"plan artifact is missing its {section!r} section"
                )
        # Integrity: artifacts written by this build carry a content
        # checksum; validate it when present (older artifacts without
        # one still load).
        recorded = data.get("checksum")
        if recorded is not None:
            expected = cls._checksum_of(data)
            if recorded != expected:
                raise ReproError(
                    f"plan artifact checksum mismatch (recorded "
                    f"{str(recorded)[:12]}…, content hashes to "
                    f"{expected[:12]}…): the file is corrupt"
                )
        return cls(
            key=PlanKey.from_dict(data["key"]),
            plan=ExecutionPlan.from_dict(data["plan"]),
            lowering=Lowering.from_dict(data.get("lowering", {})),
            provenance=TunerProvenance.from_dict(
                data.get(
                    "provenance", TunerProvenance().to_dict()
                )
            ),
            version=version,
        )

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "PlanArtifact":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"plan artifact is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ReproError("plan artifact JSON must be an object")
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the artifact as JSON atomically; returns the path.

        Goes through :func:`repro.fsutil.atomic_write_text` (tmp sibling
        + ``os.replace``), so a writer killed mid-save can never leave a
        half-written artifact where a reader expects a plan — at worst
        an orphaned ``*.tmp`` file remains.
        """
        from ..fsutil import atomic_write_text

        return atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PlanArtifact":
        """Read an artifact from a JSON file."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ReproError(f"cannot read plan artifact {path}: {exc}") from exc
        return cls.from_json(text)

    # -- inspection -----------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable summary (``repro plan show``)."""
        key = self.key
        flags = (
            f"mm={int(key.use_memory_management)} "
            f"hybrid={int(key.use_hybrid_execution)} "
            f"inter={int(key.use_inter_kernel)} "
            f"intra={int(key.use_intra_kernel)}"
        )
        prov = self.provenance
        lines = [
            f"plan artifact v{self.version} "
            f"({key.network} on {key.device})",
            f"  key       : batch={key.batch_size} precision={key.precision} "
            f"objective={key.objective} {flags}",
            f"  plan      : {self.plan.describe()}",
            f"  lowering  : backend={self.lowering.backend} "
            f"serialize={self.lowering.serialize} "
            f"host_staging={self.lowering.host_staging}",
            f"  pipeline  : {' -> '.join(prov.stages)}",
            f"  tuning    : {prov.measured_rounds} measured rounds, "
            f"converged after {prov.converged_after}; "
            f"final latency {prov.final_total_s * 1e3:.3f} ms",
        ]
        return "\n".join(lines)

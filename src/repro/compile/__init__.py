"""repro.compile — the staged plan-compilation pipeline.

Turns "derive a plan and execute it" into an explicit, inspectable
compiler: five stages (``profile → place → partition → schedule →
lower``) producing a versioned, JSON-serializable
:class:`~repro.compile.artifact.PlanArtifact`, executed on the
virtual-clock simulator by :meth:`CompiledPlan.execute`.

Public surface:

* :func:`compile_plan` / :func:`compile_fixed` — build a
  :class:`CompiledPlan` (tuned, or fixed single-processor);
* :func:`compile_baseline` — the fixed plan a non-integrated device
  runs;
* :func:`compile_key` — the plan a :class:`~repro.core.plan_cache.PlanKey`
  names, on any device (the one compile behind the plan cache and the
  tuning fleet); :func:`fixed_key` writes a fixed plan's key;
* :class:`CompilerPipeline` — the stage driver (used by
  :meth:`repro.core.tuner.AdaptiveTuner.tune` under the hood);
* :class:`PlanArtifact` — save/load compiled plans across processes;
* :meth:`CompiledPlan.execute` — run a compiled plan.
"""

from .artifact import (
    ARTIFACT_SCHEMA,
    ARTIFACT_VERSION,
    STAGE_NAMES,
    Lowering,
    PlanArtifact,
    TunerProvenance,
    payload_checksum,
)
from .pipeline import (
    CompiledPlan,
    CompilerPipeline,
    compile_baseline,
    compile_fixed,
    compile_key,
    compile_plan,
    fixed_key,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_VERSION",
    "STAGE_NAMES",
    "CompiledPlan",
    "CompilerPipeline",
    "Lowering",
    "PlanArtifact",
    "TunerProvenance",
    "compile_baseline",
    "compile_fixed",
    "compile_key",
    "compile_plan",
    "fixed_key",
    "payload_checksum",
]

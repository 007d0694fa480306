"""The staged plan-compilation pipeline.

EdgeNN's core loop is "derive a plan, then execute it" (Fig. 3).  This
module makes the derivation an explicit five-stage pipeline::

    profile -> place (memory) -> partition -> schedule -> lower

* **profile** — run the whole network once per processor and record
  per-layer times (§IV-A: "the performance statistics are recorded to
  guide the tuning approach").
* **place** — bind the semantic-aware memory placer (§IV-B): the policy,
  the device's zero-copy capability, and the buffer catalog.  Per-buffer
  mechanisms are (re)applied by later stages whenever layer placements
  change, because a split layer forces its output buffer to REGULAR.
* **partition** — intra-kernel placement of chain layers from the
  profiles (Eq. 1-4, §IV-C/D).
* **schedule** — inter-kernel assignment of DAG branches, assembly of
  the seed plan, and the adaptive feedback rounds that measure and
  rebalance it to convergence (§IV-D).
* **lower** — measure the final adapted plan, keep the best measured
  plan, and lower everything into a versioned, JSON-serializable
  :class:`~repro.compile.artifact.PlanArtifact`.

Every stage delegates its domain logic to the
:class:`~repro.core.tuner.AdaptiveTuner` stage methods, so the pipeline
produces *bit-identical* plans and reports to the historical monolithic
``tune()`` loop (the golden parity suite pins this).  :class:`EdgeNN`,
the four baselines, ``repro.core.service`` and the serving simulator are
all thin clients of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union, TYPE_CHECKING

from ..core.executor import HybridExecutor
from ..core.memory_manager import MemoryPolicy, plan_allocations
from ..core.plan import ExecutionPlan, cpu_layer, gpu_layer
from ..core.plan_cache import PlanKey
from ..errors import ReproError
from ..hardware.device import Device
from ..hardware.specs import DeviceSpec
from ..hardware.variants import spec_by_name
from ..nn.graph import NetworkGraph
from ..nn.models import shared
from ..nn.precision import Precision
from ..obs import NOOP_OBS, Observability
from .artifact import Lowering, PlanArtifact, TunerProvenance

if TYPE_CHECKING:  # pragma: no cover
    from ..core.report import InferenceReport
    from ..core.tuner import AdaptiveTuner, TunerConfig, TuningResult


@dataclass
class CompiledPlan:
    """A plan artifact bound to its in-memory graph and device.

    :meth:`execute` is the one way to run a compiled plan.  The artifact
    alone is enough to rebuild one in a fresh process
    (:meth:`CompiledPlan.from_artifact`).
    """

    graph: NetworkGraph
    device: Device
    artifact: PlanArtifact
    tuning: Optional["TuningResult"] = None

    def __post_init__(self) -> None:
        if self.graph.name != self.artifact.key.network:
            raise ReproError(
                f"graph {self.graph.name!r} does not match artifact "
                f"network {self.artifact.key.network!r}"
            )

    @property
    def plan(self) -> ExecutionPlan:
        return self.artifact.plan

    @property
    def key(self) -> PlanKey:
        return self.artifact.key

    @property
    def precision(self) -> Precision:
        return Precision(self.artifact.lowering.precision)

    @property
    def batch_size(self) -> int:
        return self.artifact.lowering.batch_size

    @classmethod
    def from_artifact(
        cls,
        artifact: PlanArtifact,
        *,
        graph: Optional[NetworkGraph] = None,
        device: Union[Device, DeviceSpec, None] = None,
    ) -> "CompiledPlan":
        """Rebind a deserialized artifact to a live graph and device.

        With no overrides, the graph is the process's shared catalog
        graph and the device is looked up in the full device catalog —
        exactly what a fresh process reloading a saved artifact needs.
        No tuner is constructed anywhere on this path.
        """
        if graph is None:
            graph = shared(artifact.key.network)
        if device is None:
            device = spec_by_name(artifact.key.device)
        if not isinstance(device, Device):
            device = Device(device)
        return cls(graph=graph, device=device, artifact=artifact)

    def execute(
        self,
        *,
        warm_weights: bool = False,
        serialize: Optional[bool] = None,
        host_staging: Optional[bool] = None,
        obs: Optional[Observability] = None,
    ) -> "InferenceReport":
        """Run one inference of this plan on the virtual-clock simulator.

        ``serialize``/``host_staging`` default to the artifact's lowering;
        pass booleans to override it.  ``warm_weights`` starts with the
        weights device-resident (steady-state serving).  Numerics do not
        go through a plan: see :meth:`NetworkGraph.forward`.
        """
        lowering = self.artifact.lowering
        if serialize is None:
            serialize = lowering.serialize
        if host_staging is None:
            host_staging = lowering.host_staging
        return HybridExecutor(
            self.graph,
            self.device,
            self.plan,
            serialize=serialize,
            host_staging=host_staging,
            warm_weights=warm_weights,
            precision=self.precision,
            batch_size=self.batch_size,
            obs=obs if obs is not None else NOOP_OBS,
        ).run()


def _key_for_tuner(
    graph: NetworkGraph, device: Device, config: "TunerConfig"
) -> PlanKey:
    """Synthesize the provenance key for a bare-tuner compilation (the
    engine passes its real cache key instead)."""
    return PlanKey(
        network=graph.name,
        device=device.name,
        batch_size=config.batch_size,
        precision=config.precision.value,
        use_memory_management=(
            config.memory_policy is not MemoryPolicy.ALL_REGULAR
        ),
        use_hybrid_execution=(
            config.use_intra_kernel or config.use_inter_kernel
        ),
        use_inter_kernel=config.use_inter_kernel,
        use_intra_kernel=config.use_intra_kernel,
        objective=config.objective.value,
    )


class CompilerPipeline:
    """Drives the five compilation stages over an adaptive tuner."""

    def compile_with_tuner(
        self,
        tuner: "AdaptiveTuner",
        *,
        key: Optional[PlanKey] = None,
    ) -> CompiledPlan:
        """Run profile → place → partition → schedule → lower.

        The stage methods live on the tuner (they are the paper's §IV
        machinery); this pipeline owns ordering, tracing, and artifact
        assembly.  The outer span keeps its historical name ``tune`` so
        existing dashboards and tests keep working.
        """
        graph, device, config = tuner.graph, tuner.device, tuner.config
        obs = tuner.obs
        tracer = obs.tracer
        if key is None:
            key = _key_for_tuner(graph, device, config)
        with tracer.span("tune", category="tuner",
                         network=graph.name,
                         objective=config.objective.value):
            with tracer.span("stage:profile", category="compile"):
                gpu_report = tuner.stage_profile()
            with tracer.span("stage:place", category="compile") as span:
                placer = tuner.placer
                span.set_attributes(
                    policy=placer.policy.value,
                    buffers=len(placer.buffer_catalog()),
                )
            with tracer.span("stage:partition", category="compile") as span:
                chain = tuner.partition_chain_layers()
                span.set_attribute("chain_layers", len(chain))
            with tracer.span("stage:schedule", category="compile") as span:
                branches = tuner.schedule_branch_layers()
                seed_plan = tuner.assemble_seed_plan(chain, branches)
                result, plan, best_plan, best_score = tuner.stage_feedback(
                    seed_plan, gpu_report
                )
                span.set_attributes(
                    branch_layers=len(branches),
                    feedback_rounds=result.converged_after,
                )
            with tracer.span("stage:lower", category="compile"):
                result = tuner.stage_lower(
                    result, plan, best_plan, best_score
                )
                artifact = PlanArtifact.from_tuning(key, result)
        return CompiledPlan(
            graph=graph, device=device, artifact=artifact, tuning=result,
        )


def compile_plan(
    network: Union[str, NetworkGraph],
    device: Union[Device, DeviceSpec, None] = None,
    config=None,
    *,
    key: Optional[PlanKey] = None,
    obs: Optional[Observability] = None,
) -> CompiledPlan:
    """Compile an adaptive (tuned) plan for one network on one device.

    ``config`` may be an :class:`~repro.core.engine.EdgeNNConfig`, a
    :class:`~repro.core.tuner.TunerConfig`, or ``None`` (defaults).
    This is the full five-stage pipeline; use :func:`compile_fixed` for
    the degenerate single-processor plans the baselines need.  A network
    named by string compiles on the process's shared graph.
    """
    from ..core.tuner import AdaptiveTuner, TunerConfig

    graph = shared(network) if isinstance(network, str) else network
    if device is None:
        device = spec_by_name("jetson-agx-xavier")
    if not isinstance(device, Device):
        device = Device(device)
    if config is None:
        tuner_config = TunerConfig()
    elif isinstance(config, TunerConfig):
        tuner_config = config
    elif hasattr(config, "tuner_config"):
        tuner_config = config.tuner_config()
    else:
        raise ReproError(
            f"config must be EdgeNNConfig, TunerConfig, or None; "
            f"got {type(config).__name__}"
        )
    tuner = AdaptiveTuner(graph, device, tuner_config, obs=obs)
    return CompilerPipeline().compile_with_tuner(tuner, key=key)


def fixed_key(
    network: str,
    device: str,
    *,
    policy: MemoryPolicy = MemoryPolicy.ALL_REGULAR,
    precision: Precision = Precision.FP32,
    batch_size: int = 1,
) -> PlanKey:
    """The key a fixed single-processor plan is compiled under: no
    hybrid execution, the latency objective.  With the default policy it
    is the key of a non-integrated device's baseline plan."""
    return PlanKey(
        network=network,
        device=device,
        batch_size=batch_size,
        precision=precision.value,
        use_memory_management=policy is not MemoryPolicy.ALL_REGULAR,
        use_hybrid_execution=False,
        use_inter_kernel=False,
        use_intra_kernel=False,
        objective="latency",
    )


def compile_fixed(
    network: Union[str, NetworkGraph],
    device: Union[Device, DeviceSpec],
    *,
    placement: str = "gpu",
    policy: MemoryPolicy = MemoryPolicy.ALL_REGULAR,
    serialize: bool = False,
    host_staging: bool = False,
    precision: Precision = Precision.FP32,
    batch_size: int = 1,
    obs: Optional[Observability] = None,
) -> CompiledPlan:
    """Compile a fixed single-processor plan (the baselines' path).

    The profile/partition/schedule stages are degenerate — every layer
    goes to ``placement`` — so the pipeline reduces to place + lower,
    which is exactly what the paper's "original program" and CPU-only
    comparators are.  The artifact still records the key, lowering, and
    (two-stage) provenance, so baseline plans serialize like any other.
    """
    if placement not in ("cpu", "gpu"):
        raise ReproError(
            f"fixed placement must be 'cpu' or 'gpu', got {placement!r}"
        )
    graph = shared(network) if isinstance(network, str) else network
    dev = device if isinstance(device, Device) else Device(device)
    obs = obs if obs is not None else NOOP_OBS
    make = cpu_layer if placement == "cpu" else gpu_layer
    plan = ExecutionPlan(graph.name)
    for name in graph.topo_order():
        plan.set_layer(make(name))
    with obs.tracer.span("stage:place", category="compile",
                         network=graph.name, policy=policy.value):
        plan_allocations(graph, plan, dev.spec, policy,
                         obs=obs, stage=f"fixed:{placement}")
    key = fixed_key(
        graph.name, dev.name,
        policy=policy, precision=precision, batch_size=batch_size,
    )
    with obs.tracer.span("stage:lower", category="compile"):
        artifact = PlanArtifact(
            key=key,
            plan=plan,
            lowering=Lowering(
                serialize=serialize,
                host_staging=host_staging,
                precision=precision.value,
                batch_size=batch_size,
            ),
            provenance=TunerProvenance(stages=("place", "lower")),
        )
    return CompiledPlan(graph=graph, device=dev, artifact=artifact)


def compile_baseline(
    network: Union[str, NetworkGraph],
    device: DeviceSpec,
    *,
    precision: Precision = Precision.FP32,
    batch_size: int = 1,
    obs: Optional[Observability] = None,
) -> CompiledPlan:
    """The paper's fixed baseline plan for a non-integrated device.

    All-CPU on a CPU-only device; on a GPU the original program, which
    runs single-stream and stages every layer output through the host
    (copy/kernel/copy).  The one statement of what such a device runs,
    for the simulators and the tuning fleet alike.
    """
    gpu = device.has_gpu
    return compile_fixed(
        network,
        device,
        placement="gpu" if gpu else "cpu",
        serialize=gpu,
        host_staging=gpu,
        precision=precision,
        batch_size=batch_size,
        obs=obs,
    )


def compile_key(
    key: PlanKey,
    spec: DeviceSpec,
    *,
    obs: Optional[Observability] = None,
) -> CompiledPlan:
    """Compile the plan ``key`` names on ``spec`` (the device ``key``
    names): the adaptive pipeline on an integrated device, its fixed
    baseline plan on any other.  The one way from a key to a plan, for
    the tuning fleet, the plan cache's misses and both simulators.  The
    spec is an argument because throttled variants (``name@thr-…``)
    are not in the device catalog."""
    precision = Precision(key.precision)
    if spec.is_integrated:
        from ..core.engine import EdgeNNConfig
        from ..core.tuner import TuningObjective

        config = EdgeNNConfig(
            use_memory_management=key.use_memory_management,
            use_hybrid_execution=key.use_hybrid_execution,
            use_inter_kernel=key.use_inter_kernel,
            use_intra_kernel=key.use_intra_kernel,
            objective=TuningObjective(key.objective),
            precision=precision,
            batch_size=key.batch_size,
        )
        return compile_plan(key.network, spec, config, key=key, obs=obs)
    compiled = compile_baseline(
        key.network, spec,
        precision=precision, batch_size=key.batch_size, obs=obs,
    )
    if compiled.key != key:
        raise ReproError(
            f"{spec.name!r} runs its baseline plan "
            f"{compiled.key.slug()!r}, not {key.slug()!r}"
        )
    return compiled


__all__ = [
    "CompiledPlan",
    "CompilerPipeline",
    "compile_baseline",
    "compile_fixed",
    "compile_key",
    "compile_plan",
    "fixed_key",
]

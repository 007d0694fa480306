"""The EdgeNN engine: the library's primary public API.

Ties the three designs together exactly as Figure 3 describes: the
fine-grained adaptive tuner derives sub-task assignments and memory usage
strategies, the semantic-aware memory manager allocates buffers, and the
hybrid executor co-runs the CPU and the GPU under that plan.

Typical use::

    from repro import EdgeNN
    engine = EdgeNN("alexnet")           # Jetson AGX Xavier by default
    report = engine.run()                # tunes on first use
    print(report.total_s, report.copy_share)
    probs = engine.infer(image)          # numeric forward pass (NumPy)

Feature flags in :class:`EdgeNNConfig` disable individual designs for the
paper's ablation (Fig 8): memory management only, hybrid execution only,
or the full system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union, TYPE_CHECKING

import numpy as np

from ..errors import ReproError
from ..hardware.device import Device
from ..hardware.specs import JETSON_AGX_XAVIER, DeviceSpec
from ..nn.graph import NetworkGraph
from ..nn.models import MODEL_BUILDERS, shared
from ..nn.precision import Precision
from ..obs import NOOP_OBS, Observability
from .memory_manager import MemoryPolicy
from .plan import ExecutionPlan
from .plan_cache import PlanCache, PlanKey, default_plan_cache
from .report import InferenceReport
from .tuner import AdaptiveTuner, TunerConfig, TuningObjective, TuningResult

if TYPE_CHECKING:  # pragma: no cover - circular at runtime, fine for types
    from ..compile.artifact import PlanArtifact
    from ..compile.pipeline import CompiledPlan


@dataclass(frozen=True)
class EdgeNNConfig:
    """Feature flags and tuning knobs.

    Every field is a :class:`~repro.core.plan_cache.PlanKey` field of
    the same name, so a plan key is the whole tuning job: the cache,
    the store and :func:`~repro.compile.pipeline.compile_key` rebuild
    the config from it.  The three ablation points of Fig 8 map to:

    * original program      — ``use_memory_management=False,
      use_hybrid_execution=False`` (equivalently, the gpu_only baseline);
    * "memory management"   — ``use_hybrid_execution=False``;
    * "CPU-GPU hybrid execution" — ``use_memory_management=False``;
    * "EdgeNN"              — both on (the default).
    """

    use_memory_management: bool = True
    use_hybrid_execution: bool = True
    use_inter_kernel: bool = True   # sub-flag of hybrid execution
    use_intra_kernel: bool = True   # sub-flag of hybrid execution
    #: what to optimize: latency (the paper), energy, or energy-delay.
    objective: TuningObjective = TuningObjective.LATENCY
    #: inference datatype (performance model only; numerics stay float32).
    precision: Precision = Precision.FP32
    #: frames per simulated inference (weights amortize across the batch).
    batch_size: int = 1

    def memory_policy(self) -> MemoryPolicy:
        if self.use_memory_management:
            return MemoryPolicy.SEMANTIC
        return MemoryPolicy.ALL_REGULAR

    def tuner_config(self) -> TunerConfig:
        return TunerConfig(
            use_intra_kernel=self.use_hybrid_execution and self.use_intra_kernel,
            use_inter_kernel=self.use_hybrid_execution and self.use_inter_kernel,
            memory_policy=self.memory_policy(),
            objective=self.objective,
            precision=self.precision,
            batch_size=self.batch_size,
        )


class EdgeNN:
    """Efficient neural-network inference on a CPU-GPU integrated device."""

    def __init__(
        self,
        network: Union[str, NetworkGraph],
        device: Union[Device, DeviceSpec, None] = None,
        config: Optional[EdgeNNConfig] = None,
        *,
        plan_cache: Optional[PlanCache] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if isinstance(network, str):
            if network not in MODEL_BUILDERS:
                raise KeyError(
                    f"unknown network {network!r}; "
                    f"available: {sorted(MODEL_BUILDERS)}"
                )
            self._network = network
            self._graph: Optional[NetworkGraph] = None
        else:
            self._network = network.name
            self._graph = network
        self.obs = obs if obs is not None else NOOP_OBS
        if device is None:
            device = JETSON_AGX_XAVIER
        self.device = device if isinstance(device, Device) else Device(device)
        if not self.device.spec.is_integrated:
            raise ReproError(
                f"EdgeNN requires a CPU-GPU integrated device; "
                f"{self.device.name!r} is not (use the baselines for it)"
            )
        self.config = config or EdgeNNConfig()
        self._params: Optional[Dict[str, Dict[str, np.ndarray]]] = None
        self._tuning: Optional[TuningResult] = None
        self._artifact: Optional["PlanArtifact"] = None
        self._compiled: Optional["CompiledPlan"] = None
        # Plans are only shareable when the network is a catalog model
        # named by string: a user-built NetworkGraph may reuse a name for
        # a different topology, so it always tunes privately.
        self._plan_cache = (
            plan_cache if plan_cache is not None else default_plan_cache()
        )
        self._cache_key = (
            PlanKey.from_config(network, self.device.name, self.config)
            if isinstance(network, str)
            else None
        )

    @property
    def graph(self) -> NetworkGraph:
        """The network graph: for a catalog network, the process's shared
        one (:func:`repro.nn.models.shared`), looked up on first use, so
        a plan served from the cache is executed or inspected without
        one."""
        if self._graph is None:
            self._graph = shared(self._network)
        return self._graph

    # -- tuning & simulated execution ----------------------------------------

    def tune(self, force: bool = False) -> TuningResult:
        """Run the adaptive tuning cycle (cached after the first call).

        Plans for catalog networks are also memoized in the shared
        :class:`~repro.core.plan_cache.PlanCache` keyed by (network,
        device, batch size, precision, flags); ``force=True`` bypasses
        both caches and re-tunes from scratch.  A plan compiled here
        returns its live result, with every measured round; a plan
        served from the cache returns the artifact's round-free one.
        """
        if self._tuning is None or force:
            obs = self.obs
            self._compiled = None
            if self._cache_key is not None and not force:
                hits_before = self._plan_cache.hits
                with obs.tracer.span(
                    "plan:lookup", category="plan",
                    network=self._network, device=self.device.name,
                    batch=self.config.batch_size,
                ) as span:
                    self._artifact = self._plan_cache.get_or_tune(
                        self._cache_key, self._compile
                    )
                    hit = self._plan_cache.hits > hits_before
                    span.set_attribute("cache", "hit" if hit else "miss")
                obs.metrics.counter(
                    "repro_plan_cache_requests_total",
                    "Plan-cache lookups by result", labels=("result",),
                ).labels(result="hit" if hit else "miss").inc()
            else:
                with obs.tracer.span("plan:tune", category="plan",
                                     network=self._network):
                    self._artifact = self._compile()
            self._tuning = (
                self._compiled.tuning if self._compiled is not None
                else self._artifact.to_tuning_result()
            )
        return self._tuning

    def _compile(self) -> "PlanArtifact":
        """Compile this engine's plan: a catalog network through
        :func:`~repro.compile.pipeline.compile_key` (on the shared graph,
        which the engine keeps), a custom graph through the pipeline
        directly."""
        from ..compile.pipeline import CompilerPipeline, compile_key

        if self._cache_key is not None:
            compiled = compile_key(
                self._cache_key, self.device.spec, obs=self.obs
            )
            if self._graph is None:
                self._graph = compiled.graph
        else:
            tuner = AdaptiveTuner(
                self.graph, self.device, self.config.tuner_config(),
                obs=self.obs,
            )
            compiled = CompilerPipeline().compile_with_tuner(tuner)
        self._compiled = compiled
        return compiled.artifact

    @property
    def plan(self) -> ExecutionPlan:
        """The tuned execution plan."""
        return self.tune().plan

    def compiled(self) -> "CompiledPlan":
        """The compiled plan (tunes on first use).  A plan served from
        the cache is bound to this engine's graph and device."""
        artifact = self.artifact()
        if self._compiled is None:
            from ..compile.pipeline import CompiledPlan

            self._compiled = CompiledPlan(
                graph=self.graph, device=self.device, artifact=artifact,
            )
        return self._compiled

    def artifact(self) -> "PlanArtifact":
        """The serializable :class:`~repro.compile.artifact.PlanArtifact`
        (tunes on first use; a cache hit builds no graph)."""
        self.tune()
        return self._artifact

    def run(self) -> InferenceReport:
        """Simulate one inference under the tuned plan."""
        compiled = self.compiled()
        if not self.obs.enabled:
            return compiled.execute()
        with self.obs.tracer.span(
            f"execute:{self._network}", category="execute",
            device=self.device.name, batch=self.config.batch_size,
        ) as span:
            report = compiled.execute(obs=self.obs)
            span.set_times(0.0, report.total_s)
            span.set_attributes(
                latency_ms=report.total_s * 1e3,
                copy_share=round(report.copy_share, 4),
            )
        return report

    # -- numerics ---------------------------------------------------------------

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Numerically execute the network on ``x`` (``graph.forward``).

        Independent of the timing simulation: the placement of a layer on
        CPU or GPU never changes its mathematical result, so this path
        needs no plan and never triggers tuning.  Parameters are
        materialized on the first call and kept by this engine, not by
        the graph (which the whole process may share): dropping the
        engine frees them.
        """
        if self._params is None:
            self._params = self.graph.materialize_params()
        return self.graph.forward(x, self._params)

    def summary(self) -> str:
        """Engine + plan description for logs."""
        lines = [
            f"EdgeNN({self._network} on {self.device.name})",
            self.plan.describe(),
        ]
        provenance = self.artifact().provenance
        lines.append(
            f"tuned in {provenance.converged_after} feedback rounds; "
            f"final latency {provenance.final_total_s * 1e3:.3f} ms"
        )
        return "\n".join(lines)

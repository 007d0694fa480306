"""Pluggable execution backends for compiled plans.

A backend consumes a :class:`~repro.compile.pipeline.CompiledPlan` and
executes it.  Two ship with the repository:

* :class:`AnalyticBackend` — the deterministic virtual-clock simulator
  (:class:`~repro.core.executor.HybridExecutor`): produces a full
  :class:`~repro.core.report.InferenceReport` with per-layer timing,
  memory traffic, and energy.  This is the cost-model path every
  benchmark, baseline, and the serving simulator run on.
* :class:`NumpyBackend` — real numeric inference via
  :meth:`~repro.nn.graph.NetworkGraph.forward`: produces the output
  logits as an :class:`numpy.ndarray`.  It validates that the compiled
  plans are *functionally* executable — placement never changes math.

Both honour the artifact's :class:`~repro.compile.artifact.Lowering`
(stream serialization, host staging, precision, batch size); analytic
callers can override per-execution concerns (warm weights, a buffer
namespace) at construction.
"""

from __future__ import annotations

from typing import (
    Callable,
    Optional,
    Protocol,
    runtime_checkable,
    TYPE_CHECKING,
)

import numpy as np

from ..core.executor import HybridExecutor
from ..errors import ReproError
from ..nn.graph import NetworkGraph
from ..obs import NOOP_OBS, Observability

if TYPE_CHECKING:  # pragma: no cover
    from ..core.report import InferenceReport
    from ..faults.resilience import CircuitBreaker, RetryPolicy
    from .pipeline import CompiledPlan


@runtime_checkable
class ExecutionBackend(Protocol):
    """What it takes to execute a compiled plan."""

    name: str

    def execute(
        self,
        compiled: "CompiledPlan",
        *,
        payload: Optional[np.ndarray] = None,
        obs: Optional[Observability] = None,
    ):  # pragma: no cover - protocol signature
        """Run one inference of ``compiled``; the return type is
        backend-specific (report vs logits)."""
        ...


class AnalyticBackend:
    """Deterministic cost-model execution on the virtual-clock simulator.

    ``serialize``/``host_staging`` default to ``None`` meaning "use the
    artifact's lowering"; pass booleans to override (the ablation
    baselines pin their own execution semantics).  ``warm_weights``
    starts with weights device-resident; ``namespace`` prefixes buffer
    names so multiple plans can share one device (multi-tenant).
    """

    name = "analytic"

    def __init__(
        self,
        *,
        serialize: Optional[bool] = None,
        host_staging: Optional[bool] = None,
        warm_weights: bool = False,
        namespace: str = "",
    ) -> None:
        self._serialize = serialize
        self._host_staging = host_staging
        self._warm_weights = warm_weights
        self._namespace = namespace

    def executor(
        self,
        compiled: "CompiledPlan",
        *,
        obs: Optional[Observability] = None,
    ) -> HybridExecutor:
        """The configured executor (exposed for timeline-sharing callers)."""
        lowering = compiled.artifact.lowering
        serialize = (
            lowering.serialize if self._serialize is None else self._serialize
        )
        host_staging = (
            lowering.host_staging
            if self._host_staging is None
            else self._host_staging
        )
        return HybridExecutor(
            compiled.graph,
            compiled.device,
            compiled.plan,
            serialize=serialize,
            host_staging=host_staging,
            warm_weights=self._warm_weights,
            precision=compiled.precision,
            batch_size=compiled.batch_size,
            namespace=self._namespace,
            obs=obs if obs is not None else NOOP_OBS,
        )

    def execute(
        self,
        compiled: "CompiledPlan",
        *,
        payload: Optional[np.ndarray] = None,
        obs: Optional[Observability] = None,
    ) -> "InferenceReport":
        if payload is not None:
            raise ReproError(
                "the analytic backend simulates execution and takes no "
                "input payload; use the numpy backend for real inference"
            )
        return self.executor(compiled, obs=obs).run()


class NumpyBackend:
    """Real numeric inference: forward-propagate the payload through the
    graph with deterministically initialized parameters.

    The graph owns its parameters: it materializes them on its first
    forward pass and keeps them, so repeated inferences (an engine's
    ``infer`` loop) pay the initialization cost once and the weights die
    with the graph.
    """

    name = "numpy"

    def infer(self, graph: NetworkGraph, payload: np.ndarray) -> np.ndarray:
        return graph.forward(payload)

    def execute(
        self,
        compiled: "CompiledPlan",
        *,
        payload: Optional[np.ndarray] = None,
        obs: Optional[Observability] = None,
    ) -> np.ndarray:
        if payload is None:
            raise ReproError(
                "the numpy backend runs real inference and needs an input "
                "array payload"
            )
        return self.infer(compiled.graph, payload)


class ResilientBackend:
    """Retry-with-backoff plus a circuit breaker around any backend.

    Wraps an inner :class:`ExecutionBackend` and absorbs *transient*
    execution failures: a failed ``execute`` is retried up to the
    policy's ``max_attempts`` with exponential-backoff-plus-jitter
    delays (accumulated on the virtual clock via ``clock``/``sleep``
    rather than wall time), and sustained failure opens a circuit
    breaker that fails fast until its reset timeout elapses.

    ``fault_hook`` is called before every inner attempt with the
    attempt index; raising from it injects a failure — that is how the
    fault layer (and the tests) drive transient faults through a real
    backend without monkey-patching it.
    """

    name = "resilient"

    def __init__(
        self,
        inner: Optional[ExecutionBackend] = None,
        *,
        retry: Optional["RetryPolicy"] = None,
        breaker: Optional["CircuitBreaker"] = None,
        clock: Optional[Callable[[], float]] = None,
        fault_hook: Optional[Callable[[int], None]] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        from ..faults.resilience import CircuitBreaker, RetryPolicy

        self.inner = inner if inner is not None else AnalyticBackend()
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(name=self.inner.name)
        )
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._fault_hook = fault_hook
        self._obs = obs if obs is not None else NOOP_OBS
        #: virtual seconds spent in backoff delays (callers charge this
        #: to their timeline; nothing here sleeps for real).
        self.backoff_spent_s = 0.0
        #: attempts beyond the first across all executes.
        self.retries = 0

    def _record(self, event: str, **labels: str) -> None:
        obs = self._obs
        if obs.enabled:
            obs.metrics.counter(
                "repro_resilient_backend_total",
                "ResilientBackend outcomes by event",
                labels=("event", "backend"),
            ).labels(event=event, backend=self.inner.name).inc()

    def execute(
        self,
        compiled: "CompiledPlan",
        *,
        payload: Optional[np.ndarray] = None,
        obs: Optional[Observability] = None,
    ):
        now = self._clock()
        if not self.breaker.allow(now):
            self._record("short_circuit")
            raise ReproError(
                f"circuit breaker {self.breaker.name!r} is open "
                f"(consecutive backend failures); failing fast"
            )
        last_error: Optional[Exception] = None
        for attempt in range(self.retry.max_attempts):
            try:
                if self._fault_hook is not None:
                    self._fault_hook(attempt)
                result = self.inner.execute(
                    compiled, payload=payload, obs=obs
                )
            except ReproError as exc:
                last_error = exc
                self._record("failure")
                if attempt < self.retry.max_attempts - 1:
                    self.backoff_spent_s += self.retry.delay(
                        attempt, token=compiled.key.slug()
                    )
                    self.retries += 1
                    self._record("retry")
                continue
            self.breaker.record_success(now)
            self._record("success")
            return result
        self.breaker.record_failure(now)
        self._record("exhausted")
        raise ReproError(
            f"backend {self.inner.name!r} failed "
            f"{self.retry.max_attempts} attempts: {last_error}"
        ) from last_error


#: Registry of backend constructors by name.
BACKENDS = {
    AnalyticBackend.name: AnalyticBackend,
    NumpyBackend.name: NumpyBackend,
    ResilientBackend.name: ResilientBackend,
}


def get_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate a backend by registry name (``analytic``, ``numpy``,
    or ``resilient``)."""
    try:
        factory = BACKENDS[name]
    except KeyError as exc:
        raise ReproError(
            f"unknown execution backend {name!r}; "
            f"available: {sorted(BACKENDS)}"
        ) from exc
    return factory(**options)


__all__ = [
    "AnalyticBackend",
    "BACKENDS",
    "ExecutionBackend",
    "NumpyBackend",
    "ResilientBackend",
    "get_backend",
]

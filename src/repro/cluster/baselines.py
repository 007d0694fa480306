"""Service times for fleet devices the EdgeNN engine cannot target.

The hardware catalog is deliberately wider than the paper's device
under test: a realistic edge fleet mixes integrated CPU-GPU SoCs (where
:class:`~repro.serving.simulator.ServiceTimeModel` tunes real EdgeNN
plans) with CPU-only boards like the Raspberry Pi 4 and discrete-GPU
hosts like the RTX 2080 Ti box.  Those run the paper's *baseline*
execution paths — all-CPU or original-program GPU-only — via
:func:`~repro.compile.pipeline.compile_fixed`, which supports batching
and precision but involves no tuner.

:class:`BaselineServiceTimeModel` wraps that path behind the same
``service(network, batch, kind=..., factors=..., retuned=...)`` surface
the serving model exposes, so :class:`~repro.cluster.fleet.Replica` is
agnostic to which side of the integrated/discrete line its device falls
on.  Degraded plan ``kind`` s collapse to the single baseline plan
(there is no hybrid execution or zero-copy to turn off), and thermal
``factors`` execute the *stale* nominal plan at throttled rates —
exactly the naive-device semantics the serving model uses.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..compile.pipeline import CompiledPlan, compile_fixed
from ..hardware.device import Device
from ..hardware.specs import DeviceSpec
from ..hardware.throttle import ThrottleFactors, apply_throttle
from ..nn.precision import Precision
from ..obs import NOOP_OBS, Observability
from ..serving.simulator import (
    SERVICE_TIMES,
    BatchServiceTime,
    warm_service_time,
)
from ..store.fingerprint import device_fingerprint


class BaselineServiceTimeModel:
    """Batched service times for CPU-only and discrete-GPU devices.

    Duck-types the serving :class:`ServiceTimeModel` surface that
    :class:`~repro.cluster.fleet.Replica` uses.  ``base_config`` is
    ``None``: there are no engine feature flags here, and the fleet
    dispatcher treats that (together with a non-integrated spec) as
    "no hybrid kernels to fail".

    Times come from the process-wide
    :data:`~repro.serving.simulator.SERVICE_TIMES` memo, keyed by (spec
    fingerprint, precision, network, batch, throttle factors): a hit
    skips both :func:`compile_fixed` and the executor, so each fixed
    plan compiles and executes once per process.
    """

    base_config = None

    def __init__(
        self,
        spec: DeviceSpec,
        precision: Precision = Precision.FP32,
        *,
        obs: Optional[Observability] = None,
    ) -> None:
        self._spec = spec
        self._precision = precision
        self._obs = obs if obs is not None else NOOP_OBS
        self._placement = "gpu" if spec.has_gpu else "cpu"
        self._fingerprint = device_fingerprint(spec)
        self._warm: Dict[Tuple, BatchServiceTime] = {}

    @property
    def spec(self) -> DeviceSpec:
        return self._spec

    @property
    def placement(self) -> str:
        return self._placement

    def service(
        self,
        network: str,
        batch: int,
        *,
        kind: str = "normal",
        factors: Optional[ThrottleFactors] = None,
        retuned: bool = False,
    ) -> BatchServiceTime:
        """Warm service time of one batch on the baseline path.

        ``kind`` and ``retuned`` are accepted for surface compatibility;
        every kind is the same fixed plan, and there is nothing to
        re-tune — a throttled baseline device always runs its nominal
        plan at the throttled rates.
        """
        key = (network, batch, factors)
        cached = self._warm.get(key)
        if cached is not None:
            return cached
        if factors is not None and factors.is_noop:
            factors = None

        def execute() -> BatchServiceTime:
            compiled = compile_fixed(
                network,
                self._spec,
                placement=self._placement,
                precision=self._precision,
                batch_size=batch,
                # The original-program path stages layer outputs through
                # the host on GPU devices (single-stream copy/kernel/copy).
                serialize=self._placement == "gpu",
                host_staging=self._placement == "gpu",
                obs=self._obs,
            )
            if factors is not None:
                compiled = CompiledPlan(
                    graph=compiled.graph,
                    device=Device(apply_throttle(self._spec, factors)),
                    artifact=compiled.artifact,
                )
            return warm_service_time(compiled, self._obs)

        svc = SERVICE_TIMES.fixed(
            (self._fingerprint, self._precision, network, batch, factors),
            execute,
        )
        self._warm[key] = svc
        return svc

    def warm(self, network: str, batch: int) -> BatchServiceTime:
        return self.service(network, batch)


__all__ = ["BaselineServiceTimeModel"]

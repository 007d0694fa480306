"""FaultInjector: expand a scenario + seed into concrete fault events.

The injector is the only source of randomness in the fault layer, and
it is not random at all: every draw is ``sha256(seed, kind, index)``,
so the same (scenario, seed) pair produces the same fault timeline in
any process.  Each decision that fires is appended to an event list and
mirrored into ``repro.obs`` (a ``fault`` span on the trace plus labeled
counters), and the whole timeline digests to a stable hex string — the
CI determinism gate compares that digest across fresh interpreters.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..hardware.throttle import ThrottleFactors
from .resilience import _digest_draw, _unit_draw
from .scenario import (
    FaultScenario,
    MemoryPressureWindow,
    ThermalWindow,
)


class FaultInjector:
    """Deterministic runtime companion to a :class:`FaultScenario`.

    The stream-indexed draws (kernel, payload, artifact) equal
    ``_unit_draw(seed, stream, index)``; each is computed on a copy of
    a per-stream SHA-256 state that already holds the
    ``"{seed}:{stream}:"`` prefix, so a draw hashes only its index.
    """

    def __init__(
        self,
        scenario: FaultScenario,
        *,
        seed: int = 0,
        obs=None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self._obs = obs
        self.events: List[Dict[str, object]] = []
        # Independent draw streams so adding e.g. payload faults never
        # perturbs the kernel-failure sequence.
        self._kernel_draws = 0
        self._payload_draws = 0
        self._artifact_draws = 0
        self._prefixes = {
            stream: hashlib.sha256(f"{seed}:{stream}:".encode())
            for stream in ("kernel", "payload", "artifact")
        }

    def _draw(self, stream: str, index: int) -> float:
        """``_unit_draw(seed, stream, index)`` from the stream's prefix."""
        hasher = self._prefixes[stream].copy()
        hasher.update(b"%d" % index)  # the bytes of str(index)
        return _digest_draw(hasher.digest())

    # -- bookkeeping ----------------------------------------------------------

    def _record(self, kind: str, now: float, **detail: object) -> None:
        event: Dict[str, object] = {"t": round(now, 9), "kind": kind}
        event.update(detail)
        self.events.append(event)
        if self._obs is not None and getattr(self._obs, "enabled", False):
            self._obs.tracer.record(
                f"fault.{kind}",
                now,
                now,
                category="fault",
                attributes={k: str(v) for k, v in detail.items()},
            )
            self._obs.metrics.counter(
                "faults_injected_total",
                "Fault events injected, by kind.",
                labels=("kind",),
            ).labels(kind=kind).inc()

    # -- timeline queries -----------------------------------------------------

    def throttle_at(self, now: float) -> Optional[ThrottleFactors]:
        """Active throttle factors at ``now``, or None outside windows."""
        window: Optional[ThermalWindow] = self.scenario.thermal_at(now)
        if window is None:
            return None
        return window.factors

    def memory_pressure_at(self, now: float) -> bool:
        """True while zero-copy allocation is unavailable."""
        window: Optional[MemoryPressureWindow]
        window = self.scenario.memory_pressure_at(now)
        return window is not None

    # -- probabilistic draws (each consumes one stream index) -----------------

    def kernel_fails(self, now: float, *, detail: str = "") -> bool:
        """Does the next hybrid-kernel launch fail?"""
        p = self.scenario.kernel_failure_p
        if p <= 0.0:
            return False
        index = self._kernel_draws
        self._kernel_draws += 1
        fails = self._draw("kernel", index) < p
        if fails:
            self._record("kernel_failure", now, index=index, detail=detail)
        return fails

    def payload_corrupt(self, now: float, *, request_id: int) -> bool:
        """Is this request's payload malformed?"""
        p = self.scenario.payload_corrupt_p
        if p <= 0.0:
            return False
        index = self._payload_draws
        self._payload_draws += 1
        corrupt = self._draw("payload", index) < p
        if corrupt:
            self._record(
                "payload_corrupt", now, index=index, request_id=request_id
            )
        return corrupt

    def artifact_corrupt(self, *, path: str, now: float = 0.0) -> bool:
        """Should this plan-artifact file be corrupted on disk?"""
        p = self.scenario.artifact_corrupt_p
        if p <= 0.0:
            return False
        index = self._artifact_draws
        self._artifact_draws += 1
        corrupt = self._draw("artifact", index) < p
        if corrupt:
            self._record("artifact_corrupt", now, index=index, path=path)
        return corrupt

    # -- keyed draws (order-independent: safe under parallel scheduling) ------

    def worker_crashes(
        self, *, job_id: str, attempt: int, now: float = 0.0
    ) -> bool:
        """Does the worker running (``job_id``, ``attempt``) die mid-write?

        Unlike the stream-indexed draws above, this one is keyed by the
        *identity* of the work, not by draw order — a tuning fleet
        schedules jobs concurrently in nondeterministic order, and the
        crash schedule must not depend on which worker got there first.
        Same (seed, job, attempt) → same outcome, in any process.
        """
        p = self.scenario.worker_crash_p
        if p <= 0.0:
            return False
        crashes = _unit_draw(
            self.seed, "worker_crash", job_id, attempt
        ) < p
        if crashes:
            self._record("worker_crash", now, job_id=job_id, attempt=attempt)
        return crashes

    def artifact_corrupt_keyed(
        self, *, job_id: str, attempt: int, now: float = 0.0
    ) -> bool:
        """Is the artifact written by (``job_id``, ``attempt``) corrupted?

        Keyed like :meth:`worker_crashes` (scheduling-order independent);
        the stream-indexed :meth:`artifact_corrupt` remains for the
        sequential disk-corruption sweep in :func:`corrupt_artifacts`.
        """
        p = self.scenario.artifact_corrupt_p
        if p <= 0.0:
            return False
        corrupt = _unit_draw(
            self.seed, "artifact_keyed", job_id, attempt
        ) < p
        if corrupt:
            self._record(
                "artifact_corrupt", now, job_id=job_id, attempt=attempt
            )
        return corrupt

    # -- window-edge events (recorded once per window by the driver) ----------

    def note_thermal_enter(self, now: float, window: ThermalWindow) -> None:
        self._record(
            "thermal_enter",
            now,
            window_start=window.start_s,
            window_end=window.end_s,
            cpu=window.factors.cpu,
            gpu=window.factors.gpu,
            bandwidth=window.factors.bandwidth,
        )

    def note_thermal_exit(self, now: float, window: ThermalWindow) -> None:
        self._record("thermal_exit", now, window_start=window.start_s)

    def note_memory_pressure_enter(
        self, now: float, window: MemoryPressureWindow
    ) -> None:
        self._record(
            "memory_pressure_enter",
            now,
            window_start=window.start_s,
            window_end=window.end_s,
        )

    def note_memory_pressure_exit(
        self, now: float, window: MemoryPressureWindow
    ) -> None:
        self._record("memory_pressure_exit", now, window_start=window.start_s)

    # -- determinism ----------------------------------------------------------

    def timeline_digest(self) -> str:
        """Stable hex digest of the injected fault timeline."""
        payload = json.dumps(self.events, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def corrupt_artifacts(
    directory: Union[str, Path],
    *,
    scenario: FaultScenario,
    seed: int = 0,
    obs=None,
) -> List[Path]:
    """Corrupt plan-artifact JSON files under ``directory`` in place.

    Deterministic: files are visited in sorted order and each consumes
    one draw from the injector's artifact stream.  Corruption truncates
    the file mid-JSON — exactly the torn write a power loss produces.
    Pointed at a :class:`~repro.store.plan_store.PlanStore`'s
    ``objects_dir``, a victim no longer hashes to its address, so the
    store quarantines it and ``PlanCache`` counts a corrupt load and a
    miss, then re-tunes.
    """
    directory = Path(directory)
    injector = FaultInjector(scenario, seed=seed, obs=obs)
    victims: List[Path] = []
    for path in sorted(directory.glob("*.json")):
        if injector.artifact_corrupt(path=path.name):
            text = path.read_text()
            # Chaos injection: deliberately tears the file mid-JSON.
            path.write_text(text[: max(1, len(text) // 2)])  # repro-analysis: ignore[REPRO230]
            victims.append(path)
    return victims


__all__ = ["FaultInjector", "corrupt_artifacts"]

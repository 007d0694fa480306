"""Fault scenarios: declarative, serializable failure models.

A :class:`FaultScenario` describes *what can go wrong* during a run on
the virtual clock:

* **thermal windows** — intervals during which DVFS cuts processor and
  DRAM rates (:class:`~repro.hardware.throttle.ThrottleFactors`);
* **memory-pressure windows** — intervals during which zero-copy
  (MANAGED) allocations are unavailable: a resilient runtime demotes
  them to REGULAR, a naive one suffers allocation failure;
* **transient kernel failures** — a per-dispatch probability that a
  hybrid kernel launch fails (optionally only inside windows);
* **malformed payloads** — a per-request probability that the payload
  is corrupt (rejected by validation, or poisoning its whole batch);
* **artifact corruption** — a probability that a plan-artifact file on
  disk is corrupted before it is read back.

Scenarios are pure data: the same scenario plus the same seed always
expands to the same fault timeline (see :mod:`repro.faults.injector`).
They round-trip through versioned JSON so ``repro serve --faults``
accepts either a built-in name (:data:`SCENARIO_CATALOG`) or a file.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

from ..errors import ReproError
from ..fsutil import atomic_write_text
from ..hardware.throttle import ThrottleFactors

SCENARIO_SCHEMA = "repro.fault-scenario"
SCENARIO_VERSION = 1


@dataclass(frozen=True)
class ThermalWindow:
    """One thermal-throttle interval on the virtual clock."""

    start_s: float
    duration_s: float
    factors: ThrottleFactors = field(default_factory=ThrottleFactors)

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ReproError(
                f"thermal window needs start >= 0 and duration > 0, got "
                f"start={self.start_s}, duration={self.duration_s}"
            )

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "cpu_factor": self.factors.cpu,
            "gpu_factor": self.factors.gpu,
            "bandwidth_factor": self.factors.bandwidth,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ThermalWindow":
        try:
            return cls(
                start_s=float(data["start_s"]),
                duration_s=float(data["duration_s"]),
                factors=ThrottleFactors(
                    cpu=float(data.get("cpu_factor", 1.0)),
                    gpu=float(data.get("gpu_factor", 1.0)),
                    bandwidth=float(data.get("bandwidth_factor", 1.0)),
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed thermal window: {exc}") from exc


@dataclass(frozen=True)
class MemoryPressureWindow:
    """One interval during which zero-copy allocation is unavailable."""

    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ReproError(
                f"memory-pressure window needs start >= 0 and duration > 0, "
                f"got start={self.start_s}, duration={self.duration_s}"
            )

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s

    def to_dict(self) -> Dict[str, object]:
        return {"start_s": self.start_s, "duration_s": self.duration_s}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MemoryPressureWindow":
        try:
            return cls(
                start_s=float(data["start_s"]),
                duration_s=float(data["duration_s"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed memory-pressure window: {exc}") from exc


def _probability(label: str, value: object) -> float:
    p = float(value)  # type: ignore[arg-type]
    if not 0.0 <= p <= 1.0:
        raise ReproError(f"{label} must be a probability in [0, 1], got {p}")
    return p


@dataclass(frozen=True)
class FaultScenario:
    """A complete, seed-independent failure model for one run."""

    name: str
    description: str = ""
    thermal: Tuple[ThermalWindow, ...] = ()
    memory_pressure: Tuple[MemoryPressureWindow, ...] = ()
    #: per-dispatch probability that a hybrid kernel launch fails.
    kernel_failure_p: float = 0.0
    #: per-request probability that the payload is malformed.
    payload_corrupt_p: float = 0.0
    #: per-file probability that a plan artifact on disk is corrupted.
    artifact_corrupt_p: float = 0.0
    #: per-(job, attempt) probability that a tuning-fleet worker dies
    #: mid-write (torn tmp file, no result reported).
    worker_crash_p: float = 0.0
    version: int = SCENARIO_VERSION

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("a fault scenario needs a non-empty name")
        _probability("kernel_failure_p", self.kernel_failure_p)
        _probability("payload_corrupt_p", self.payload_corrupt_p)
        _probability("artifact_corrupt_p", self.artifact_corrupt_p)
        _probability("worker_crash_p", self.worker_crash_p)

    @property
    def is_quiet(self) -> bool:
        """True when the scenario injects nothing at all."""
        return (
            not self.thermal
            and not self.memory_pressure
            and self.kernel_failure_p == 0.0
            and self.payload_corrupt_p == 0.0
            and self.artifact_corrupt_p == 0.0
            and self.worker_crash_p == 0.0
        )

    @cached_property
    def window_edges(self) -> Tuple[float, ...]:
        """Sorted distinct starts and ends of every thermal and
        memory-pressure window: the only instants at which
        :meth:`thermal_at` or :meth:`memory_pressure_at` can change."""
        return tuple(sorted({
            edge
            for window in (*self.thermal, *self.memory_pressure)
            for edge in (window.start_s, window.end_s)
        }))

    def next_edge_after(self, now: float) -> float:
        """The first window edge strictly after ``now`` (inf if none).

        Windows are active on ``start <= now < end``, so the active
        windows at ``now`` stay active until this instant.
        """
        edges = self.window_edges
        index = bisect_right(edges, now)
        return edges[index] if index < len(edges) else math.inf

    def thermal_at(self, now: float):
        """The active thermal window at virtual instant ``now`` (or None)."""
        for window in self.thermal:
            if window.active(now):
                return window
        return None

    def memory_pressure_at(self, now: float):
        """The active memory-pressure window at ``now`` (or None)."""
        for window in self.memory_pressure:
            if window.active(now):
                return window
        return None

    def overlapping_windows(self) -> List[str]:
        """Pairs of same-kind windows that overlap in virtual time.

        Overlapping windows make the injected timeline ambiguous (which
        throttle factor applies?), so the static verifier rejects them.
        Returns human-readable descriptions, empty when disjoint.
        """
        problems: List[str] = []
        for kind, windows in (
            ("thermal", self.thermal),
            ("memory_pressure", self.memory_pressure),
        ):
            ordered = sorted(windows, key=lambda w: w.start_s)
            for earlier, later in zip(ordered, ordered[1:]):
                if later.start_s < earlier.end_s:
                    problems.append(
                        f"{kind} windows [{earlier.start_s:g}, "
                        f"{earlier.end_s:g}) and [{later.start_s:g}, "
                        f"{later.end_s:g}) overlap"
                    )
        return problems

    def shifted(self, offset_s: float) -> "FaultScenario":
        """Copy of this scenario with every window ``offset_s`` later.

        The cluster fleet (:mod:`repro.cluster`) assigns the same
        scenario to many replicas; shifting each replica's copy by a
        deterministic per-replica phase keeps the *fleet* from
        throttling in lockstep — real thermal events are correlated in
        shape, not in phase.  Probabilities are unaffected.
        """
        if offset_s == 0.0:
            return self
        if offset_s < 0:
            raise ReproError(
                f"scenario shift must be >= 0, got {offset_s}"
            )
        return replace(
            self,
            thermal=tuple(
                ThermalWindow(
                    start_s=w.start_s + offset_s,
                    duration_s=w.duration_s,
                    factors=w.factors,
                )
                for w in self.thermal
            ),
            memory_pressure=tuple(
                MemoryPressureWindow(
                    start_s=w.start_s + offset_s,
                    duration_s=w.duration_s,
                )
                for w in self.memory_pressure
            ),
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCENARIO_SCHEMA,
            "version": self.version,
            "name": self.name,
            "description": self.description,
            "thermal": [w.to_dict() for w in self.thermal],
            "memory_pressure": [w.to_dict() for w in self.memory_pressure],
            "kernel_failure_p": self.kernel_failure_p,
            "payload_corrupt_p": self.payload_corrupt_p,
            "artifact_corrupt_p": self.artifact_corrupt_p,
            "worker_crash_p": self.worker_crash_p,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultScenario":
        schema = data.get("schema")
        if schema != SCENARIO_SCHEMA:
            raise ReproError(
                f"not a fault scenario (schema={schema!r}, "
                f"expected {SCENARIO_SCHEMA!r})"
            )
        version = data.get("version")
        if version != SCENARIO_VERSION:
            raise ReproError(
                f"unsupported fault-scenario version {version!r} "
                f"(this build reads version {SCENARIO_VERSION})"
            )
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ReproError("fault scenario needs a non-empty string name")
        return cls(
            name=name,
            description=str(data.get("description", "")),
            thermal=tuple(
                ThermalWindow.from_dict(w) for w in data.get("thermal", ())
            ),
            memory_pressure=tuple(
                MemoryPressureWindow.from_dict(w)
                for w in data.get("memory_pressure", ())
            ),
            kernel_failure_p=_probability(
                "kernel_failure_p", data.get("kernel_failure_p", 0.0)
            ),
            payload_corrupt_p=_probability(
                "payload_corrupt_p", data.get("payload_corrupt_p", 0.0)
            ),
            artifact_corrupt_p=_probability(
                "artifact_corrupt_p", data.get("artifact_corrupt_p", 0.0)
            ),
            worker_crash_p=_probability(
                "worker_crash_p", data.get("worker_crash_p", 0.0)
            ),
            version=version,
        )

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultScenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"fault scenario is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ReproError("fault scenario JSON must be an object")
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        # Scenario files are golden artifacts; write atomically (REPRO230).
        return atomic_write_text(Path(path), self.to_json() + "\n")

    def describe(self) -> str:
        """One-paragraph human summary (``repro faults show``)."""
        lines = [f"scenario {self.name!r}: {self.description}"]
        for w in self.thermal:
            lines.append(
                f"  thermal       : [{w.start_s:g}s, {w.end_s:g}s) "
                f"cpu x{w.factors.cpu:g} gpu x{w.factors.gpu:g} "
                f"bw x{w.factors.bandwidth:g}"
            )
        for w in self.memory_pressure:
            lines.append(
                f"  mem pressure  : [{w.start_s:g}s, {w.end_s:g}s) "
                f"zero-copy unavailable"
            )
        if self.kernel_failure_p:
            lines.append(
                f"  kernel faults : p={self.kernel_failure_p:g} per dispatch "
                f"(hybrid kernels)"
            )
        if self.payload_corrupt_p:
            lines.append(
                f"  bad payloads  : p={self.payload_corrupt_p:g} per request"
            )
        if self.artifact_corrupt_p:
            lines.append(
                f"  disk faults   : p={self.artifact_corrupt_p:g} per "
                f"plan artifact"
            )
        if self.worker_crash_p:
            lines.append(
                f"  worker crashes: p={self.worker_crash_p:g} per "
                f"tuning attempt"
            )
        if self.is_quiet:
            lines.append("  (quiet: injects nothing)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Built-in scenario catalog
# ---------------------------------------------------------------------------

#: GPU-heavy thermal soak: the GPU clock halves mid-run, which is where a
#: plan tuned for the cool device loses — re-tuning shifts work CPU-wards.
THERMAL_SOAK = FaultScenario(
    name="thermal-soak",
    description="sustained mid-run GPU-heavy DVFS throttling",
    thermal=(
        ThermalWindow(
            start_s=2.0, duration_s=6.0,
            factors=ThrottleFactors(cpu=0.85, gpu=0.45, bandwidth=0.70),
        ),
    ),
)

#: Transient hybrid-kernel launch failures (driver hiccups, ECC retries).
FLAKY_KERNELS = FaultScenario(
    name="flaky-kernels",
    description="transient hybrid-kernel launch failures",
    kernel_failure_p=0.25,
)

#: Zero-copy pool exhausted for two long stretches of the run.
MEMORY_PRESSURE = FaultScenario(
    name="memory-pressure",
    description="zero-copy pool exhausted in two windows",
    memory_pressure=(
        MemoryPressureWindow(start_s=1.0, duration_s=3.0),
        MemoryPressureWindow(start_s=6.0, duration_s=2.5),
    ),
)

#: A slice of client traffic arrives malformed.
BAD_PAYLOADS = FaultScenario(
    name="bad-payloads",
    description="a fraction of request payloads are malformed",
    payload_corrupt_p=0.08,
)

#: Every plan artifact on disk is corrupted (exercises the checksum path).
CORRUPT_ARTIFACTS = FaultScenario(
    name="corrupt-artifacts",
    description="plan artifacts on disk are corrupted before reload",
    artifact_corrupt_p=1.0,
)

#: A tuning fleet having a bad day: workers die mid-write and some of
#: the writes that do land are corrupt (exercises lease expiry, retry
#: backoff, and the store's quarantine path).
FLAKY_FLEET = FaultScenario(
    name="flaky-fleet",
    description="tuning workers crash mid-write and corrupt artifacts",
    worker_crash_p=0.20,
    artifact_corrupt_p=0.10,
)

#: Everything at once: the bad day a resilient service must survive.
EDGE_STORM = FaultScenario(
    name="edge-storm",
    description="thermal throttling + flaky kernels + memory pressure "
                "+ malformed payloads, all in one run",
    thermal=(
        ThermalWindow(
            start_s=3.0, duration_s=4.0,
            factors=ThrottleFactors(cpu=0.85, gpu=0.50, bandwidth=0.75),
        ),
    ),
    memory_pressure=(MemoryPressureWindow(start_s=7.5, duration_s=2.0),),
    kernel_failure_p=0.15,
    payload_corrupt_p=0.05,
)

#: Built-in scenarios by name (``repro faults list``).
SCENARIO_CATALOG: Mapping[str, FaultScenario] = {
    s.name: s
    for s in (
        THERMAL_SOAK, FLAKY_KERNELS, MEMORY_PRESSURE,
        BAD_PAYLOADS, CORRUPT_ARTIFACTS, FLAKY_FLEET, EDGE_STORM,
    )
}


def load_scenario(name_or_path: Union[str, Path]) -> FaultScenario:
    """Resolve a scenario by catalog name or JSON file path."""
    name = str(name_or_path)
    if name in SCENARIO_CATALOG:
        return SCENARIO_CATALOG[name]
    path = Path(name_or_path)
    if path.exists():
        return FaultScenario.from_json(path.read_text())
    raise ReproError(
        f"unknown fault scenario {name!r}: not a catalog name "
        f"({sorted(SCENARIO_CATALOG)}) and no such file"
    )


def scale_to_horizon(
    scenario: FaultScenario, horizon_s: float, *, reference_s: float = 10.0
) -> FaultScenario:
    """Rescale a scenario's windows to a different run length.

    Catalog scenarios are authored against a ``reference_s`` (10 s)
    horizon; a 60 s soak run wants its windows stretched proportionally
    rather than all faults crowding the first sixth of the run.
    """
    if horizon_s <= 0 or reference_s <= 0:
        raise ReproError("horizons must be positive")
    f = horizon_s / reference_s
    if f == 1.0:
        return scenario
    return replace(
        scenario,
        thermal=tuple(
            ThermalWindow(
                start_s=w.start_s * f, duration_s=w.duration_s * f,
                factors=w.factors,
            )
            for w in scenario.thermal
        ),
        memory_pressure=tuple(
            MemoryPressureWindow(
                start_s=w.start_s * f, duration_s=w.duration_s * f
            )
            for w in scenario.memory_pressure
        ),
    )


__all__ = [
    "BAD_PAYLOADS",
    "CORRUPT_ARTIFACTS",
    "EDGE_STORM",
    "FLAKY_FLEET",
    "FLAKY_KERNELS",
    "FaultScenario",
    "MEMORY_PRESSURE",
    "MemoryPressureWindow",
    "SCENARIO_CATALOG",
    "SCENARIO_SCHEMA",
    "SCENARIO_VERSION",
    "THERMAL_SOAK",
    "ThermalWindow",
    "load_scenario",
    "scale_to_horizon",
]

"""repro.faults — deterministic fault injection and resilience.

The paper's evaluation assumes a well-behaved device; real edge
deployments are dominated by variability: DVFS thermal throttling,
transient kernel-launch failures, memory pressure that takes the
zero-copy pool away, corrupt plan artifacts on flash, and malformed
request payloads.  This package models all of that *deterministically*
— a :class:`FaultScenario` plus a seed expands to the same fault
timeline in any process — and supplies the resilience mechanisms that
survive it:

* :class:`RetryPolicy` / :class:`CircuitBreaker` — backoff-with-jitter
  retries and a breaker around the serving simulator's kernel launches;
* :class:`DegradationManager` — latency-drift detection that re-tunes
  against the throttled device, and a safe-plan fallback after
  repeated hybrid-kernel failures;
* :class:`FaultInjector` — the seeded runtime that turns a scenario
  into concrete fault events (and their obs trace/metrics records).

See ``docs/robustness.md`` for the full fault model and
``repro faults list`` for the built-in scenario catalog.
"""

from __future__ import annotations

from .degradation import (
    DegradationManager,
    DegradationPolicy,
    MODE_NO_HYBRID,
    MODE_NORMAL,
)
from .injector import FaultInjector, corrupt_artifacts
from .resilience import BreakerStats, CircuitBreaker, RetryPolicy
from .scenario import (
    BAD_PAYLOADS,
    CORRUPT_ARTIFACTS,
    EDGE_STORM,
    FLAKY_FLEET,
    FLAKY_KERNELS,
    FaultScenario,
    MEMORY_PRESSURE,
    MemoryPressureWindow,
    SCENARIO_CATALOG,
    THERMAL_SOAK,
    ThermalWindow,
    load_scenario,
    scale_to_horizon,
)

__all__ = [
    "BAD_PAYLOADS",
    "CORRUPT_ARTIFACTS",
    "EDGE_STORM",
    "FLAKY_FLEET",
    "FLAKY_KERNELS",
    "MEMORY_PRESSURE",
    "THERMAL_SOAK",
    "BreakerStats",
    "CircuitBreaker",
    "DegradationManager",
    "DegradationPolicy",
    "FaultInjector",
    "FaultScenario",
    "MODE_NO_HYBRID",
    "MODE_NORMAL",
    "MemoryPressureWindow",
    "RetryPolicy",
    "SCENARIO_CATALOG",
    "ThermalWindow",
    "corrupt_artifacts",
    "load_scenario",
    "scale_to_horizon",
]

"""repro.tuning — fault-tolerant fleet tuning.

MITuna-style ahead-of-time compilation at fleet scale: a
:func:`~repro.tuning.catalog.fleet_catalog` of plan keys drains through
a lease-based :class:`~repro.tuning.queue.JobQueue` across a
multiprocess :class:`~repro.tuning.fleet.TuneFleet` into a
content-addressed :class:`~repro.store.plan_store.PlanStore`.  Worker
crashes, torn writes, and corrupt artifacts are recovered (retried,
quarantined) rather than fatal, and the whole run is deterministic:
same seed, same catalog → byte-identical store manifest.

See ``docs/tuning_fleet.md`` and ``repro tune-fleet --help``.
"""

from .catalog import DEFAULT_BATCH_SIZES, fleet_catalog, key_for
from .fleet import FleetReport, TuneFleet, WorkerCrashError, run_fleet
from .queue import (
    DONE,
    JobQueue,
    LEASED,
    PENDING,
    POISONED,
    TuneJob,
)

__all__ = [
    "DEFAULT_BATCH_SIZES",
    "DONE",
    "FleetReport",
    "JobQueue",
    "LEASED",
    "PENDING",
    "POISONED",
    "TuneFleet",
    "TuneJob",
    "WorkerCrashError",
    "fleet_catalog",
    "key_for",
    "run_fleet",
]

"""Content-addressed, versioned plan store (tuned plans as assets).

See :mod:`repro.store.plan_store` for the storage model and
:mod:`repro.store.fingerprint` for the producer fingerprints used for
staleness invalidation.
"""

from .fingerprint import (
    cost_model_fingerprint,
    device_fingerprint,
    device_fingerprint_for,
)
from .plan_store import (
    MANIFEST_NAME,
    OBJECTS_DIR,
    QUARANTINE_DIR,
    QUARANTINE_SCHEMA,
    STORE_SCHEMA,
    STORE_VERSION,
    PlanStore,
    StoreEntry,
)

__all__ = [
    "MANIFEST_NAME",
    "OBJECTS_DIR",
    "PlanStore",
    "QUARANTINE_DIR",
    "QUARANTINE_SCHEMA",
    "STORE_SCHEMA",
    "STORE_VERSION",
    "StoreEntry",
    "cost_model_fingerprint",
    "device_fingerprint",
    "device_fingerprint_for",
]

"""Producer fingerprints: *what built this plan* as stable hashes.

A tuned plan is only as valid as the model that produced it.  Two
things determine the tuning outcome besides the :class:`PlanKey`
itself:

* the :class:`~repro.hardware.specs.DeviceSpec` the plan was compiled
  against — edit a clock, a bandwidth, or a power figure and every plan
  for that device is stale;
* the cost model — the calibration constants in
  :mod:`repro.hardware.calibration` that every roofline estimate and
  feedback round is computed from (perf4sight's observation: plan
  validity is a function of the predictor, not just the key).

Both are fingerprinted here as sha256 hex digests over canonical
(sorted-keys) JSON of their actual values, so the
:class:`~repro.store.plan_store.PlanStore` can stamp every entry with
the producers that built it and invalidate entries whose producers have
since changed — without parsing source code or trusting version
strings.

A throttled variant (``jetson-agx-xavier@thr-c0.800-g0.600-b0.800``,
see :func:`~repro.hardware.throttle.apply_throttle`) is in no catalog:
its spec is its base device's spec under the factors its suffix spells.
So :func:`device_fingerprint_for` digests the base's fingerprint
together with the suffix, and editing the base makes the plans of its
throttled variants stale as well.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from enum import Enum
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple

from ..hardware.specs import DeviceSpec


def _canonical(value: Any) -> Any:
    """Reduce a value to JSON-encodable canonical form."""
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, (Mapping, MappingProxyType)):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _digest(payload: Any) -> str:
    blob = json.dumps(_canonical(payload), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


#: id(spec) -> (spec, fingerprint).  Holding the spec keeps its id from
#: being reused by another object while the entry lives.
_DEVICE_CACHE: Dict[int, Tuple[DeviceSpec, str]] = {}


def device_fingerprint(spec: DeviceSpec) -> str:
    """Stable content hash of one device spec's full parameterization,
    computed once per spec object (specs are frozen)."""
    cached = _DEVICE_CACHE.get(id(spec))
    if cached is not None:
        return cached[1]
    fingerprint = _digest(spec)
    _DEVICE_CACHE[id(spec)] = (spec, fingerprint)
    return fingerprint


_COST_MODEL_CACHE: Optional[str] = None


def cost_model_fingerprint() -> str:
    """Stable content hash of the analytic cost model's calibration.

    Hashes every public module-level constant of
    :mod:`repro.hardware.calibration` — the kernel-efficiency tables,
    launch/partition overheads, copy-engine rates, co-run penalties —
    which together are the cost model the tuner optimizes against.
    Changing any of them re-fingerprints every plan in a store.
    """
    global _COST_MODEL_CACHE
    if _COST_MODEL_CACHE is None:
        from ..hardware import calibration

        constants: Dict[str, Any] = {
            name: getattr(calibration, name)
            for name in sorted(dir(calibration))
            if name.isupper() and not name.startswith("_")
        }
        _COST_MODEL_CACHE = _digest(constants)
    return _COST_MODEL_CACHE


def device_fingerprint_for(name: str) -> str:
    """Fingerprint of a catalog device by name; "" when unknown.

    A throttled name (``base@suffix``) fingerprints as the digest of its
    base's fingerprint and its suffix.  Unknown devices, throttled
    variants of unknown bases among them (tests with synthetic specs,
    catalogs from a newer build), fingerprint to the empty string, which
    the store treats as "cannot check" rather than "stale".
    """
    from ..hardware.specs import DEVICE_CATALOG
    from ..hardware.variants import VARIANT_CATALOG

    base, throttled, suffix = name.partition("@")
    spec = DEVICE_CATALOG.get(base) or VARIANT_CATALOG.get(base)
    if spec is None:
        return ""
    fingerprint = device_fingerprint(spec)
    if throttled:
        return _digest({"base": fingerprint, "suffix": suffix})
    return fingerprint


__all__ = [
    "cost_model_fingerprint",
    "device_fingerprint",
    "device_fingerprint_for",
]

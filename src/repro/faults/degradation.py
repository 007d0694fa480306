"""Graceful degradation: give something up, keep serving.

The manager is the policy brain the serving simulator consults when the
injected faults start hurting:

* **latency drift** — when a tenant's measured batch time exceeds its
  plan's predicted cost by ``drift_threshold`` for ``drift_sustain``
  consecutive batches (a thermal window in effect), the stale
  :class:`~repro.core.plan_cache.PlanCache` entry is invalidated and
  the tenant is re-tuned against the *throttled* device spec — the
  EdgeNN feedback loop (Eqs. 1-4) applied at the serving layer;
* **hybrid-kernel failures** — when retries keep exhausting on a
  tenant, it falls back to the safe non-hybrid plan (GPU-only /
  CPU-only placement, no intra-kernel splits) until the run ends.

Every decision is written to the provenance log as a
:class:`~repro.obs.provenance.DegradationRecord` and mirrored as a
metric, so a report's goodput can be traced to the moments the system
chose to degrade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ReproError
from ..obs import NOOP_OBS, DegradationRecord, Observability

#: Tenant operating modes, in degradation order.
MODE_NORMAL = "normal"
MODE_NO_HYBRID = "no_hybrid"


@dataclass
class _TenantState:
    drift_streak: int = 0
    retuned: bool = False
    hybrid_exhaustions: int = 0
    mode: str = MODE_NORMAL


@dataclass
class DegradationPolicy:
    """Thresholds for the two degradation triggers."""

    #: observed/predicted ratio above which a batch counts as drifted.
    drift_threshold: float = 1.15
    #: consecutive drifted batches before re-tuning fires.
    drift_sustain: int = 3
    #: exhausted retry loops before the hybrid fallback goes sticky.
    hybrid_failure_threshold: int = 2

    def __post_init__(self) -> None:
        if self.drift_threshold <= 1.0:
            raise ReproError(
                f"drift_threshold must be > 1, got {self.drift_threshold}"
            )
        if self.drift_sustain < 1:
            raise ReproError(
                f"drift_sustain must be >= 1, got {self.drift_sustain}"
            )
        if self.hybrid_failure_threshold < 1:
            raise ReproError(
                f"hybrid_failure_threshold must be >= 1, "
                f"got {self.hybrid_failure_threshold}"
            )


class DegradationManager:
    """Per-tenant degradation state machine."""

    def __init__(
        self,
        policy: Optional[DegradationPolicy] = None,
        *,
        obs: Optional[Observability] = None,
    ) -> None:
        self.policy = policy or DegradationPolicy()
        self._obs = obs if obs is not None else NOOP_OBS
        self._tenants: Dict[str, _TenantState] = {}
        self.records: list = []

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState()
        return state

    def _emit(self, record: DegradationRecord) -> None:
        self.records.append(record)
        obs = self._obs
        if obs.enabled:
            obs.provenance.record_degradation(record)
            obs.tracer.record(
                f"degrade.{record.action}", record.t_s, record.t_s,
                category="fault", tenant=record.tenant,
                trigger=record.trigger,
            )
            obs.metrics.counter(
                "repro_degradations_total",
                "Graceful-degradation decisions",
                labels=("trigger", "action"),
            ).labels(trigger=record.trigger, action=record.action).inc()

    # -- queries --------------------------------------------------------------

    def mode(self, tenant: str) -> str:
        return self._state(tenant).mode

    def retuned(self, tenant: str) -> bool:
        """Has this tenant switched to the throttled-device plan?"""
        return self._state(tenant).retuned

    # -- latency drift → re-tune against the throttled device -----------------

    def observe_latency(
        self,
        tenant: str,
        network: str,
        *,
        now: float,
        observed_s: float,
        predicted_s: float,
    ) -> bool:
        """Feed one batch measurement; True the instant re-tuning fires."""
        state = self._state(tenant)
        if state.retuned or predicted_s <= 0:
            return False
        if observed_s / predicted_s > self.policy.drift_threshold:
            state.drift_streak += 1
        else:
            state.drift_streak = 0
            return False
        if state.drift_streak < self.policy.drift_sustain:
            return False
        state.retuned = True
        self._emit(DegradationRecord(
            network=network,
            tenant=tenant,
            t_s=now,
            trigger="latency_drift",
            action="retune_throttled",
            observed_s=observed_s,
            predicted_s=predicted_s,
            reason=(
                f"observed/predicted {observed_s / predicted_s:.2f}x > "
                f"{self.policy.drift_threshold:g}x for "
                f"{state.drift_streak} consecutive batches"
            ),
        ))
        return True

    def clear_drift(self, tenant: str, network: str, *, now: float) -> None:
        """Throttle window over: return to the un-throttled plan."""
        state = self._state(tenant)
        if state.retuned:
            self._emit(DegradationRecord(
                network=network,
                tenant=tenant,
                t_s=now,
                trigger="latency_drift",
                action="restore_nominal",
                reason="throttle window ended; nominal plan reinstated",
            ))
        state.retuned = False
        state.drift_streak = 0

    # -- repeated hybrid-kernel failure → safe-plan fallback -------------------

    def note_hybrid_exhausted(
        self, tenant: str, network: str, *, now: float
    ) -> bool:
        """Feed one exhausted retry loop; True when the fallback engages."""
        state = self._state(tenant)
        state.hybrid_exhaustions += 1
        if state.mode == MODE_NO_HYBRID:
            return False
        if state.hybrid_exhaustions < self.policy.hybrid_failure_threshold:
            return False
        state.mode = MODE_NO_HYBRID
        self._emit(DegradationRecord(
            network=network,
            tenant=tenant,
            t_s=now,
            trigger="kernel_failures",
            action="fallback_no_hybrid",
            reason=(
                f"{state.hybrid_exhaustions} retry loops exhausted; "
                f"hybrid kernels disabled for this tenant"
            ),
        ))
        return True

    # -- memory pressure → zero-copy demotion ----------------------------------

    def note_memory_demotion(
        self, tenant: str, network: str, *, now: float
    ) -> None:
        """Record one window's ZEROCOPY→REGULAR demotion decision."""
        self._emit(DegradationRecord(
            network=network,
            tenant=tenant,
            t_s=now,
            trigger="memory_pressure",
            action="demote_zero_copy",
            reason="zero-copy pool unavailable; serving from regular memory",
        ))

    def note_slo_alert(
        self,
        tenant: str,
        network: str,
        *,
        objective: str,
        now: float,
        burn: float,
        reason: str = "",
    ) -> None:
        """Record one SLO burn-rate alert firing against this workload.

        Timeline SLO evaluation happens after the run, so there is no
        plan to demote here — the record ties the alert into the same
        degradation stream operators already watch, and the burn
        multiple is preserved as ``observed_s`` for triage.
        """
        self._emit(DegradationRecord(
            network=network,
            tenant=tenant,
            t_s=now,
            trigger="slo_burn_rate",
            action="alert_fired",
            observed_s=burn,
            reason=reason or (
                f"objective {objective} burned its error budget at "
                f"{burn:.2f}x the alert factor"
            ),
        ))


__all__ = [
    "DegradationManager",
    "DegradationPolicy",
    "MODE_NO_HYBRID",
    "MODE_NORMAL",
]

"""DegradationManager: drift-triggered re-tune, hybrid fallback, records."""

import pytest

from repro.errors import ReproError
from repro.faults import (
    DegradationManager,
    DegradationPolicy,
    MODE_NO_HYBRID,
    MODE_NORMAL,
)
from repro.obs import Observability


class TestPolicyValidation:
    def test_rejects_bad_thresholds(self):
        with pytest.raises(ReproError, match="drift_threshold"):
            DegradationPolicy(drift_threshold=1.0)
        with pytest.raises(ReproError, match="drift_sustain"):
            DegradationPolicy(drift_sustain=0)
        with pytest.raises(ReproError, match="hybrid_failure_threshold"):
            DegradationPolicy(hybrid_failure_threshold=0)


class TestLatencyDrift:
    def _manager(self, sustain=3):
        return DegradationManager(
            DegradationPolicy(drift_threshold=1.15, drift_sustain=sustain)
        )

    def test_sustained_drift_fires_retune(self):
        mgr = self._manager()
        fired = [
            mgr.observe_latency(
                "t", "lenet", now=float(i),
                observed_s=0.02, predicted_s=0.01,
            )
            for i in range(3)
        ]
        assert fired == [False, False, True]
        assert mgr.retuned("t")
        assert mgr.records[-1].action == "retune_throttled"
        assert mgr.records[-1].trigger == "latency_drift"

    def test_streak_resets_on_healthy_batch(self):
        mgr = self._manager()
        mgr.observe_latency("t", "lenet", now=0.0,
                            observed_s=0.02, predicted_s=0.01)
        mgr.observe_latency("t", "lenet", now=1.0,
                            observed_s=0.01, predicted_s=0.01)
        fired = [
            mgr.observe_latency("t", "lenet", now=2.0 + i,
                                observed_s=0.02, predicted_s=0.01)
            for i in range(3)
        ]
        assert fired == [False, False, True]

    def test_below_threshold_never_fires(self):
        mgr = self._manager()
        for i in range(10):
            assert not mgr.observe_latency(
                "t", "lenet", now=float(i),
                observed_s=0.0114, predicted_s=0.01,  # 1.14x < 1.15x
            )
        assert not mgr.retuned("t")

    def test_clear_drift_restores_nominal(self):
        mgr = self._manager(sustain=1)
        mgr.observe_latency("t", "lenet", now=0.0,
                            observed_s=0.02, predicted_s=0.01)
        assert mgr.retuned("t")
        mgr.clear_drift("t", "lenet", now=5.0)
        assert not mgr.retuned("t")
        assert mgr.records[-1].action == "restore_nominal"

    def test_tenants_are_independent(self):
        mgr = self._manager(sustain=1)
        mgr.observe_latency("a", "lenet", now=0.0,
                            observed_s=0.02, predicted_s=0.01)
        assert mgr.retuned("a")
        assert not mgr.retuned("b")


class TestHybridFallback:
    def test_fallback_engages_at_threshold(self):
        mgr = DegradationManager(
            DegradationPolicy(hybrid_failure_threshold=2)
        )
        assert mgr.mode("t") == MODE_NORMAL
        assert not mgr.note_hybrid_exhausted("t", "lenet", now=0.0)
        assert mgr.note_hybrid_exhausted("t", "lenet", now=1.0)
        assert mgr.mode("t") == MODE_NO_HYBRID
        # Sticky: further exhaustions do not re-fire.
        assert not mgr.note_hybrid_exhausted("t", "lenet", now=2.0)
        assert mgr.records[-1].action == "fallback_no_hybrid"


class TestRecordsAndObs:
    def test_decisions_reach_provenance(self):
        obs = Observability.on()
        mgr = DegradationManager(
            DegradationPolicy(drift_sustain=1), obs=obs
        )
        mgr.observe_latency("t", "lenet", now=0.0,
                            observed_s=0.02, predicted_s=0.01)
        mgr.note_memory_demotion("t", "lenet", now=1.0)
        actions = [r.action for r in obs.provenance.degradations()]
        assert actions == ["retune_throttled", "demote_zero_copy"]

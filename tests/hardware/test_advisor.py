"""Power-mode advisor."""

import pytest

from repro.errors import ReproError
from repro.hardware.advisor import (
    ModeProfile,
    choose_power_mode,
    profile_power_modes,
)


@pytest.fixture(scope="module")
def profiles():
    return profile_power_modes("lenet")


class TestProfiles:
    def test_three_modes_lowest_budget_first(self, profiles):
        assert [p.mode for p in profiles] == ["10W", "15W", "30W"]

    def test_latency_improves_with_budget(self, profiles):
        latencies = [p.latency_s for p in profiles]
        assert latencies == sorted(latencies, reverse=True)

    def test_power_rises_with_budget(self, profiles):
        powers = [p.power_w for p in profiles]
        assert powers == sorted(powers)


class TestChoice:
    def test_loose_slo_picks_lowest_power(self, profiles):
        rec = choose_power_mode("lenet", slo_s=10.0)
        assert rec.feasible
        assert rec.chosen.mode == "10W"

    def test_tight_slo_escalates(self, profiles):
        # An SLO only the full-power mode can meet.
        slo = profiles[2].latency_s * 1.05
        if profiles[1].latency_s <= slo:
            pytest.skip("15W already meets this SLO at current calibration")
        rec = choose_power_mode("lenet", slo_s=slo)
        assert rec.feasible and rec.chosen.mode == "30W"

    def test_impossible_slo(self):
        rec = choose_power_mode("lenet", slo_s=1e-9)
        assert not rec.feasible
        assert rec.chosen is None
        assert "no mode meets" in rec.describe()

    def test_invalid_slo_rejected(self):
        with pytest.raises(ReproError):
            choose_power_mode("lenet", slo_s=0.0)

    def test_describe_lists_all_modes(self):
        rec = choose_power_mode("lenet", slo_s=1.0)
        text = rec.describe()
        for mode in ("10W", "15W", "30W"):
            assert mode in text

    def test_mode_profile_meets(self):
        p = ModeProfile("10W", latency_s=0.1, power_w=5.0, energy_j=0.5)
        assert p.meets(0.2) and not p.meets(0.05)

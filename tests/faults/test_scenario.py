"""Fault-scenario data model: validation, catalog, JSON round-trip."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.faults import (
    EDGE_STORM,
    FaultScenario,
    MemoryPressureWindow,
    SCENARIO_CATALOG,
    THERMAL_SOAK,
    ThermalWindow,
    load_scenario,
    scale_to_horizon,
)
from repro.hardware.throttle import ThrottleFactors


class TestWindows:
    def test_thermal_window_bounds(self):
        w = ThermalWindow(start_s=2.0, duration_s=6.0)
        assert w.end_s == 8.0
        assert not w.active(1.999)
        assert w.active(2.0)
        assert w.active(7.999)
        assert not w.active(8.0)

    def test_thermal_window_rejects_bad_interval(self):
        with pytest.raises(ReproError, match="duration"):
            ThermalWindow(start_s=0.0, duration_s=0.0)
        with pytest.raises(ReproError, match="start"):
            ThermalWindow(start_s=-1.0, duration_s=1.0)

    def test_memory_pressure_window(self):
        w = MemoryPressureWindow(start_s=1.0, duration_s=3.0)
        assert w.active(1.0) and w.active(3.999) and not w.active(4.0)
        with pytest.raises(ReproError):
            MemoryPressureWindow(start_s=1.0, duration_s=-1.0)


class TestScenario:
    def test_requires_name(self):
        with pytest.raises(ReproError, match="name"):
            FaultScenario(name="")

    def test_probabilities_validated(self):
        with pytest.raises(ReproError, match="kernel_failure_p"):
            FaultScenario(name="x", kernel_failure_p=1.5)
        with pytest.raises(ReproError, match="payload_corrupt_p"):
            FaultScenario(name="x", payload_corrupt_p=-0.1)

    def test_quiet_detection(self):
        assert FaultScenario(name="quiet").is_quiet
        assert not THERMAL_SOAK.is_quiet
        assert not EDGE_STORM.is_quiet

    def test_window_queries(self):
        assert THERMAL_SOAK.thermal_at(5.0) is not None
        assert THERMAL_SOAK.thermal_at(9.0) is None
        assert THERMAL_SOAK.memory_pressure_at(5.0) is None

    def test_json_round_trip(self):
        for scenario in SCENARIO_CATALOG.values():
            again = FaultScenario.from_json(scenario.to_json())
            assert again == scenario

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ReproError, match="not valid JSON"):
            FaultScenario.from_json("{truncated")
        with pytest.raises(ReproError, match="must be an object"):
            FaultScenario.from_json("[1, 2]")
        with pytest.raises(ReproError, match="schema"):
            FaultScenario.from_json('{"schema": "wrong"}')

    def test_from_dict_rejects_bad_version(self):
        data = THERMAL_SOAK.to_dict()
        data["version"] = 99
        with pytest.raises(ReproError, match="version"):
            FaultScenario.from_dict(data)

    def test_describe_mentions_every_fault_class(self):
        text = EDGE_STORM.describe()
        assert "thermal" in text
        assert "mem pressure" in text
        assert "kernel faults" in text
        assert "bad payloads" in text


def _window_specs(max_size=4):
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.01, max_value=5.0),
        ),
        max_size=max_size,
    )


class TestWindowEdges:
    def test_sorted_distinct_starts_and_ends_of_both_kinds(self):
        scenario = FaultScenario(
            name="edges",
            thermal=(
                ThermalWindow(start_s=4.0, duration_s=2.0),
                ThermalWindow(start_s=1.0, duration_s=1.0),
            ),
            memory_pressure=(MemoryPressureWindow(start_s=2.0, duration_s=4.0),),
        )
        assert scenario.window_edges == (1.0, 2.0, 4.0, 6.0)

    def test_next_edge_is_strictly_after_now(self):
        scenario = FaultScenario(
            name="edges", thermal=(ThermalWindow(start_s=1.0, duration_s=1.0),)
        )
        assert scenario.next_edge_after(-math.inf) == 1.0
        assert scenario.next_edge_after(0.5) == 1.0
        assert scenario.next_edge_after(1.0) == 2.0
        assert scenario.next_edge_after(2.0) == math.inf
        assert FaultScenario(name="quiet").next_edge_after(0.0) == math.inf

    @settings(max_examples=200, deadline=None)
    @given(
        thermal=_window_specs(),
        pressure=_window_specs(),
        now=st.floats(min_value=0.0, max_value=16.0),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_active_windows_hold_until_the_next_edge(
        self, thermal, pressure, now, fraction
    ):
        """What serving's window-edge recording relies on: no query
        changes its answer before :meth:`next_edge_after` — overlapping
        windows included."""
        scenario = FaultScenario(
            name="random",
            thermal=tuple(ThermalWindow(s, d) for s, d in thermal),
            memory_pressure=tuple(
                MemoryPressureWindow(s, d) for s, d in pressure
            ),
        )
        edge = scenario.next_edge_after(now)
        later = [now + fraction * (min(edge, 20.0) - now)]
        if edge < math.inf:
            later.append(math.nextafter(edge, -math.inf))
        for t in later:
            if not now <= t < edge:
                continue
            assert scenario.thermal_at(t) is scenario.thermal_at(now)
            assert (
                scenario.memory_pressure_at(t)
                is scenario.memory_pressure_at(now)
            )


class TestLoadScenario:
    def test_catalog_name(self):
        assert load_scenario("thermal-soak") is THERMAL_SOAK

    def test_file_path(self, tmp_path):
        path = tmp_path / "custom.json"
        EDGE_STORM.save(path)
        assert load_scenario(path) == EDGE_STORM

    def test_unknown_raises_with_catalog_listing(self):
        with pytest.raises(ReproError, match="thermal-soak"):
            load_scenario("no-such-scenario")


class TestScaleToHorizon:
    def test_windows_stretch_proportionally(self):
        scaled = scale_to_horizon(EDGE_STORM, 20.0)
        assert scaled.thermal[0].start_s == pytest.approx(6.0)
        assert scaled.thermal[0].duration_s == pytest.approx(8.0)
        assert scaled.memory_pressure[0].start_s == pytest.approx(15.0)
        # Probabilities are per-event and do not scale.
        assert scaled.kernel_failure_p == EDGE_STORM.kernel_failure_p

    def test_identity_at_reference(self):
        assert scale_to_horizon(EDGE_STORM, 10.0) is EDGE_STORM

    def test_factors_preserved(self):
        scaled = scale_to_horizon(THERMAL_SOAK, 30.0)
        assert scaled.thermal[0].factors == ThrottleFactors(
            cpu=0.85, gpu=0.45, bandwidth=0.70
        )

    def test_rejects_non_positive_horizon(self):
        with pytest.raises(ReproError, match="positive"):
            scale_to_horizon(EDGE_STORM, 0.0)

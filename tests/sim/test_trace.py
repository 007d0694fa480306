"""Trace records and their Chrome-trace export."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.export import chrome_trace
from repro.sim.trace import Trace, TraceEvent


def make_trace():
    trace = Trace()
    trace.add(TraceEvent("cpu", "a", 0.0, 1.0, "kernel"))
    trace.add(TraceEvent("gpu", "b", 0.5, 2.5, "kernel"))
    trace.add(TraceEvent("copy", "m", 2.5, 3.0, "copy"))
    return trace


class TestTrace:
    def test_len_and_iter(self):
        trace = make_trace()
        assert len(trace) == 3
        assert [e.label for e in trace] == ["a", "b", "m"]

    def test_events_for_resource(self):
        trace = make_trace()
        assert [e.label for e in trace.events_for("gpu")] == ["b"]

    def test_busy_time(self):
        trace = make_trace()
        assert trace.busy_time("gpu") == pytest.approx(2.0)
        assert trace.busy_time("copy", category="copy") == pytest.approx(0.5)
        assert trace.busy_time("copy", category="kernel") == 0.0

    def test_span(self):
        assert make_trace().span() == pytest.approx(3.0)

    def test_span_empty(self):
        assert Trace().span() == 0.0

    def test_event_duration(self):
        ev = TraceEvent("cpu", "a", 1.0, 3.5)
        assert ev.duration_s == pytest.approx(2.5)

    def test_rejects_negative_duration(self):
        with pytest.raises(ReproError, match="ends\\s+before it starts"):
            TraceEvent("cpu", "bad", 2.0, 1.0)

    def test_zero_duration_event_allowed(self):
        ev = TraceEvent("cpu", "instant", 1.0, 1.0)
        assert ev.duration_s == 0.0


class TestChromeExport:
    def test_valid_json(self):
        doc = json.loads(chrome_trace(make_trace()))
        assert "traceEvents" in doc

    def test_times_in_microseconds(self):
        doc = json.loads(chrome_trace(make_trace()))
        slices = {r["name"]: r for r in doc["traceEvents"] if r.get("ph") == "X"}
        assert slices["b"]["ts"] == pytest.approx(0.5e6)
        assert slices["b"]["dur"] == pytest.approx(2.0e6)

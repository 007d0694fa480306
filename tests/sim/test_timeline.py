"""Discrete-event timeline."""

import pytest

from repro.errors import SimulationError
from repro.sim.timeline import COPY, CPU, GPU, Timeline


class TestScheduling:
    def test_serial_on_one_resource(self):
        tl = Timeline()
        a = tl.schedule(CPU, 1.0, "a")
        b = tl.schedule(CPU, 2.0, "b")
        assert a.start_s == 0.0 and a.end_s == 1.0
        assert b.start_s == 1.0 and b.end_s == 3.0

    def test_parallel_across_resources(self):
        tl = Timeline()
        a = tl.schedule(CPU, 1.0, "a")
        b = tl.schedule(GPU, 1.0, "b")
        assert a.start_s == 0.0 and b.start_s == 0.0

    def test_dependency_ordering(self):
        tl = Timeline()
        a = tl.schedule(GPU, 1.0, "a")
        b = tl.schedule(CPU, 0.5, "b", after=[a])
        assert b.start_s == a.end_s

    def test_dependency_and_resource_both_respected(self):
        tl = Timeline()
        long_cpu = tl.schedule(CPU, 5.0, "long")
        gpu = tl.schedule(GPU, 1.0, "gpu")
        dep = tl.schedule(CPU, 1.0, "dep", after=[gpu])
        assert dep.start_s == long_cpu.end_s  # resource is the binding limit

    def test_not_before(self):
        tl = Timeline()
        ev = tl.schedule(CPU, 1.0, "a", not_before=2.5)
        assert ev.start_s == 2.5

    def test_zero_duration_event(self):
        tl = Timeline()
        ev = tl.schedule(GPU, 0.0, "sync")
        assert ev.duration_s == 0.0

    def test_negative_duration_rejected(self):
        tl = Timeline()
        with pytest.raises(SimulationError):
            tl.schedule(CPU, -1.0, "bad")

    def test_unknown_resource_rejected(self):
        tl = Timeline()
        with pytest.raises(SimulationError):
            tl.schedule("tpu", 1.0, "bad")

    def test_empty_resource_set_rejected(self):
        with pytest.raises(SimulationError):
            Timeline(())


class TestBarrierAndStats:
    def test_barrier_aligns_all_resources(self):
        tl = Timeline()
        tl.schedule(CPU, 1.0, "a")
        tl.schedule(GPU, 3.0, "b")
        tl.barrier()
        c = tl.schedule(CPU, 1.0, "c")
        assert c.start_s == 3.0

    def test_busy_time_per_resource(self):
        tl = Timeline()
        tl.schedule(CPU, 1.0, "a")
        tl.schedule(CPU, 2.0, "b")
        tl.schedule(GPU, 4.0, "c")
        assert tl.busy_time(CPU) == pytest.approx(3.0)
        assert tl.busy_time(GPU) == pytest.approx(4.0)

    def test_utilization(self):
        tl = Timeline()
        tl.schedule(CPU, 1.0, "a")
        tl.schedule(GPU, 4.0, "b")
        assert tl.utilization(CPU) == pytest.approx(0.25)
        assert tl.utilization(GPU) == pytest.approx(1.0)

    def test_utilization_of_empty_timeline(self):
        tl = Timeline()
        assert tl.utilization(CPU) == 0.0

    def test_now_is_makespan(self):
        tl = Timeline()
        tl.schedule(COPY, 2.0, "x")
        tl.schedule(GPU, 1.0, "y")
        assert tl.now() == 2.0

    def test_free_at_tracks_resource(self):
        tl = Timeline()
        tl.schedule(CPU, 1.5, "a")
        assert tl.free_at(CPU) == 1.5
        assert tl.free_at(GPU) == 0.0

    def test_trace_records_events(self):
        tl = Timeline()
        a = tl.schedule(CPU, 1.0, "a", category="kernel")
        m = tl.schedule(COPY, 0.5, "m", category="copy")
        first, second = tl.trace.events
        assert first is a and second is m  # the handle is the trace record
        assert tl.trace.busy_time(COPY, category="copy") == pytest.approx(0.5)

"""Trace statistics: utilization, gaps, co-run share."""

import pytest

from repro.errors import SimulationError
from repro.sim.stats import corun_share, resource_stats, utilization_profile
from repro.sim.trace import Trace, TraceEvent


def trace_from(events):
    trace = Trace()
    for resource, start, end in events:
        trace.add(TraceEvent(resource, f"{resource}@{start}", start, end))
    return trace


class TestResourceStats:
    def test_busy_and_utilization(self):
        trace = trace_from([("cpu", 0.0, 1.0), ("cpu", 2.0, 3.0),
                            ("gpu", 0.0, 4.0)])
        stats = resource_stats(trace, "cpu")
        assert stats.busy_s == pytest.approx(2.0)
        assert stats.utilization == pytest.approx(0.5)
        assert stats.event_count == 2

    def test_longest_idle_gap(self):
        trace = trace_from([("cpu", 0.0, 1.0), ("cpu", 3.0, 4.0),
                            ("gpu", 0.0, 6.0)])
        stats = resource_stats(trace, "cpu")
        assert stats.longest_idle_gap_s == pytest.approx(2.0)

    def test_trailing_gap_counts(self):
        trace = trace_from([("cpu", 0.0, 1.0), ("gpu", 0.0, 10.0)])
        assert resource_stats(trace, "cpu").longest_idle_gap_s == pytest.approx(9.0)

    def test_overlapping_events_merged(self):
        trace = trace_from([("cpu", 0.0, 2.0), ("cpu", 1.0, 3.0)])
        assert resource_stats(trace, "cpu").busy_s == pytest.approx(3.0)

    def test_empty_trace(self):
        stats = resource_stats(Trace(), "cpu")
        assert stats.busy_s == 0.0 and stats.utilization == 0.0


class TestCorunShare:
    def test_full_overlap(self):
        trace = trace_from([("cpu", 0.0, 4.0), ("gpu", 0.0, 4.0)])
        assert corun_share(trace) == pytest.approx(1.0)

    def test_no_overlap(self):
        trace = trace_from([("cpu", 0.0, 2.0), ("gpu", 2.0, 4.0)])
        assert corun_share(trace) == pytest.approx(0.0)

    def test_partial_overlap(self):
        trace = trace_from([("cpu", 0.0, 3.0), ("gpu", 2.0, 4.0)])
        assert corun_share(trace) == pytest.approx(0.25)

    def test_empty(self):
        assert corun_share(Trace()) == 0.0


class TestUtilizationProfile:
    def test_constant_busy_resource(self):
        trace = trace_from([("gpu", 0.0, 10.0)])
        profile = utilization_profile(trace, ["gpu"], bins=5)
        assert profile["gpu"] == pytest.approx([1.0] * 5)

    def test_half_busy(self):
        trace = trace_from([("cpu", 0.0, 5.0), ("gpu", 0.0, 10.0)])
        profile = utilization_profile(trace, ["cpu"], bins=2)
        assert profile["cpu"][0] == pytest.approx(1.0)
        assert profile["cpu"][1] == pytest.approx(0.0)

    def test_bins_validated(self):
        with pytest.raises(SimulationError):
            utilization_profile(Trace(), ["cpu"], bins=0)


class TestOnRealSchedules:
    def test_gpu_only_has_zero_corun_share(self):
        from repro.eval.experiments import gpu_only_report
        report = gpu_only_report("alexnet")
        assert corun_share(report.trace) == pytest.approx(0.0, abs=1e-9)

    def test_edgenn_achieves_corun(self):
        from repro.eval.experiments import edgenn_report
        report = edgenn_report("alexnet")
        # Hybrid execution must actually overlap the processors (the split
        # fc layers co-run).
        assert corun_share(report.trace) > 0.2

    def test_interkernel_corun_on_branchy_network(self):
        from repro.baselines import run_interkernel_only
        from repro.hardware.specs import JETSON_AGX_XAVIER
        report = run_interkernel_only("squeezenet", JETSON_AGX_XAVIER)
        assert corun_share(report.trace) > 0.05

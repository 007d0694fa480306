"""Shared-bandwidth contention model."""

import pytest

from repro.errors import SimulationError
from repro.hardware.contention import (
    StreamJob,
    corun_finish_times,
    corun_pair,
    waterfill,
)


def terms(job):
    """A job's demands as :func:`corun_pair` takes them."""
    return job.compute_s, job.bytes_total, job.solo_rate


class TestWaterfill:
    def test_under_subscribed_keeps_caps(self):
        assert waterfill([10.0, 20.0], total=100.0) == [10.0, 20.0]

    def test_oversubscribed_fair_share(self):
        rates = waterfill([100.0, 100.0], total=100.0)
        assert rates == [50.0, 50.0]

    def test_bounded_stream_releases_slack(self):
        rates = waterfill([10.0, 1000.0], total=100.0)
        assert rates[0] == 10.0
        assert rates[1] == pytest.approx(90.0)

    def test_three_way_mixed(self):
        rates = waterfill([5.0, 50.0, 50.0], total=65.0)
        assert rates[0] == 5.0
        assert rates[1] == pytest.approx(30.0)
        assert rates[2] == pytest.approx(30.0)

    def test_conservation(self):
        caps = [30.0, 80.0, 200.0]
        rates = waterfill(caps, total=120.0)
        assert sum(rates) == pytest.approx(min(sum(caps), 120.0))

    def test_zero_cap_gets_nothing(self):
        rates = waterfill([0.0, 50.0], total=40.0)
        assert rates[0] == 0.0
        assert rates[1] == 40.0

    def test_negative_total_rejected(self):
        with pytest.raises(SimulationError):
            waterfill([1.0], total=-1.0)


class TestStreamJob:
    def test_solo_time_memory_bound(self):
        job = StreamJob(compute_s=0.1, bytes_total=1e9, solo_rate=1e9)
        assert job.solo_time == pytest.approx(1.0)

    def test_solo_time_compute_bound(self):
        job = StreamJob(compute_s=2.0, bytes_total=1e9, solo_rate=1e9)
        assert job.solo_time == pytest.approx(2.0)

    def test_pure_compute_job(self):
        job = StreamJob(compute_s=0.5, bytes_total=0.0, solo_rate=0.0)
        assert job.solo_time == 0.5

    def test_rejects_negative_demands(self):
        with pytest.raises(SimulationError):
            StreamJob(compute_s=-1.0, bytes_total=0.0, solo_rate=1.0)

    def test_rejects_memory_without_rate(self):
        with pytest.raises(SimulationError):
            StreamJob(compute_s=0.0, bytes_total=1.0, solo_rate=0.0)


class TestCorun:
    def test_no_contention_when_bandwidth_plentiful(self):
        a = StreamJob(compute_s=0.0, bytes_total=1e9, solo_rate=1e9)
        b = StreamJob(compute_s=0.0, bytes_total=1e9, solo_rate=1e9)
        times = corun_finish_times([a, b], total_bw=10e9)
        assert times[0] == pytest.approx(a.solo_time)
        assert times[1] == pytest.approx(b.solo_time)

    def test_equal_jobs_share_bandwidth(self):
        a = StreamJob(compute_s=0.0, bytes_total=1e9, solo_rate=2e9)
        b = StreamJob(compute_s=0.0, bytes_total=1e9, solo_rate=2e9)
        times = corun_finish_times([a, b], total_bw=2e9)
        # Each gets half of 2 GB/s => 1 s each instead of 0.5 s solo.
        assert times[0] == pytest.approx(1.0)
        assert times[1] == pytest.approx(1.0)

    def test_early_finisher_releases_bandwidth(self):
        small = StreamJob(compute_s=0.0, bytes_total=1e8, solo_rate=2e9)
        big = StreamJob(compute_s=0.0, bytes_total=2e9, solo_rate=2e9)
        times = corun_finish_times([small, big], total_bw=2e9)
        # Phase 1: both at 1 GB/s until small finishes at t=0.1 s.
        assert times[0] == pytest.approx(0.1)
        # Big moved 0.1 GB in phase 1, then 1.9 GB at full 2 GB/s.
        assert times[1] == pytest.approx(0.1 + 1.9 / 2.0)

    def test_compute_floor_dominates(self):
        job = StreamJob(compute_s=5.0, bytes_total=1e6, solo_rate=1e9)
        times = corun_finish_times([job], total_bw=1e9)
        assert times[0] == 5.0

    def test_corun_never_faster_than_solo(self):
        a = StreamJob(compute_s=0.01, bytes_total=5e8, solo_rate=3e9)
        b = StreamJob(compute_s=0.02, bytes_total=9e8, solo_rate=4e9)
        times = corun_finish_times([a, b], total_bw=5e9)
        assert times[0] >= a.solo_time - 1e-12
        assert times[1] >= b.solo_time - 1e-12

    def test_pair_applies_corun_efficiency(self):
        a = terms(StreamJob(compute_s=0.0, bytes_total=1e9, solo_rate=2e9))
        b = terms(StreamJob(compute_s=0.0, bytes_total=1e9, solo_rate=2e9))
        full = corun_pair(*a, *b, dram_bw=2e9, corun_efficiency=1.0)
        derated = corun_pair(*a, *b, dram_bw=2e9, corun_efficiency=0.5)
        assert derated[0] > full[0]
        assert derated[1] > full[1]

    def test_pair_rejects_bad_efficiency(self):
        a = terms(StreamJob(compute_s=0.0, bytes_total=1.0, solo_rate=1.0))
        with pytest.raises(SimulationError):
            corun_pair(*a, *a, dram_bw=1.0, corun_efficiency=0.0)

    def test_rejects_nonpositive_bandwidth(self):
        a = StreamJob(compute_s=0.0, bytes_total=1.0, solo_rate=1.0)
        with pytest.raises(SimulationError):
            corun_finish_times([a], total_bw=0.0)

"""ServingReport metrics: percentiles, conservation, histograms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.serving.report import (
    LatencyStats,
    ServingReport,
    TenantServingStats,
    merge_histograms,
    percentile,
)


def reference_percentile(values, q):
    """The sort-based nearest-rank percentile ``percentile`` replaced."""
    if not values:
        raise ReproError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ReproError(f"percentile rank must be in [0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def reference_stats(latencies):
    """The sort-per-quantile ``from_latencies`` the selection replaced.

    The mean adds left to right from ``0``, as the builtin ``sum`` does
    on Python 3.11 (3.12 compensates), so the reference is the value
    the 3.11 goldens record on every interpreter.
    """
    if not latencies:
        return LatencyStats(count=0, mean_s=0.0, p50_s=0.0, p95_s=0.0,
                            p99_s=0.0, max_s=0.0)
    total = 0
    for value in latencies:
        total += value
    return LatencyStats(
        count=len(latencies),
        mean_s=total / len(latencies),
        p50_s=reference_percentile(latencies, 0.50),
        p95_s=reference_percentile(latencies, 0.95),
        p99_s=reference_percentile(latencies, 0.99),
        max_s=max(latencies),
    )


def bits(stats):
    """Every field of ``stats``, floats as their exact hex form."""
    return tuple(
        v.hex() if isinstance(v, float) else v
        for v in dataclasses.astuple(stats)
    )


# A latency is a difference of two instants, never -0.0; adding 0.0
# maps -0.0 to 0.0, whose order against 0.0 sorting leaves open.  The
# bound keeps a 300-value sum finite.
finite = st.floats(min_value=-1e300, max_value=1e300).map(lambda x: x + 0.0)


@st.composite
def samples(draw, min_size=1, max_size=300):
    """Finite floats with duplicates: a few values repeat throughout."""
    pool = draw(st.lists(finite, min_size=1, max_size=8))
    return draw(st.lists(
        st.one_of(st.sampled_from(pool), finite),
        min_size=min_size, max_size=max_size,
    ))


class TestSelectionMatchesSort:
    @settings(max_examples=300, deadline=None)
    @given(samples())
    def test_stats_bit_identical(self, values):
        assert bits(LatencyStats.from_latencies(values)) == bits(
            reference_stats(values))

    # q * n lands on an integer for 20, 100 and 200, next to one for 101.
    @pytest.mark.parametrize("n", [20, 100, 101, 200])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_stats_at_integer_rank_lengths(self, n, data):
        values = data.draw(samples(min_size=n, max_size=n))
        assert bits(LatencyStats.from_latencies(values)) == bits(
            reference_stats(values))

    # NumPy sorts small partitions outright; past a few hundred values
    # each requested rank must be selected on its own.
    @pytest.mark.parametrize("n", [1_000, 49_504])
    def test_stats_of_large_sample(self, n):
        rng = np.random.default_rng(n)
        values = np.round(rng.exponential(1e-3, size=n), 7).tolist()
        assert bits(LatencyStats.from_latencies(values)) == bits(
            reference_stats(values))

    @settings(max_examples=100, deadline=None)
    @given(samples(min_size=0))
    def test_array_equals_list(self, values):
        array = np.asarray(values, dtype=np.float64)
        assert bits(LatencyStats.from_latencies(array)) == bits(
            LatencyStats.from_latencies(values))

    @settings(max_examples=300, deadline=None)
    @given(samples(), st.floats(min_value=0.0, max_value=1.0))
    def test_percentile_equals_reference(self, values, q):
        assert percentile(values, q).hex() == reference_percentile(
            values, q).hex()

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.95, 0.99, 1.0])
    def test_percentile_of_array(self, q):
        values = np.random.default_rng(3).exponential(1.0, size=101)
        assert percentile(values, q) == reference_percentile(
            values.tolist(), q)


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ReproError):
            percentile([], 0.5)

    def test_empty_array_raises(self):
        with pytest.raises(ReproError):
            percentile(np.empty(0), 0.5)

    @pytest.mark.parametrize("q", [-0.1, 1.1])
    def test_rank_out_of_range(self, q):
        with pytest.raises(ReproError):
            percentile([1.0], q)

    def test_single_value(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 1.0) == 7.0

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.00) == 100

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0

    def test_monotone_in_rank(self):
        values = [0.3, 12.0, 1.5, 0.7, 4.4, 2.2]
        qs = [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0]
        ps = [percentile(values, q) for q in qs]
        assert ps == sorted(ps)


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats.from_latencies([])
        assert stats.count == 0
        assert stats.p99_s == 0.0

    def test_ordering_invariant(self):
        stats = LatencyStats.from_latencies([0.1, 0.5, 0.2, 0.9, 0.3])
        assert stats.p50_s <= stats.p95_s <= stats.p99_s <= stats.max_s
        assert stats.count == 5
        assert stats.mean_s == pytest.approx(0.4)


def _tenant(name="m", offered=10, served=8, shed=2, hist=None):
    return TenantServingStats(
        name=name, network="lenet", weight=1.0,
        offered=offered, served=served, shed=shed,
        latency=LatencyStats.from_latencies([0.01] * served),
        batch_histogram=hist if hist is not None else {1: served},
    )


def _report(offered=10, served=8, shed=2, **kwargs):
    defaults = dict(
        device="jetson-agx-xavier",
        duration_s=1.0,
        makespan_s=1.2,
        offered=offered,
        served=served,
        shed=shed,
        latency=LatencyStats.from_latencies([0.01] * served),
        batch_histogram={1: served},
        queue_depth_mean=0.5,
        queue_depth_max=3,
        cpu_utilization=0.2,
        gpu_utilization=0.6,
        tenants=(_tenant(offered=offered, served=served, shed=shed),),
    )
    defaults.update(kwargs)
    return ServingReport(**defaults)


class TestServingReport:
    def test_conservation_enforced(self):
        with pytest.raises(ReproError):
            _report(offered=10, served=5, shed=2)

    def test_rates(self):
        report = _report()
        assert report.shed_rate == pytest.approx(0.2)
        assert report.throughput_rps == pytest.approx(8 / 1.2)

    def test_mean_batch_size(self):
        report = _report(batch_histogram={1: 2, 4: 3})
        assert report.mean_batch_size == pytest.approx((2 + 12) / 5)

    def test_tenant_lookup(self):
        report = _report()
        assert report.tenant("m").network == "lenet"
        with pytest.raises(ReproError):
            report.tenant("nope")

    def test_to_dict_keys(self):
        d = _report().to_dict()
        for key in ("p50_ms", "p95_ms", "p99_ms", "throughput_rps",
                    "shed_rate", "batch_histogram", "queue_depth_mean"):
            assert key in d

    def test_describe_mentions_everything(self):
        text = _report().describe()
        for token in ("p50", "p99", "shed", "throughput", "histogram",
                      "gpu util"):
            assert token in text

    def test_tenant_shed_rate_empty(self):
        t = _tenant(offered=0, served=0, shed=0, hist={})
        assert t.shed_rate == 0.0
        assert t.mean_batch_size == 0.0


def test_merge_histograms():
    merged = merge_histograms([{1: 2, 4: 1}, {4: 3, 8: 5}, {}])
    assert merged == {1: 2, 4: 4, 8: 5}
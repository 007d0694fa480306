"""Arrival-process determinism and shape."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.workloads.arrivals import (
    ClosedLoopArrivals,
    DiurnalPoissonArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    UniformArrivals,
)


class TestPoisson:
    def test_deterministic_given_seed(self):
        a = PoissonArrivals(100, 2.0, seed=5).initial_arrivals()
        b = PoissonArrivals(100, 2.0, seed=5).initial_arrivals()
        assert a == b

    def test_seed_changes_trace(self):
        a = PoissonArrivals(100, 2.0, seed=1).initial_arrivals()
        b = PoissonArrivals(100, 2.0, seed=2).initial_arrivals()
        assert a != b

    def test_all_within_horizon_and_sorted(self):
        times = PoissonArrivals(50, 3.0, seed=0).initial_arrivals()
        assert all(0.0 <= t < 3.0 for t in times)
        assert times == sorted(times)

    def test_count_near_rate_times_duration(self):
        times = PoissonArrivals(200, 10.0, seed=0).initial_arrivals()
        # 2000 expected, sd ~45; 5 sigma leaves this test deterministic
        # across numpy versions yet meaningful.
        assert 1775 <= len(times) <= 2225

    def test_open_loop_has_no_feedback(self):
        assert PoissonArrivals(10, 1.0).next_after(0.5) is None

    @pytest.mark.parametrize("kwargs", [
        {"rate_rps": 0, "duration_s": 1.0},
        {"rate_rps": -5, "duration_s": 1.0},
        {"rate_rps": 10, "duration_s": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            PoissonArrivals(**kwargs)


def reference_poisson(rate_rps, duration_s, seed):
    """The concatenate-then-cumsum generator, and how many chunks it drew."""
    rng = np.random.default_rng(seed)
    expected = max(16, int(rate_rps * duration_s * 1.2))
    chunks = []
    carry = 0.0
    while True:
        gaps = rng.exponential(1.0 / rate_rps, size=expected)
        times = np.cumsum(np.concatenate(([carry], gaps)))[1:]
        cut = int(np.searchsorted(times, duration_s, side="left"))
        if cut < expected:
            chunks.append(times[:cut])
            break
        chunks.append(times)
        carry = float(times[-1])
    return np.concatenate(chunks), len(chunks)


# rate x duration near 13 can exhaust the 16-draw minimum, which takes a
# second chunk and exercises the carry; at 0.5 most seeds draw no arrival.
POISSON_CASES = [
    (rate, duration, seed)
    for rate, duration in [
        (13.0, 1.0), (24.0, 0.5), (7.0, 2.0), (1.0, 0.5),
        (100.0, 2.0), (5000.0, 3.0),
    ]
    for seed in range(8)
]


class TestPoissonReference:
    @pytest.mark.parametrize("rate,duration,seed", POISSON_CASES)
    def test_times_bit_identical(self, rate, duration, seed):
        times, _ = reference_poisson(rate, duration, seed)
        arrivals = PoissonArrivals(rate, duration, seed=seed)
        assert arrivals._times.dtype == np.float64
        assert arrivals._times.tobytes() == times.tobytes()

    def test_cases_cover_multi_chunk_draws(self):
        chunks = [reference_poisson(*case)[1] for case in POISSON_CASES]
        assert sum(n >= 2 for n in chunks) >= 1


class TestUniform:
    def test_exact_spacing(self):
        times = UniformArrivals(4, 1.0).initial_arrivals()
        assert times == pytest.approx([0.0, 0.25, 0.5, 0.75])

    def test_exact_count(self):
        assert len(UniformArrivals(100, 2.0).initial_arrivals()) == 200

    def test_validation(self):
        with pytest.raises(ReproError):
            UniformArrivals(0, 1.0)
        with pytest.raises(ReproError):
            UniformArrivals(10, -1.0)


class TestClosedLoop:
    def test_staggered_starts(self):
        arrivals = ClosedLoopArrivals(clients=4, think_s=0.4, duration_s=10)
        assert arrivals.initial_arrivals() == pytest.approx(
            [0.0, 0.1, 0.2, 0.3])

    def test_one_initial_arrival_per_client(self):
        arrivals = ClosedLoopArrivals(clients=7, think_s=0.01, duration_s=5)
        assert len(arrivals.initial_arrivals()) == 7

    def test_next_after_adds_think_time(self):
        arrivals = ClosedLoopArrivals(clients=1, think_s=0.25, duration_s=10)
        assert arrivals.next_after(1.0) == pytest.approx(1.25)

    def test_next_after_respects_horizon(self):
        arrivals = ClosedLoopArrivals(clients=1, think_s=0.25, duration_s=10)
        assert arrivals.next_after(9.9) is None

    @pytest.mark.parametrize("kwargs", [
        {"clients": 0, "think_s": 0.1, "duration_s": 1.0},
        {"clients": 2, "think_s": -0.1, "duration_s": 1.0},
        {"clients": 2, "think_s": 0.1, "duration_s": 0.0},
        {"clients": 2, "think_s": 0.0, "duration_s": 1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            ClosedLoopArrivals(**kwargs)


class TestDiurnal:
    def test_deterministic_given_seed(self):
        a = DiurnalPoissonArrivals(100, 4.0, period_s=4.0, seed=3)
        b = DiurnalPoissonArrivals(100, 4.0, period_s=4.0, seed=3)
        assert a.initial_arrivals() == b.initial_arrivals()

    def test_seed_changes_trace(self):
        a = DiurnalPoissonArrivals(100, 4.0, period_s=4.0, seed=1)
        b = DiurnalPoissonArrivals(100, 4.0, period_s=4.0, seed=2)
        assert a.initial_arrivals() != b.initial_arrivals()

    def test_all_within_horizon_and_sorted(self):
        times = DiurnalPoissonArrivals(
            80, 3.0, period_s=3.0, seed=0
        ).initial_arrivals()
        assert all(0.0 <= t < 3.0 for t in times)
        assert times == sorted(times)

    def test_mean_rate_is_base_rate(self):
        # Over a whole period the sinusoid averages out: expect
        # base_rate * duration arrivals regardless of amplitude.
        times = DiurnalPoissonArrivals(
            200, 10.0, period_s=10.0, amplitude=0.9, seed=0
        ).initial_arrivals()
        assert 1775 <= len(times) <= 2225

    def test_peak_half_busier_than_trough_half(self):
        # phase 0 puts the peak in the first half-period and the trough
        # in the second; the arrival counts must reflect that.
        times = DiurnalPoissonArrivals(
            200, 10.0, period_s=10.0, amplitude=0.8, seed=0
        ).initial_arrivals()
        first = sum(1 for t in times if t < 5.0)
        second = len(times) - first
        assert first > 1.5 * second

    def test_phase_shifts_the_cycle(self):
        import math

        # phase pi flips peak and trough.
        times = DiurnalPoissonArrivals(
            200, 10.0, period_s=10.0, amplitude=0.8, phase=math.pi,
            seed=0,
        ).initial_arrivals()
        first = sum(1 for t in times if t < 5.0)
        second = len(times) - first
        assert second > 1.5 * first

    def test_open_loop_has_no_feedback(self):
        assert DiurnalPoissonArrivals(10, 1.0).next_after(0.5) is None

    @pytest.mark.parametrize("kwargs", [
        {"base_rate_rps": 0, "duration_s": 1.0},
        {"base_rate_rps": 10, "duration_s": 1.0, "period_s": 0.0},
        {"base_rate_rps": 10, "duration_s": 1.0, "amplitude": 1.5},
        {"base_rate_rps": 10, "duration_s": 1.0, "amplitude": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            DiurnalPoissonArrivals(**kwargs)


class TestFlashCrowd:
    def test_deterministic_given_seed(self):
        a = FlashCrowdArrivals(
            50, 4.0, spike_start_s=1.0, spike_duration_s=1.0, seed=9
        )
        b = FlashCrowdArrivals(
            50, 4.0, spike_start_s=1.0, spike_duration_s=1.0, seed=9
        )
        assert a.initial_arrivals() == b.initial_arrivals()

    def test_all_within_horizon_and_sorted(self):
        times = FlashCrowdArrivals(
            50, 4.0, spike_start_s=1.0, spike_duration_s=1.0, seed=0
        ).initial_arrivals()
        assert all(0.0 <= t < 4.0 for t in times)
        assert times == sorted(times)

    def test_spike_window_is_denser(self):
        times = FlashCrowdArrivals(
            100, 10.0, spike_start_s=4.0, spike_duration_s=2.0,
            spike_factor=5.0, seed=0,
        ).initial_arrivals()
        inside = sum(1 for t in times if 4.0 <= t < 6.0)
        # 2s at 500/s inside vs 8s at 100/s outside; per-second density
        # inside must dominate clearly.
        outside = len(times) - inside
        assert inside / 2.0 > 3.0 * (outside / 8.0)

    def test_factor_one_is_plain_poisson_rate(self):
        times = FlashCrowdArrivals(
            200, 10.0, spike_start_s=2.0, spike_duration_s=2.0,
            spike_factor=1.0, seed=0,
        ).initial_arrivals()
        assert 1775 <= len(times) <= 2225

    @pytest.mark.parametrize("kwargs", [
        {"base_rate_rps": 0, "duration_s": 1.0,
         "spike_start_s": 0.0, "spike_duration_s": 0.5},
        {"base_rate_rps": 10, "duration_s": 1.0,
         "spike_start_s": -1.0, "spike_duration_s": 0.5},
        {"base_rate_rps": 10, "duration_s": 1.0,
         "spike_start_s": 0.0, "spike_duration_s": 0.0},
        {"base_rate_rps": 10, "duration_s": 1.0,
         "spike_start_s": 0.0, "spike_duration_s": 0.5,
         "spike_factor": 0.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            FlashCrowdArrivals(**kwargs)

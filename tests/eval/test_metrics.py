"""Evaluation metrics (Eqs. 5-6 and aggregation)."""

import pytest

from repro.errors import ReproError
from repro.eval import metrics


class TestMeans:
    def test_arithmetic(self):
        assert metrics.arithmetic_mean([1.0, 2.0, 3.0]) == 2.0

    def test_geometric(self):
        assert metrics.geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_of_identical(self):
        assert metrics.geometric_mean([3.0, 3.0, 3.0]) == pytest.approx(3.0)

    def test_geometric_below_arithmetic(self):
        values = [1.0, 2.0, 10.0]
        assert metrics.geometric_mean(values) < metrics.arithmetic_mean(values)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            metrics.arithmetic_mean([])
        with pytest.raises(ReproError):
            metrics.geometric_mean([])

    def test_geometric_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            metrics.geometric_mean([1.0, 0.0])


class TestSpeedupAndImprovement:
    def test_speedup(self):
        assert metrics.speedup(4.0, 1.0) == 4.0

    def test_improvement_pct(self):
        assert metrics.improvement_pct(4.0, 3.0) == pytest.approx(25.0)
        assert metrics.improvement_pct(4.0, 5.0) == pytest.approx(-25.0)

    def test_validation(self):
        with pytest.raises(ReproError):
            metrics.speedup(0.0, 1.0)
        with pytest.raises(ReproError):
            metrics.improvement_pct(0.0, 1.0)


class TestEfficiencyRatios:
    def test_power_ratio_eq5(self):
        # A: 1 s at 5 W; B: 4 s at 10 W => A is 8x more efficient.
        ratio = metrics.performance_per_power_ratio(1.0, 5.0, 4.0, 10.0)
        assert ratio == pytest.approx(8.0)

    def test_price_ratio_eq6(self):
        # A: 1 s on $700; B: 10 s on $70 => equal perf/price.
        ratio = metrics.performance_per_price_ratio(1.0, 700.0, 10.0, 70.0)
        assert ratio == pytest.approx(1.0)

    def test_ratio_symmetry(self):
        forward = metrics.performance_per_power_ratio(1.0, 5.0, 2.0, 7.0)
        backward = metrics.performance_per_power_ratio(2.0, 7.0, 1.0, 5.0)
        assert forward * backward == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ReproError):
            metrics.performance_per_power_ratio(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ReproError):
            metrics.performance_per_price_ratio(1.0, 1.0, 1.0, 0.0)

"""Roofline and time breakdown analysis."""

from repro.eval.breakdown import (
    format_breakdown,
    roofline_breakdown,
    split_candidates,
    time_breakdown,
)
from repro.eval.experiments import edgenn_report


class TestRooflineBreakdown:
    def test_covers_all_real_layers(self):
        rows = roofline_breakdown("alexnet")
        names = {r.layer for r in rows}
        assert "conv1" in names and "fc6" in names
        assert "flatten" not in names  # noop

    def test_fc_layers_memory_bound_on_gpu(self):
        rows = {r.layer: r for r in roofline_breakdown("alexnet")}
        assert rows["fc6"].gpu_memory_bound
        assert rows["fc6"].arithmetic_intensity < 1.0

    def test_conv_layers_compute_bound_on_gpu(self):
        rows = {r.layer: r for r in roofline_breakdown("alexnet")}
        assert not rows["conv2"].gpu_memory_bound

    def test_cpu_gpu_ratio_shape(self):
        rows = {r.layer: r for r in roofline_breakdown("alexnet")}
        # Big convs: GPU far ahead; fc: CPU competitive (the Table I story).
        assert rows["conv2"].cpu_gpu_ratio > 3.0
        assert rows["fc6"].cpu_gpu_ratio < 1.5


class TestSplitCandidates:
    def test_alexnet_candidates_are_the_fc_layers(self):
        candidates = split_candidates("alexnet", max_ratio=2.0)
        assert {"fc6", "fc7", "fc8"} <= set(candidates)
        assert "conv2" not in candidates

    def test_ratio_threshold_monotone(self):
        tight = set(split_candidates("alexnet", max_ratio=1.5))
        loose = set(split_candidates("alexnet", max_ratio=10.0))
        assert tight <= loose


class TestTimeBreakdown:
    def test_sums_to_meaningful_classes(self):
        report = edgenn_report("alexnet")
        breakdown = time_breakdown(report)
        assert breakdown["conv"] > 0
        assert breakdown["dense"] > 0
        assert "copies" in breakdown

    def test_conv_dominates_vgg(self):
        report = edgenn_report("vgg16")
        breakdown = time_breakdown(report)
        assert breakdown["conv"] > breakdown["dense"]


class TestFormat:
    def test_renders_table(self):
        text = format_breakdown("lenet")
        assert "Roofline breakdown" in text
        assert "conv1" in text and "t_cpu/t_gpu" in text

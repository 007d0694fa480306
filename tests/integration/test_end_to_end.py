"""End-to-end integration: the full pipeline on the real paper networks."""

import numpy as np
import pytest

from repro import EdgeNN
from repro.eval import experiments as ex
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import benchmark_names, build
from repro.obs.export import chrome_trace
from repro.workloads import input_for


@pytest.mark.parametrize("name", benchmark_names())
class TestAllBenchmarks:
    def test_edgenn_not_slower_than_gpu_baseline(self, name):
        edgenn = ex.edgenn_report(name)
        baseline = ex.gpu_only_report(name)
        assert edgenn.total_s <= baseline.total_s * 1.001

    def test_edgenn_not_slower_than_zero_copy_gpu(self, name):
        edgenn = ex.edgenn_report(name)
        managed = ex.gpu_only_report(name, managed=True)
        assert edgenn.total_s <= managed.total_s * 1.001

    def test_report_layer_coverage(self, name):
        report = ex.edgenn_report(name)
        net = build(name)
        assert {lr.name for lr in report.layers} == set(net.topo_order())

    def test_energy_within_jetson_envelope(self, name):
        report = ex.edgenn_report(name)
        power = report.energy.average_power_w
        spec = JETSON_AGX_XAVIER.power
        assert spec.idle_w <= power <= (
            spec.idle_w + spec.cpu_dynamic_w + spec.gpu_dynamic_w
        )


class TestNumericConsistency:
    @pytest.mark.parametrize("name", ["fcnn", "lenet"])
    def test_infer_output_is_probability_vector(self, name):
        engine = EdgeNN(name)
        out = engine.infer(input_for(name))
        assert out.shape[-1] in (10, 1000)
        assert out.sum() == pytest.approx(1.0, rel=1e-4)
        assert (out >= 0).all()

    def test_squeezenet_numeric_forward(self):
        engine = EdgeNN("squeezenet")
        out = engine.infer(input_for("squeezenet"))
        assert out.shape == (1000,)
        assert np.isfinite(out).all()

    def test_resnet_numeric_forward(self):
        engine = EdgeNN("resnet18")
        out = engine.infer(input_for("resnet18"))
        assert out.shape == (1000,)
        assert np.isfinite(out).all()

    @pytest.mark.slow
    def test_alexnet_numeric_forward(self):
        out = EdgeNN("alexnet").infer(input_for("alexnet"))
        assert out.shape == (1000,)
        assert out.sum() == pytest.approx(1.0, rel=1e-3)


class TestCrossConfigConsistency:
    def test_ablation_arms_are_distinct_runs(self):
        full = ex.edgenn_report("lenet")
        no_mem = ex.edgenn_report("lenet", use_memory_management=False)
        no_hybrid = ex.edgenn_report("lenet", use_hybrid_execution=False)
        assert full.plan_summary != no_hybrid.plan_summary or (
            full.total_s != no_hybrid.total_s
        )
        assert no_mem.copy_s_total >= full.copy_s_total

    def test_trace_chrome_export_end_to_end(self, tmp_path):
        import json
        report = ex.edgenn_report("lenet")
        path = tmp_path / "trace.json"
        path.write_text(chrome_trace(kernel_trace=report.trace))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) > 10

    def test_device_instances_are_isolated(self):
        # Two engines on separate Device instances never share buffers.
        a = EdgeNN("lenet")
        b = EdgeNN("lenet")
        ra, rb = a.run(), b.run()
        assert ra.total_s == pytest.approx(rb.total_s)

"""Extension — EdgeNN on MobileNetV1 (the architecture family real edge
deployments ship; not part of the paper's suite).

Depthwise-separable blocks have extremely low arithmetic intensity, so
MobileNet sits in a different regime than the paper's networks: every
depthwise kernel is memory-bound, and a much larger share of the model is
CPU-competitive.
"""

from repro.baselines import run_cpu_only, run_gpu_only
from repro.core.engine import EdgeNN
from repro.eval.formatting import render_table
from repro.eval.breakdown import roofline_breakdown
from repro.hardware.specs import JETSON_AGX_XAVIER

from conftest import run_once


def test_ext_mobilenet_v1(benchmark, record_artifact):
    def compute():
        edgenn = EdgeNN("mobilenet-v1").run()
        gpu = run_gpu_only("mobilenet-v1", JETSON_AGX_XAVIER)
        cpu = run_cpu_only("mobilenet-v1", JETSON_AGX_XAVIER)
        return edgenn, gpu, cpu

    edgenn, gpu, cpu = run_once(benchmark, compute)
    improvement = (gpu.total_s - edgenn.total_s) / gpu.total_s * 100
    rows = [
        ("gpu-only (original)", gpu.total_s * 1e3, gpu.energy.average_power_w),
        ("cpu-only (jetson)", cpu.total_s * 1e3, cpu.energy.average_power_w),
        ("edgenn", edgenn.total_s * 1e3, edgenn.energy.average_power_w),
    ]
    record_artifact(
        "ext_mobilenet",
        render_table(
            ["method", "latency_ms", "power_W"], rows,
            title=f"Extension — MobileNetV1 on Jetson "
                  f"(EdgeNN improvement {improvement:.2f}%)",
        ),
    )
    assert edgenn.total_s <= gpu.total_s * 1.001
    assert edgenn.total_s < cpu.total_s
    # Regime check: depthwise kernels have an order of magnitude lower
    # arithmetic intensity than the standard convolutions, so the CPU is
    # far more competitive on them (smaller t_cpu/t_gpu ratios).
    rows = roofline_breakdown("mobilenet-v1")
    dw = [r for r in rows if r.layer.endswith("/dw")]
    pw = [r for r in rows if r.layer.endswith("/pw")]
    assert dw and pw
    mean_ai_dw = sum(r.arithmetic_intensity for r in dw) / len(dw)
    mean_ai_pw = sum(r.arithmetic_intensity for r in pw) / len(pw)
    assert mean_ai_dw < mean_ai_pw / 5.0
    mean_ratio_dw = sum(r.cpu_gpu_ratio for r in dw) / len(dw)
    mean_ratio_pw = sum(r.cpu_gpu_ratio for r in pw) / len(pw)
    assert mean_ratio_dw < mean_ratio_pw

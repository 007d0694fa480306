"""Ablation 3 (DESIGN.md §4) — enumerated branch assignment vs always-GPU
for the non-chain DAG parts of SqueezeNet.
"""

from repro.core.executor import HybridExecutor
from repro.core.memory_manager import MemoryPolicy
from repro.core.tuner import AdaptiveTuner, TunerConfig
from repro.eval.formatting import render_table
from repro.hardware.device import Device
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import build

from conftest import run_once


def interkernel_time(allow_cpu: bool) -> float:
    net = build("squeezenet")
    device = Device(JETSON_AGX_XAVIER)
    config = TunerConfig(
        use_intra_kernel=False,
        use_inter_kernel=allow_cpu,
        memory_policy=MemoryPolicy.SEMANTIC,
    )
    result = AdaptiveTuner(net, device, config).tune()
    return HybridExecutor(net, device, result.plan).run().total_s


def test_ablation_branch_scheduling(benchmark, record_artifact):
    def compute():
        return {
            "all-gpu": interkernel_time(allow_cpu=False),
            "enumerated": interkernel_time(allow_cpu=True),
        }

    results = run_once(benchmark, compute)
    improvement = (
        (results["all-gpu"] - results["enumerated"]) / results["all-gpu"] * 100
    )
    record_artifact(
        "ablation_branch_scheduling",
        render_table(
            ["strategy", "squeezenet_ms"],
            [(k, v * 1e3) for k, v in results.items()],
            title=f"Ablation — fire-module branch assignment "
                  f"(improvement {improvement:.2f}%)",
        ),
    )
    # Assigning the light expand-1x1 chains to the CPU overlaps them with
    # the heavy expand-3x3 chains (paper §V-F: ~8%).
    assert 2.0 <= improvement <= 15.0

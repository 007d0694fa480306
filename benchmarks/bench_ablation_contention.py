"""Ablation 5 (DESIGN.md §4) — DRAM-contention modelling sensitivity.

Sweeps the co-run DRAM efficiency of the unified memory controller and
shows why an additive (no-contention) model mispredicts co-running: the
same split plan gets slower as the controller degrades.
"""

from dataclasses import replace

from repro.core.executor import HybridExecutor
from repro.core.memory_manager import MemoryPolicy, plan_allocations
from repro.core.plan import ExecutionPlan, gpu_layer, split_layer
from repro.eval.formatting import render_table
from repro.hardware.device import Device
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import build

from conftest import run_once

EFFICIENCIES = (1.0, 0.88, 0.7, 0.5)


def alexnet_with_corun_efficiency(efficiency: float) -> float:
    spec = replace(JETSON_AGX_XAVIER, corun_dram_efficiency=efficiency)
    net = build("alexnet")
    device = Device(spec)
    plan = ExecutionPlan(net.name)
    for name in net.topo_order():
        plan.set_layer(gpu_layer(name))
    for fc in ("fc6", "fc7"):
        plan.set_layer(split_layer(fc, 0.5))
    plan_allocations(net, plan, spec, MemoryPolicy.SEMANTIC)
    return HybridExecutor(net, device, plan).run().total_s


def test_ablation_corun_dram_efficiency(benchmark, record_artifact):
    def compute():
        return {eff: alexnet_with_corun_efficiency(eff) for eff in EFFICIENCIES}

    times = run_once(benchmark, compute)
    record_artifact(
        "ablation_contention",
        render_table(
            ["corun DRAM efficiency", "alexnet_ms"],
            [(eff, t * 1e3) for eff, t in times.items()],
            title="Ablation — shared-memory-controller degradation under "
                  "co-running",
        ),
    )
    ordered = [times[eff] for eff in EFFICIENCIES]
    assert ordered == sorted(ordered)  # worse controller, slower co-run

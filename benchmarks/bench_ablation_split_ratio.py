"""Ablation 2 (DESIGN.md §4) — sensitivity of the intra-kernel split to
the CPU fraction, against the Eq. 4 optimum.

Sweeps p over AlexNet's fc6 and checks that the measured minimum sits
near the tuner's chosen fraction — and that fixed 50/50 splitting (the
obvious naive choice) is not optimal.
"""

from repro.core.executor import HybridExecutor
from repro.core.memory_manager import MemoryPolicy, plan_allocations
from repro.core.plan import ExecutionPlan, gpu_layer, split_layer
from repro.eval.formatting import render_table
from repro.hardware.device import Device
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import build

from conftest import run_once

SWEEP = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def fc6_time(p: float) -> float:
    net = build("alexnet")
    device = Device(JETSON_AGX_XAVIER)
    plan = ExecutionPlan(net.name)
    for name in net.topo_order():
        plan.set_layer(gpu_layer(name))
    if p > 0:
        plan.set_layer(split_layer("fc6", p))
    plan_allocations(net, plan, JETSON_AGX_XAVIER, MemoryPolicy.SEMANTIC)
    report = HybridExecutor(net, device, plan).run()
    return report.layer("fc6").attributed_s


def test_ablation_split_ratio_sweep(benchmark, record_artifact):
    def compute():
        return {p: fc6_time(p) for p in SWEEP}

    times = run_once(benchmark, compute)
    best_p = min(times, key=times.get)
    rows = [(p, t * 1e3, "<-- best" if p == best_p else "")
            for p, t in times.items()]
    record_artifact(
        "ablation_split_ratio",
        render_table(["p_cpu", "fc6_ms", ""], rows,
                     title="Ablation — AlexNet fc6 time vs CPU fraction"),
    )
    # The sweep has an interior optimum: splitting beats GPU-only...
    assert times[best_p] < times[0.0]
    # ...the best fraction is meaningful (CPU GEMV beats GPU GEMV slightly,
    # so the optimum sits past the midpoint)...
    assert 0.3 <= best_p <= 0.8
    # ...and extreme CPU shares are worse than the optimum.
    assert times[0.9] > times[best_p]

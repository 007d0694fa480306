"""Ablation 1 (DESIGN.md §4) — semantic-aware allocation vs the two
single-mechanism policies.

The paper's §IV-B claim: neither all-zero-copy nor all-regular wins
everywhere; choosing per buffer by data-processing semantics dominates
both once layers are split across processors.
"""

from repro.core.executor import HybridExecutor
from repro.core.memory_manager import MemoryPolicy, plan_allocations
from repro.core.plan import ExecutionPlan, gpu_layer, split_layer
from repro.eval.formatting import render_table
from repro.hardware.device import Device
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import build

from conftest import run_once


def run_policy(policy: MemoryPolicy) -> float:
    """AlexNet with the tuned-style split fc layers under one policy."""
    net = build("alexnet")
    device = Device(JETSON_AGX_XAVIER)
    plan = ExecutionPlan(net.name)
    for name in net.topo_order():
        plan.set_layer(gpu_layer(name))
    for fc in ("fc6", "fc7", "fc8"):
        plan.set_layer(split_layer(fc, 0.5))
    plan_allocations(net, plan, JETSON_AGX_XAVIER, policy)
    executor = HybridExecutor(
        net, device, plan,
        host_staging=policy is MemoryPolicy.ALL_REGULAR,
    )
    return executor.run().total_s


def test_ablation_memory_policy(benchmark, record_artifact):
    def compute():
        return {policy: run_policy(policy) for policy in MemoryPolicy}

    results = run_once(benchmark, compute)
    rows = [
        (policy.value, seconds * 1e3,
         (results[MemoryPolicy.ALL_REGULAR] - seconds)
         / results[MemoryPolicy.ALL_REGULAR] * 100.0)
        for policy, seconds in results.items()
    ]
    record_artifact(
        "ablation_memory_policy",
        render_table(
            ["policy", "alexnet_ms", "improvement %"], rows,
            title="Ablation — allocation policy under hybrid execution "
                  "(split fc layers)",
        ),
    )
    semantic = results[MemoryPolicy.SEMANTIC]
    assert semantic < results[MemoryPolicy.ALL_REGULAR]
    assert semantic < results[MemoryPolicy.ALL_MANAGED]

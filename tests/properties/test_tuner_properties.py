"""Property-based end-to-end tuner invariants on random networks.

The strongest guarantee the system makes: whatever the network shape, the
tuned plan never loses to the GPU-only plan it starts from.
"""

from hypothesis import given, settings

from repro.core.engine import EdgeNN, EdgeNNConfig
from repro.core.executor import HybridExecutor
from repro.core.memory_manager import MemoryPolicy, plan_allocations
from repro.core.plan import Assignment, ExecutionPlan, gpu_layer
from repro.core.tuner import AdaptiveTuner
from repro.hardware.device import Device
from repro.hardware.specs import JETSON_AGX_XAVIER

from .test_graph_properties import build_random_net, chain_ops


def gpu_only_time(net) -> float:
    device = Device(JETSON_AGX_XAVIER)
    plan = ExecutionPlan(net.name)
    for name in net.topo_order():
        plan.set_layer(gpu_layer(name))
    plan_allocations(net, plan, JETSON_AGX_XAVIER, MemoryPolicy.SEMANTIC)
    return HybridExecutor(net, device, plan).run().total_s


@given(ops=chain_ops)
@settings(max_examples=15, deadline=None)
def test_tuned_plan_never_loses_to_gpu_only(ops):
    net = build_random_net(ops)
    tuned = EdgeNN(net).run().total_s
    assert tuned <= gpu_only_time(net) * 1.001


@given(ops=chain_ops)
@settings(max_examples=15, deadline=None)
def test_tuned_plan_covers_graph_and_is_valid(ops):
    net = build_random_net(ops)
    result = AdaptiveTuner(net, Device(JETSON_AGX_XAVIER)).tune()
    for name in net.topo_order():
        lp = result.plan.layer_plan(name)
        if lp.assignment is Assignment.SPLIT:
            assert 0.0 < lp.cpu_fraction < 1.0
        node = net.node(name)
        if node.layer.is_noop or not node.layer.partitionable:
            assert lp.assignment is not Assignment.SPLIT


@given(ops=chain_ops)
@settings(max_examples=10, deadline=None)
def test_ablation_arms_never_beat_full_edgenn_badly(ops):
    """The full system is at least competitive with each single design
    (small scheduling noise tolerated)."""
    net_full = build_random_net(ops)
    full = EdgeNN(net_full).run().total_s
    memory_only = EdgeNN(
        build_random_net(ops),
        config=EdgeNNConfig(use_hybrid_execution=False),
    ).run().total_s
    assert full <= memory_only * 1.05

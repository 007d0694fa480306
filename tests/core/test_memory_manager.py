"""Semantic-aware memory management policy (§IV-B)."""

import pytest

from repro.core.memory_manager import MemoryPolicy, plan_allocations
from repro.core.plan import ExecutionPlan, gpu_layer, split_layer
from repro.hardware.memory import AllocKind
from repro.hardware.specs import JETSON_AGX_XAVIER, RASPBERRY_PI_4, RTX_2080TI_HOST


def plan_for(net, split=None):
    plan = ExecutionPlan(net.name)
    for name in net.topo_order():
        plan.set_layer(gpu_layer(name))
    if split:
        plan.set_layer(split_layer(split, 0.4))
    return plan


class TestSemanticPolicy:
    def test_weights_and_input_managed(self, chain_net):
        plan = plan_for(chain_net)
        alloc = plan_allocations(chain_net, plan, JETSON_AGX_XAVIER)
        assert alloc["input"] is AllocKind.MANAGED
        assert alloc["conv1.weights"] is AllocKind.MANAGED

    def test_single_writer_activations_managed(self, chain_net):
        alloc = plan_allocations(chain_net, plan_for(chain_net),
                                 JETSON_AGX_XAVIER)
        assert alloc["conv1.out"] is AllocKind.MANAGED

    def test_cowritten_outputs_regular(self, chain_net):
        plan = plan_for(chain_net, split="fc1")
        alloc = plan_allocations(chain_net, plan, JETSON_AGX_XAVIER)
        assert alloc["fc1.out"] is AllocKind.REGULAR
        # Everything else stays zero-copy.
        assert alloc["fc2.out"] is AllocKind.MANAGED

    def test_stored_into_plan(self, chain_net):
        plan = plan_for(chain_net)
        plan_allocations(chain_net, plan, JETSON_AGX_XAVIER)
        assert plan.alloc_kind("input") is AllocKind.MANAGED


class TestOtherPolicies:
    def test_all_regular(self, chain_net):
        alloc = plan_allocations(chain_net, plan_for(chain_net),
                                 JETSON_AGX_XAVIER, MemoryPolicy.ALL_REGULAR)
        assert set(alloc.values()) == {AllocKind.REGULAR}

    def test_all_managed(self, chain_net):
        alloc = plan_allocations(chain_net, plan_for(chain_net),
                                 JETSON_AGX_XAVIER, MemoryPolicy.ALL_MANAGED)
        assert set(alloc.values()) == {AllocKind.MANAGED}

    def test_all_managed_even_for_cowrites(self, chain_net):
        # The naive policy the semantic manager improves on: co-written
        # buffers stay managed and will pay the consistency penalty.
        plan = plan_for(chain_net, split="fc1")
        alloc = plan_allocations(chain_net, plan, JETSON_AGX_XAVIER,
                                 MemoryPolicy.ALL_MANAGED)
        assert alloc["fc1.out"] is AllocKind.MANAGED


class TestNonIntegratedDevices:
    @pytest.mark.parametrize("device", [RASPBERRY_PI_4, RTX_2080TI_HOST])
    @pytest.mark.parametrize("policy", list(MemoryPolicy))
    def test_everything_regular_off_integrated(self, chain_net, device, policy):
        # The paper: unified memory brings no benefit on discrete platforms.
        alloc = plan_allocations(chain_net, plan_for(chain_net), device, policy)
        assert set(alloc.values()) == {AllocKind.REGULAR}

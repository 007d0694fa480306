"""Buffer role classification by data-processing semantics (§IV-B)."""

from repro.core.plan import ExecutionPlan, gpu_layer, split_layer
from repro.core.semantics import (
    BufferRole,
    classify_buffers,
    input_buffer,
    output_buffer,
    weights_buffer,
)


def all_gpu_plan(net):
    plan = ExecutionPlan(net.name)
    for name in net.topo_order():
        plan.set_layer(gpu_layer(name))
    return plan


class TestNaming:
    def test_buffer_names(self):
        assert input_buffer() == "input"
        assert weights_buffer("fc6") == "fc6.weights"
        assert output_buffer("fc6") == "fc6.out"


class TestClassification:
    def test_network_input(self, chain_net):
        roles = classify_buffers(chain_net, all_gpu_plan(chain_net))
        assert roles["input"] is BufferRole.NETWORK_INPUT

    def test_weights(self, chain_net):
        roles = classify_buffers(chain_net, all_gpu_plan(chain_net))
        assert roles["conv1.weights"] is BufferRole.WEIGHTS
        assert roles["fc1.weights"] is BufferRole.WEIGHTS

    def test_parameter_free_layers_have_no_weights_buffer(self, chain_net):
        roles = classify_buffers(chain_net, all_gpu_plan(chain_net))
        assert "relu1.weights" not in roles

    def test_noop_layers_have_no_output_buffer(self, chain_net):
        roles = classify_buffers(chain_net, all_gpu_plan(chain_net))
        assert "flatten.out" not in roles
        assert "drop1.out" not in roles

    def test_single_writer_activation(self, chain_net):
        roles = classify_buffers(chain_net, all_gpu_plan(chain_net))
        assert roles["conv1.out"] is BufferRole.ACTIVATION

    def test_network_output(self, chain_net):
        roles = classify_buffers(chain_net, all_gpu_plan(chain_net))
        assert roles["softmax.out"] is BufferRole.NETWORK_OUTPUT

    def test_split_layer_output_is_cowritten(self, chain_net):
        plan = all_gpu_plan(chain_net)
        plan.set_layer(split_layer("fc1", 0.4))
        roles = classify_buffers(chain_net, plan)
        assert roles["fc1.out"] is BufferRole.COWRITTEN_OUTPUT

    def test_classification_is_plan_dependent(self, chain_net):
        # The same buffer changes role when the plan changes — the reason
        # memory management must cooperate with hybrid execution.
        gpu_roles = classify_buffers(chain_net, all_gpu_plan(chain_net))
        split_plan = all_gpu_plan(chain_net)
        split_plan.set_layer(split_layer("conv1", 0.3))
        split_roles = classify_buffers(chain_net, split_plan)
        assert gpu_roles["conv1.out"] is BufferRole.ACTIVATION
        assert split_roles["conv1.out"] is BufferRole.COWRITTEN_OUTPUT

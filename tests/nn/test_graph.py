"""NetworkGraph construction, validation, and accounting."""

import weakref

import numpy as np
import pytest

from repro.errors import GraphError, ShapeError
from repro.nn.graph import INPUT, ChainSegment, NetworkGraph
from repro.nn.layers import Dense

from ..conftest import make_branch_net, make_chain_net


class TestConstruction:
    def test_implicit_chaining(self):
        net = make_chain_net()
        node = net.node("relu1")
        assert node.input_names == ("conv1",)

    def test_explicit_inputs(self):
        net = make_branch_net()
        assert net.node("concat").input_names == ("left_relu", "right_relu")

    def test_first_layer_reads_network_input(self):
        net = make_chain_net()
        assert net.node("conv1").input_names == (INPUT,)

    def test_duplicate_name_rejected(self):
        net = NetworkGraph("n", (4,))
        net.add(Dense("fc", 4))
        with pytest.raises(GraphError, match="duplicate"):
            net.add(Dense("fc", 4))

    def test_unknown_dependency_rejected(self):
        net = NetworkGraph("n", (4,))
        with pytest.raises(GraphError, match="unknown layer"):
            net.add(Dense("fc", 4), inputs=["ghost"])

    def test_layer_named_input_rejected(self):
        net = NetworkGraph("n", (4,))
        with pytest.raises(GraphError):
            net.add(Dense(INPUT, 4))

    def test_shape_mismatch_rejected_at_add(self):
        net = NetworkGraph("n", (3, 8, 8))
        with pytest.raises(ShapeError):
            net.add(Dense("fc", 4))  # needs a Flatten first

    def test_empty_network_name_rejected(self):
        with pytest.raises(GraphError):
            NetworkGraph("", (4,))


class TestStructure:
    def test_topo_order_is_insertion_order(self):
        net = make_chain_net()
        order = net.topo_order()
        assert order[0] == "conv1" and order[-1] == "softmax"

    def test_output_name(self):
        assert make_chain_net().output_name == "softmax"

    def test_output_shape(self):
        assert make_chain_net().output_shape == (10,)

    def test_multiple_sinks_rejected(self):
        net = NetworkGraph("n", (4,))
        net.add(Dense("a", 4))
        net.add(Dense("b", 4), inputs=[INPUT])
        with pytest.raises(GraphError, match="exactly one output"):
            net.output_name

    def test_contains_and_len(self):
        net = make_chain_net()
        assert "conv1" in net
        assert "nope" not in net
        assert len(net) == 9

    def test_node_lookup_unknown(self):
        with pytest.raises(GraphError):
            make_chain_net().node("ghost")

    def test_adding_a_layer_refreshes_derived_structure(self):
        net = NetworkGraph("n", (4,))
        net.add(Dense("fc1", 4))
        assert net.output_name == "fc1"
        assert net.segments() == [ChainSegment(("fc1",))]
        net.add(Dense("fc2", 3))
        assert net.output_name == "fc2"
        assert net.segments() == [ChainSegment(("fc1", "fc2"))]


class TestAccounting:
    def test_out_bytes(self):
        net = make_chain_net()
        assert net.out_bytes("conv1") == 8 * 16 * 16 * 4
        assert net.out_bytes(INPUT) == 3 * 16 * 16 * 4

    def test_total_param_bytes(self):
        net = NetworkGraph("n", (4,))
        net.add(Dense("fc", 8))
        assert net.total_param_bytes() == (4 * 8 + 8) * 4

    def test_total_flops_positive(self):
        assert make_chain_net().total_flops() > 0

    def test_layers_of_class(self):
        net = make_chain_net()
        assert net.layers_of_class("conv") == ["conv1"]
        assert net.layers_of_class("dense") == ["fc1", "fc2"]

    def test_work_matches_layer(self):
        net = make_chain_net()
        work = net.work("fc1")
        assert work.kernel_class == "dense"
        assert work.out_bytes == 32 * 4

    def test_summary_mentions_every_layer(self):
        net = make_chain_net()
        text = net.summary()
        for name in net.topo_order():
            assert name in text


class TestForward:
    def test_forward_shape_and_distribution(self, rng):
        net = make_chain_net()
        out = net.forward(rng.random(net.input_shape, dtype=np.float32))
        assert out.shape == (10,)
        assert out.sum() == pytest.approx(1.0, rel=1e-4)

    def test_forward_rejects_wrong_input_shape(self, rng):
        net = make_chain_net()
        with pytest.raises(ShapeError):
            net.forward(rng.random((3, 8, 8), dtype=np.float32))

    def test_forward_deterministic(self, rng):
        net = make_chain_net()
        x = rng.random(net.input_shape, dtype=np.float32)
        np.testing.assert_array_equal(net.forward(x), net.forward(x))

    def test_forward_branch_graph(self, rng):
        net = make_branch_net()
        out = net.forward(rng.random(net.input_shape, dtype=np.float32))
        assert out.shape == (10,)

    def test_params_can_be_supplied(self, rng):
        net = make_chain_net()
        params = net.materialize_params()
        x = rng.random(net.input_shape, dtype=np.float32)
        np.testing.assert_array_equal(net.forward(x, params), net.forward(x))

    def test_graph_keeps_its_params_until_a_layer_is_added(self, rng):
        net = NetworkGraph("n", (4,))
        net.add(Dense("fc1", 4))
        x = rng.random(net.input_shape, dtype=np.float32)
        net.forward(x)
        kept = net._params
        net.forward(x)
        assert net._params is kept
        net.add(Dense("fc2", 3))
        assert net.forward(x).shape == (3,)
        assert set(net._params) == {"fc1", "fc2"}

    def test_supplied_params_do_not_populate_the_cache(self, rng):
        net = make_chain_net()
        x = rng.random(net.input_shape, dtype=np.float32)
        net.forward(x, net.materialize_params())
        assert net._params is None

    @pytest.mark.parametrize("build", [make_chain_net, make_branch_net])
    def test_forward_leaves_input_unmodified(self, rng, build):
        net = build()
        x = rng.standard_normal(net.input_shape).astype(np.float32)
        before = x.copy()
        net.forward(x)
        np.testing.assert_array_equal(x, before)

    def test_forward_frees_dead_activations(self, rng):
        # When a layer runs, only its own input (and, for a view, the array
        # behind it) is still alive: earlier outputs were dropped after
        # their last consumer.
        net = make_chain_net()
        refs, most_alive = [], []
        for name in net.topo_order():
            layer = net.node(name).layer

            def recording(inputs, params, _forward=layer.forward):
                alive = {id(a) for a in (r() for r in refs) if a is not None}
                most_alive.append(len(alive))
                out = _forward(inputs, params)
                refs.append(weakref.ref(out))
                return out

            layer.forward = recording
        net.forward(rng.random(net.input_shape, dtype=np.float32))
        assert len(most_alive) == len(net)
        assert max(most_alive) <= 2

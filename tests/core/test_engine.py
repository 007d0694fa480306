"""EdgeNN engine facade."""

import numpy as np
import pytest

from repro.core.engine import EdgeNN, EdgeNNConfig
from repro.core.memory_manager import MemoryPolicy
from repro.errors import ReproError
from repro.hardware.device import Device
from repro.hardware.specs import JETSON_AGX_XAVIER, RASPBERRY_PI_4, RTX_2080TI_HOST
from repro.nn.graph import NetworkGraph
from repro.nn.models import MODEL_BUILDERS
from repro.workloads import input_for


class TestConstruction:
    def test_accepts_network_name(self):
        engine = EdgeNN("lenet")
        assert engine.graph.name == "lenet"

    def test_accepts_graph_object(self, chain_net):
        engine = EdgeNN(chain_net)
        assert engine.graph is chain_net

    def test_defaults_to_jetson(self):
        assert EdgeNN("lenet").device.name == "jetson-agx-xavier"

    def test_accepts_device_spec_or_instance(self):
        assert EdgeNN("lenet", JETSON_AGX_XAVIER).device.name == "jetson-agx-xavier"
        dev = Device(JETSON_AGX_XAVIER)
        assert EdgeNN("lenet", dev).device is dev

    def test_rejects_non_integrated_devices(self):
        with pytest.raises(ReproError, match="integrated"):
            EdgeNN("lenet", RASPBERRY_PI_4)
        with pytest.raises(ReproError, match="integrated"):
            EdgeNN("lenet", RTX_2080TI_HOST)

    def test_unknown_network_raises_in_the_constructor(self):
        with pytest.raises(KeyError, match="transformer"):
            EdgeNN("transformer")


class TestLazyGraph:
    """A plan served from the cache needs no graph: the engine builds
    one only when a plan is tuned or executed."""

    def test_cache_hit_builds_no_graph(self, monkeypatch):
        EdgeNN("lenet").tune()  # the plan is cached from here on
        builds = []
        builder = MODEL_BUILDERS["lenet"]

        def counted():
            builds.append("lenet")
            return builder()

        monkeypatch.setitem(MODEL_BUILDERS, "lenet", counted)
        engine = EdgeNN("lenet")
        engine.tune()
        assert engine.plan is not None
        assert builds == []
        assert engine.graph.name == "lenet"
        assert engine.graph is engine.graph
        assert builds == ["lenet"]


class TestConfig:
    def test_default_config_enables_everything(self):
        config = EdgeNNConfig()
        assert config.memory_policy() is MemoryPolicy.SEMANTIC
        tc = config.tuner_config()
        assert tc.use_intra_kernel and tc.use_inter_kernel

    def test_memory_management_off(self):
        config = EdgeNNConfig(use_memory_management=False)
        assert config.memory_policy() is MemoryPolicy.ALL_REGULAR

    def test_hybrid_off_disables_both_corun_modes(self):
        tc = EdgeNNConfig(use_hybrid_execution=False).tuner_config()
        assert not tc.use_intra_kernel and not tc.use_inter_kernel

    def test_subflags(self):
        tc = EdgeNNConfig(use_intra_kernel=False).tuner_config()
        assert not tc.use_intra_kernel and tc.use_inter_kernel


class TestRun:
    def test_tune_is_cached(self, chain_net):
        engine = EdgeNN(chain_net)
        first = engine.tune()
        second = engine.tune()
        assert first is second

    def test_tune_force_retunes(self, chain_net):
        engine = EdgeNN(chain_net)
        first = engine.tune()
        second = engine.tune(force=True)
        assert first is not second

    def test_run_returns_report(self, chain_net):
        report = EdgeNN(chain_net).run()
        assert report.total_s > 0
        assert report.device == "jetson-agx-xavier"

    def test_run_is_deterministic(self, chain_net):
        engine = EdgeNN(chain_net)
        assert engine.run().total_s == pytest.approx(engine.run().total_s)

    def test_summary_text(self, chain_net):
        text = EdgeNN(chain_net).summary()
        assert "EdgeNN" in text and "plan[" in text


class TestInfer:
    def test_numeric_inference(self, chain_net):
        engine = EdgeNN(chain_net)
        out = engine.infer(input_for(chain_net))
        assert out.shape == (10,)
        assert out.sum() == pytest.approx(1.0, rel=1e-4)

    def test_infer_matches_graph_forward(self, chain_net):
        engine = EdgeNN(chain_net)
        x = input_for(chain_net, seed=7)
        expected = chain_net.forward(x)
        np.testing.assert_allclose(engine.infer(x), expected, rtol=1e-5)

    def test_placement_does_not_change_numerics(self, chain_net):
        # The same input through differently-configured engines gives the
        # same mathematical result.
        x = input_for(chain_net, seed=3)
        full = EdgeNN(chain_net).infer(x)
        plain = EdgeNN(
            chain_net,
            config=EdgeNNConfig(use_memory_management=False,
                                use_hybrid_execution=False),
        ).infer(x)
        np.testing.assert_allclose(full, plain, rtol=1e-6)

    def test_params_cached_per_graph(self, chain_net, monkeypatch):
        # The graph owns its parameters: any number of forward passes and
        # engine calls on one graph materialize them exactly once.
        calls = []
        materialize = NetworkGraph.materialize_params

        def counting(graph):
            calls.append(graph)
            return materialize(graph)

        monkeypatch.setattr(NetworkGraph, "materialize_params", counting)
        x = input_for(chain_net, seed=5)
        first = chain_net.forward(x)
        second = chain_net.forward(x)
        engine = EdgeNN(chain_net, JETSON_AGX_XAVIER)
        np.testing.assert_array_equal(engine.infer(x), first)
        np.testing.assert_array_equal(second, first)
        assert calls == [chain_net]

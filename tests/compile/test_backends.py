"""Execution backends: registry, analytic/numpy parity, overrides."""

import numpy as np
import pytest

from repro.compile import (
    AnalyticBackend,
    ExecutionBackend,
    NumpyBackend,
    compile_fixed,
    compile_plan,
    get_backend,
)
from repro.core.engine import EdgeNN
from repro.core.plan_cache import PlanCache
from repro.errors import ReproError
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.graph import NetworkGraph


class TestRegistry:
    def test_known_backends(self):
        assert isinstance(get_backend("analytic"), AnalyticBackend)
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_backends_satisfy_protocol(self):
        assert isinstance(AnalyticBackend(), ExecutionBackend)
        assert isinstance(NumpyBackend(), ExecutionBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown execution backend"):
            get_backend("tpu")

    def test_options_forwarded(self):
        backend = get_backend("analytic", warm_weights=True, namespace="t0/")
        assert backend._warm_weights
        assert backend._namespace == "t0/"


class TestAnalyticBackend:
    def test_matches_engine_run(self):
        compiled = compile_plan("lenet", JETSON_AGX_XAVIER)
        via_backend = AnalyticBackend().execute(compiled)
        engine = EdgeNN("lenet", JETSON_AGX_XAVIER, plan_cache=PlanCache())
        assert via_backend.to_dict() == engine.run().to_dict()

    def test_rejects_payload(self):
        compiled = compile_fixed("lenet", JETSON_AGX_XAVIER)
        with pytest.raises(ReproError, match="no input payload"):
            AnalyticBackend().execute(
                compiled, payload=np.zeros((1, 1, 28, 28), np.float32)
            )

    def test_override_beats_lowering(self):
        # The artifact says serialized + host-staged; the backend override
        # restores concurrent zero-copy execution and must change timing.
        compiled = compile_fixed(
            "alexnet", JETSON_AGX_XAVIER, placement="gpu",
            serialize=True, host_staging=True,
        )
        pinned = AnalyticBackend().execute(compiled)
        overridden = AnalyticBackend(
            serialize=False, host_staging=False
        ).execute(compiled)
        assert overridden.total_s < pinned.total_s

    def test_warm_weights_drop_cold_copies(self):
        compiled = compile_fixed("alexnet", JETSON_AGX_XAVIER, placement="gpu")
        cold = AnalyticBackend().execute(compiled)
        warm = AnalyticBackend(warm_weights=True).execute(compiled)
        assert warm.total_s <= cold.total_s
        assert warm.copy_s_total <= cold.copy_s_total


class TestNumpyBackend:
    def test_requires_payload(self):
        compiled = compile_fixed("lenet", JETSON_AGX_XAVIER)
        with pytest.raises(ReproError, match="needs an input"):
            NumpyBackend().execute(compiled)

    def test_matches_reference_forward(self):
        compiled = compile_fixed("lenet", JETSON_AGX_XAVIER)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(compiled.graph.input_shape).astype(np.float32)
        got = NumpyBackend().execute(compiled, payload=x)
        want = compiled.graph.forward(x)
        np.testing.assert_array_equal(got, want)

    def test_params_cached_per_graph(self, monkeypatch):
        # The graph owns its parameters: any number of backends and engine
        # calls on one graph materialize them exactly once.
        compiled = compile_fixed("lenet", JETSON_AGX_XAVIER)
        calls = []
        materialize = NetworkGraph.materialize_params

        def counting(graph):
            calls.append(graph)
            return materialize(graph)

        monkeypatch.setattr(NetworkGraph, "materialize_params", counting)
        x = np.zeros(compiled.graph.input_shape, np.float32)
        first = NumpyBackend().execute(compiled, payload=x)
        second = NumpyBackend().execute(compiled, payload=x)
        engine = EdgeNN(compiled.graph, JETSON_AGX_XAVIER, plan_cache=PlanCache())
        np.testing.assert_array_equal(engine.infer(x), first)
        np.testing.assert_array_equal(second, first)
        assert calls == [compiled.graph]

    def test_placement_never_changes_math(self):
        x = None
        outputs = []
        for placement in ("cpu", "gpu"):
            compiled = compile_fixed(
                "lenet", JETSON_AGX_XAVIER, placement=placement
            )
            if x is None:
                rng = np.random.default_rng(3)
                x = rng.standard_normal(
                    compiled.graph.input_shape
                ).astype(np.float32)
            outputs.append(NumpyBackend().execute(compiled, payload=x))
        np.testing.assert_array_equal(outputs[0], outputs[1])

"""The staged compilation pipeline and its thin clients."""

import numpy as np
import pytest

from repro.baselines.cpu_only import cpu_only_plan
from repro.compile import (
    STAGE_NAMES,
    CompiledPlan,
    PlanArtifact,
    compile_fixed,
    compile_plan,
)
from repro.core.engine import EdgeNN, EdgeNNConfig
from repro.core.plan_cache import PlanCache
from repro.core.tuner import TunerConfig
from repro.errors import ReproError
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import build as build_model
from repro.obs import Observability


class TestCompilePlan:
    def test_matches_engine_plan(self):
        compiled = compile_plan("lenet", JETSON_AGX_XAVIER)
        engine = EdgeNN("lenet", JETSON_AGX_XAVIER, plan_cache=PlanCache())
        assert compiled.plan.to_dict() == engine.plan.to_dict()

    def test_accepts_engine_and_tuner_configs(self):
        via_engine = compile_plan(
            "lenet", JETSON_AGX_XAVIER,
            EdgeNNConfig(use_hybrid_execution=False),
        )
        via_tuner = compile_plan(
            "lenet", JETSON_AGX_XAVIER,
            TunerConfig(use_intra_kernel=False, use_inter_kernel=False),
        )
        assert via_engine.plan.to_dict() == via_tuner.plan.to_dict()

    def test_rejects_bogus_config(self):
        with pytest.raises(ReproError, match="config must be"):
            compile_plan("lenet", JETSON_AGX_XAVIER, config=42)

    def test_artifact_records_key_and_provenance(self):
        compiled = compile_plan("lenet", JETSON_AGX_XAVIER)
        art = compiled.artifact
        assert art.key.network == "lenet"
        assert art.key.device == JETSON_AGX_XAVIER.name
        assert art.provenance.stages == STAGE_NAMES
        assert art.provenance.measured_rounds == len(compiled.tuning.rounds)
        assert len(art.provenance.round_scores) == len(compiled.tuning.rounds)

    def test_custom_graph_compiles(self, chain_net):
        compiled = compile_plan(chain_net, JETSON_AGX_XAVIER)
        assert compiled.key.network == chain_net.name
        assert set(compiled.plan.layers) == set(chain_net.topo_order())


class TestCompileFixed:
    def test_cpu_plan_matches_baseline_helper(self):
        graph = build_model("lenet")
        a = compile_fixed(graph, JETSON_AGX_XAVIER, placement="cpu").plan
        b = cpu_only_plan(graph, JETSON_AGX_XAVIER)
        assert a.to_dict() == b.to_dict()

    def test_lowering_records_execution_semantics(self):
        compiled = compile_fixed(
            "lenet", JETSON_AGX_XAVIER, placement="gpu",
            serialize=True, host_staging=True,
        )
        assert compiled.artifact.lowering.serialize
        assert compiled.artifact.lowering.host_staging
        assert compiled.artifact.provenance.stages == ("place", "lower")

    def test_invalid_placement_rejected(self):
        with pytest.raises(ReproError, match="cpu.*or.*gpu"):
            compile_fixed("lenet", JETSON_AGX_XAVIER, placement="tpu")


class TestCompiledPlan:
    def test_from_artifact_rebuilds_graph_and_device(self):
        art = compile_plan("lenet", JETSON_AGX_XAVIER).artifact
        reloaded = PlanArtifact.from_json(art.to_json())
        compiled = CompiledPlan.from_artifact(reloaded)
        assert compiled.graph.name == "lenet"
        assert compiled.device.name == JETSON_AGX_XAVIER.name
        assert compiled.plan.to_dict() == art.plan.to_dict()

    def test_from_artifact_resolves_variant_devices(self):
        compiled = compile_fixed("lenet", JETSON_AGX_XAVIER, placement="gpu")
        art = PlanArtifact.from_json(compiled.artifact.to_json())
        assert CompiledPlan.from_artifact(art).device.spec.is_integrated

    def test_graph_mismatch_rejected(self):
        art = compile_fixed("lenet", JETSON_AGX_XAVIER).artifact
        with pytest.raises(ReproError, match="does not match"):
            CompiledPlan.from_artifact(art, graph=build_model("alexnet"))

    def test_matches_engine_run(self):
        compiled = compile_plan("lenet", JETSON_AGX_XAVIER)
        engine = EdgeNN("lenet", JETSON_AGX_XAVIER, plan_cache=PlanCache())
        assert compiled.execute().to_dict() == engine.run().to_dict()

    def test_override_beats_lowering(self):
        # The artifact says serialized + host-staged; the override
        # restores concurrent zero-copy execution and must change timing.
        compiled = compile_fixed(
            "alexnet", JETSON_AGX_XAVIER, placement="gpu",
            serialize=True, host_staging=True,
        )
        pinned = compiled.execute()
        overridden = compiled.execute(serialize=False, host_staging=False)
        assert overridden.total_s < pinned.total_s

    def test_warm_weights_drop_cold_copies(self):
        compiled = compile_fixed("alexnet", JETSON_AGX_XAVIER, placement="gpu")
        cold = compiled.execute()
        warm = compiled.execute(warm_weights=True)
        assert warm.total_s <= cold.total_s
        assert warm.copy_s_total <= cold.copy_s_total

    def test_reloaded_graph_matches_reference_forward(self):
        # A graph rebuilt from a saved artifact computes exactly what the
        # compiled graph does.
        compiled = compile_fixed("lenet", JETSON_AGX_XAVIER)
        art = PlanArtifact.from_json(compiled.artifact.to_json())
        reloaded = CompiledPlan.from_artifact(art)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(compiled.graph.input_shape).astype(np.float32)
        engine = EdgeNN(reloaded.graph, reloaded.device,
                        plan_cache=PlanCache())
        np.testing.assert_array_equal(
            engine.infer(x), compiled.graph.forward(x)
        )

    def test_placement_never_changes_math(self):
        rng = np.random.default_rng(3)
        x = None
        outputs = []
        for placement in ("cpu", "gpu"):
            compiled = compile_fixed(
                "lenet", JETSON_AGX_XAVIER, placement=placement
            )
            if x is None:
                x = rng.standard_normal(
                    compiled.graph.input_shape
                ).astype(np.float32)
            engine = EdgeNN(compiled.graph, compiled.device,
                            plan_cache=PlanCache())
            outputs.append(engine.infer(x))
        np.testing.assert_array_equal(outputs[0], outputs[1])


class TestStageTracing:
    def test_pipeline_emits_stage_spans(self):
        obs = Observability.on()
        compile_plan("lenet", JETSON_AGX_XAVIER, obs=obs)
        names = [s.name for s in obs.tracer.iter_spans()]
        assert "tune" in names
        for stage in STAGE_NAMES:
            assert f"stage:{stage}" in names, f"missing stage:{stage}"
        # Legacy tuner spans survive inside the stages.
        assert "tune:profile" in names
        assert "tune:final" in names

    def test_stage_spans_nest_under_tune(self):
        obs = Observability.on()
        compile_plan("lenet", JETSON_AGX_XAVIER, obs=obs)
        spans = {s.name: s for s in obs.tracer.iter_spans()}
        tune = spans["tune"]
        for stage in STAGE_NAMES:
            assert spans[f"stage:{stage}"].parent_id == tune.span_id

    def test_engine_tune_goes_through_pipeline(self):
        obs = Observability.on()
        EdgeNN("lenet", JETSON_AGX_XAVIER, plan_cache=PlanCache(),
               obs=obs).tune()
        names = [s.name for s in obs.tracer.iter_spans()]
        assert "plan:lookup" in names
        assert "stage:lower" in names

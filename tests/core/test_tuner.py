"""Adaptive tuner: profiling, analytic seed, and feedback behaviour."""

import pytest

from repro.core.executor import HybridExecutor
from repro.core.memory_manager import MemoryPolicy
from repro.core.plan import Assignment
from repro.core.tuner import AdaptiveTuner, TunerConfig, TuningResult
from repro.errors import TuningError


class TestConstruction:
    def test_requires_gpu_device(self, chain_net, rpi):
        with pytest.raises(TuningError, match="no GPU"):
            AdaptiveTuner(chain_net, rpi)


class TestProfiling:
    def test_profile_passes_fill_store(self, chain_net, jetson):
        tuner = AdaptiveTuner(chain_net, jetson)
        result = tuner.tune()
        for name in chain_net.topo_order():
            assert tuner.profiles.has_both(name)
        assert isinstance(result, TuningResult)

    def test_profiles_are_positive_for_real_layers(self, chain_net, jetson):
        tuner = AdaptiveTuner(chain_net, jetson)
        tuner.tune()
        assert tuner.profiles.gpu_time("conv1") > 0
        assert tuner.profiles.cpu_time("conv1") > 0


class TestTunedPlanQuality:
    def test_tuned_plan_not_slower_than_gpu_only(self, chain_net, jetson):
        tuner = AdaptiveTuner(chain_net, jetson)
        result = tuner.tune()
        tuned = HybridExecutor(chain_net, jetson, result.plan).run()
        gpu_only_round = result.rounds[0]  # the GPU profiling pass
        assert tuned.total_s <= gpu_only_round.total_s * 1.001

    def test_rounds_recorded(self, chain_net, jetson):
        result = AdaptiveTuner(chain_net, jetson).tune()
        assert len(result.rounds) >= 2
        assert result.converged_after >= 1

    def test_final_report_exists(self, chain_net, jetson):
        result = AdaptiveTuner(chain_net, jetson).tune()
        assert result.final_report.total_s > 0

    def test_empty_result_raises_on_final_report(self, chain_net):
        from repro.core.plan import ExecutionPlan
        result = TuningResult(plan=ExecutionPlan("x"))
        with pytest.raises(TuningError):
            result.final_report

    def test_plan_covers_every_layer(self, chain_net, jetson):
        result = AdaptiveTuner(chain_net, jetson).tune()
        for name in chain_net.topo_order():
            result.plan.layer_plan(name)


class TestFeatureFlags:
    def test_intra_kernel_disabled_yields_no_splits(self, chain_net, jetson):
        config = TunerConfig(use_intra_kernel=False)
        result = AdaptiveTuner(chain_net, jetson, config).tune()
        assert result.plan.split_layers == {}
        assert result.plan.cpu_layers == []

    def test_inter_kernel_disabled_keeps_branches_on_gpu(self, branch_net, jetson):
        config = TunerConfig(use_intra_kernel=False, use_inter_kernel=False)
        result = AdaptiveTuner(branch_net, jetson, config).tune()
        for name in ("left", "left_relu", "right", "right_relu"):
            assert result.plan.layer_plan(name).assignment is Assignment.GPU

    def test_inter_kernel_splits_branches_across_processors(self, branch_net, jetson):
        config = TunerConfig(use_intra_kernel=False, use_inter_kernel=True)
        result = AdaptiveTuner(branch_net, jetson, config).tune()
        assignments = {
            name: result.plan.layer_plan(name).assignment
            for name in ("left", "right")
        }
        # Inter-kernel co-running engaged: the two independent branches run
        # on different processors (which one gets the CPU depends on the
        # measured costs at this scale).
        assert set(assignments.values()) == {Assignment.CPU, Assignment.GPU}

    def test_branch_layers_share_their_branch_processor(self, branch_net, jetson):
        config = TunerConfig(use_intra_kernel=False, use_inter_kernel=True)
        result = AdaptiveTuner(branch_net, jetson, config).tune()
        assert (result.plan.layer_plan("left").assignment
                is result.plan.layer_plan("left_relu").assignment)
        assert (result.plan.layer_plan("right").assignment
                is result.plan.layer_plan("right_relu").assignment)

    def test_memory_policy_respected(self, chain_net, jetson):
        from repro.hardware.memory import AllocKind
        config = TunerConfig(memory_policy=MemoryPolicy.ALL_REGULAR)
        result = AdaptiveTuner(chain_net, jetson, config).tune()
        kinds = set(result.plan.alloc.values())
        assert kinds == {AllocKind.REGULAR}


class TestFeedback:
    def test_branch_layers_protected_from_demotion(self, branch_net, jetson):
        # The scheduler's branch assignments must survive the per-layer
        # feedback rounds (a CPU branch can be individually slower than the
        # GPU yet globally useful).
        config = TunerConfig(use_intra_kernel=False, use_inter_kernel=True,
                             max_feedback_rounds=4)
        tuner = AdaptiveTuner(branch_net, jetson, config)
        result = tuner.tune()
        branch_assignments = {
            result.plan.layer_plan(n).assignment for n in ("left", "right")
        }
        assert Assignment.CPU in branch_assignments

    def test_splits_have_sane_fractions(self, jetson):
        from repro.nn.models import build
        result = AdaptiveTuner(build("alexnet"), jetson).tune()
        for fraction in result.plan.split_layers.values():
            assert 0.05 <= fraction <= 0.95

    def test_best_measured_plan_kept(self, chain_net, jetson):
        result = AdaptiveTuner(chain_net, jetson).tune()
        best = min(r.total_s for r in result.rounds[1:])
        final = HybridExecutor(chain_net, jetson, result.plan).run()
        assert final.total_s <= best * 1.001

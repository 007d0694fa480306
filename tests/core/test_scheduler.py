"""Inter-kernel branch assignment (§IV-D non-chain strategy search)."""

import pytest

from repro.core.profiler import ProfileStore
from repro.core.scheduler import (
    BranchCosts,
    assignments_for_graph,
    branch_costs,
    choose_assignment,
    predict_assignment_time,
)
from repro.errors import PlanError
from repro.hardware.specs import ProcessorKind
from repro.nn.graph import BranchSegment


CPU = ProcessorKind.CPU
GPU = ProcessorKind.GPU

RATE = 1e9  # 1 GB/s copy rate for readable numbers


def costs_pair(cpu1, gpu1, cpu2, gpu2, out1=0.0, out2=0.0):
    return [
        BranchCosts(layers=("a",), cpu_s=cpu1, gpu_s=gpu1, out_bytes=out1),
        BranchCosts(layers=("b",), cpu_s=cpu2, gpu_s=gpu2, out_bytes=out2),
    ]


class TestPrediction:
    def test_paper_strategy_one(self):
        # Yellow -> CPU, green -> GPU: max(t_c1, t_g2) + v1/s.
        costs = costs_pair(cpu1=3.0, gpu1=1.0, cpu2=9.0, gpu2=4.0, out1=1e9)
        t = predict_assignment_time(costs, [CPU, GPU], RATE)
        assert t == pytest.approx(max(3.0, 4.0) + 1.0)

    def test_paper_strategy_all_gpu(self):
        costs = costs_pair(cpu1=3.0, gpu1=1.0, cpu2=9.0, gpu2=4.0)
        t = predict_assignment_time(costs, [GPU, GPU], RATE)
        assert t == pytest.approx(1.0 + 4.0)

    def test_handoff_free_drops_copy_term(self):
        costs = costs_pair(cpu1=3.0, gpu1=1.0, cpu2=9.0, gpu2=4.0, out1=1e9)
        t = predict_assignment_time(costs, [CPU, GPU], RATE, handoff_free=True)
        assert t == pytest.approx(4.0)

    def test_arity_mismatch_rejected(self):
        costs = costs_pair(1, 1, 1, 1)
        with pytest.raises(PlanError):
            predict_assignment_time(costs, [CPU], RATE)

    def test_bad_rate_rejected(self):
        with pytest.raises(PlanError):
            predict_assignment_time(costs_pair(1, 1, 1, 1), [CPU, GPU], 0.0)


class TestChoice:
    def test_parallel_win(self):
        # CPU on the small branch overlaps the GPU's big branch.
        costs = costs_pair(cpu1=2.0, gpu1=1.0, cpu2=16.0, gpu2=4.0)
        best = choose_assignment(costs, RATE, handoff_free=True)
        assert best.processors == (CPU, GPU)
        assert best.predicted_s == pytest.approx(4.0)
        assert best.uses_cpu

    def test_all_gpu_when_cpu_too_slow(self):
        costs = costs_pair(cpu1=100.0, gpu1=1.0, cpu2=100.0, gpu2=4.0)
        best = choose_assignment(costs, RATE)
        assert best.processors == (GPU, GPU)

    def test_handoff_cost_can_flip_decision(self):
        # CPU branch helps on compute but its output copy erases the gain.
        costs = costs_pair(cpu1=2.0, gpu1=1.9, cpu2=16.0, gpu2=4.0, out1=3e9)
        with_copy = choose_assignment(costs, RATE, handoff_free=False)
        free = choose_assignment(costs, RATE, handoff_free=True)
        assert with_copy.processors == (GPU, GPU)
        assert free.processors == (CPU, GPU)

    def test_empty_branches_pinned_to_gpu(self):
        costs = [
            BranchCosts(layers=(), cpu_s=0.0, gpu_s=0.0, out_bytes=0.0),
            BranchCosts(layers=("m",), cpu_s=4.0, gpu_s=2.0, out_bytes=0.0),
        ]
        best = choose_assignment(costs, RATE)
        assert best.processors[0] is GPU

    def test_allow_cpu_false_forces_all_gpu(self):
        costs = costs_pair(cpu1=0.1, gpu1=10.0, cpu2=0.1, gpu2=10.0)
        best = choose_assignment(costs, RATE, allow_cpu=False)
        assert best.processors == (GPU, GPU)

    def test_empty_segment_rejected(self):
        with pytest.raises(PlanError):
            choose_assignment([], RATE)


class TestGraphIntegration:
    def _profiles_for(self, net, cpu_s=1e-3, gpu_s=1e-4):
        profiles = ProfileStore()
        for name in net.topo_order():
            profiles.record_cpu(name, cpu_s)
            profiles.record_gpu(name, gpu_s)
        return profiles

    def test_branch_costs_sums_layers(self, branch_net):
        profiles = self._profiles_for(branch_net)
        seg = next(s for s in branch_net.segments()
                   if isinstance(s, BranchSegment))
        costs = branch_costs(branch_net, seg, profiles)
        assert len(costs) == 2
        for c in costs:
            assert c.cpu_s == pytest.approx(2e-3)   # conv + relu
            assert c.gpu_s == pytest.approx(2e-4)
            assert c.out_bytes > 0

    def test_branch_costs_skip_noop_layers(self, residual_net):
        profiles = self._profiles_for(residual_net)
        seg = next(s for s in residual_net.segments()
                   if isinstance(s, BranchSegment))
        costs = branch_costs(residual_net, seg, profiles)
        empty = [c for c in costs if not c.layers]
        assert empty and empty[0].cpu_s == 0.0

    def test_assignments_for_graph_keys_by_join(self, branch_net):
        profiles = self._profiles_for(branch_net)
        result = assignments_for_graph(branch_net, profiles, RATE)
        assert set(result) == {"concat"}

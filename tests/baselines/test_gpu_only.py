"""GPU-only baseline ("the original programs")."""

from repro.baselines import run_gpu_only
from repro.core.memory_manager import MemoryPolicy
from repro.core.plan import Assignment
from repro.hardware.specs import JETSON_AGX_XAVIER, RTX_2080TI_HOST


class TestGpuOnly:
    def test_runs_on_integrated(self, chain_net):
        report = run_gpu_only(chain_net, JETSON_AGX_XAVIER)
        assert report.total_s > 0
        assert report.device == "jetson-agx-xavier"

    def test_runs_on_discrete(self, chain_net):
        report = run_gpu_only(chain_net, RTX_2080TI_HOST)
        assert report.device == "rtx-2080ti-host"
        assert report.copy_s_total > 0

    def test_accepts_network_name(self):
        assert run_gpu_only("lenet", JETSON_AGX_XAVIER).network == "lenet"

    def test_every_layer_on_gpu(self, chain_net):
        report = run_gpu_only(chain_net, JETSON_AGX_XAVIER)
        for lr in report.layers:
            assert lr.assignment is Assignment.GPU
        assert report.cpu_busy_s == 0.0

    def test_regular_policy_has_weight_copies(self, chain_net):
        report = run_gpu_only(chain_net, JETSON_AGX_XAVIER)
        assert report.copy_share > 0

    def test_managed_policy_eliminates_copies(self, chain_net):
        report = run_gpu_only(chain_net, JETSON_AGX_XAVIER,
                              policy=MemoryPolicy.ALL_MANAGED)
        assert report.copy_s_total == 0.0

    def test_discrete_copy_share_exceeds_integrated(self):
        # Fig 9's core comparison: PCIe staging costs more of the total
        # than the integrated copy engine.
        integrated = run_gpu_only("alexnet", JETSON_AGX_XAVIER)
        discrete = run_gpu_only("alexnet", RTX_2080TI_HOST)
        assert discrete.copy_share > integrated.copy_share

    def test_managed_rejected_on_discrete(self, chain_net):
        # plan_allocations silently falls back to REGULAR off-integrated,
        # so the run must succeed with zero managed buffers.
        report = run_gpu_only(chain_net, RTX_2080TI_HOST,
                              policy=MemoryPolicy.ALL_MANAGED)
        assert report.copy_s_total > 0

"""Cloud-offload model (§V-D)."""

import pytest

from repro.baselines import CloudModel, run_cloud
from repro.errors import SpecError
from repro.hardware.specs import RTX_2080TI_HOST

from ..conftest import make_chain_net


class TestCloudModel:
    def test_paper_defaults(self):
        model = CloudModel()
        # 400 KB at 1 MB/s = 0.4 s transmission.
        assert model.transmission_s == pytest.approx(0.4)
        assert model.cloud_latency_s == pytest.approx(0.1)

    def test_custom_bandwidth(self):
        model = CloudModel(bandwidth=10e6)
        assert model.transmission_s == pytest.approx(0.04)

    def test_validation(self):
        with pytest.raises(SpecError):
            CloudModel(bandwidth=0.0)
        with pytest.raises(SpecError):
            CloudModel(cloud_latency_s=-1.0)


class TestRunCloud:
    def test_total_is_sum_of_terms(self, chain_net):
        result = run_cloud(chain_net)
        assert result.total_s == pytest.approx(
            result.computing_s + result.transmission_s + result.cloud_latency_s
        )

    def test_computing_matches_discrete_gpu_baseline(self, chain_net):
        from repro.baselines import run_gpu_only
        result = run_cloud(chain_net)
        direct = run_gpu_only(make_chain_net(), RTX_2080TI_HOST)
        assert result.computing_s == pytest.approx(direct.total_s, rel=1e-6)

    def test_network_overhead_dominates_small_models(self):
        result = run_cloud("lenet")
        assert result.transmission_s + result.cloud_latency_s > result.computing_s

    def test_faster_network_reduces_total(self, chain_net):
        slow = run_cloud(chain_net, model=CloudModel(bandwidth=1e6))
        fast = run_cloud(chain_net, model=CloudModel(bandwidth=10e6))
        assert fast.total_s < slow.total_s
        assert fast.computing_s == pytest.approx(slow.computing_s)

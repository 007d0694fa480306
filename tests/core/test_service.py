"""Inference-service (cold/warm) simulation."""

from repro.core.engine import EdgeNNConfig
from repro.core.service import profile_service

from ..conftest import make_chain_net


class TestProfileService:
    def test_warm_not_slower_than_cold(self, chain_net):
        profile = profile_service(chain_net)
        assert profile.warm_s <= profile.cold_s + 1e-12

    def test_amortization_estimate_positive(self, chain_net):
        profile = profile_service(chain_net)
        assert profile.requests_to_amortize >= 1
        assert profile.cold_overhead_s >= 0

    def test_profile_identifies_network_and_device(self, chain_net):
        profile = profile_service(chain_net)
        assert profile.network == chain_net.name
        assert profile.device == "jetson-agx-xavier"

    def test_accepts_network_name(self):
        assert profile_service("lenet").network == "lenet"


class TestWarmBehaviour:
    def test_warm_regular_run_skips_weight_copies(self, chain_net):
        config = EdgeNNConfig(use_memory_management=False,
                              use_hybrid_execution=False)
        cold_like = profile_service(make_chain_net("svc-a"), config=config)
        # The cold/warm delta under regular allocation is exactly the
        # parameter-staging cost, which warm execution eliminates.
        assert cold_like.cold_overhead_s > 0

    def test_zero_copy_advantage_shrinks_when_warm(self):
        """The paper's one-shot setting maximizes the zero-copy benefit;
        a warm service keeps weights resident so the benefit shrinks."""
        plain = EdgeNNConfig(use_memory_management=False,
                             use_hybrid_execution=False)
        managed = EdgeNNConfig(use_memory_management=True,
                               use_hybrid_execution=False)
        cold_regular = profile_service(make_chain_net("svc-c1"), config=plain)
        cold_managed = profile_service(make_chain_net("svc-c2"), config=managed)
        cold_gain = cold_regular.cold_s - cold_managed.cold_s
        warm_gain = cold_regular.warm_s - cold_managed.warm_s
        assert cold_gain > warm_gain

"""Extension — cold-start vs warm steady-state service latency.

The paper measures one-shot inference (weights staged per run).  A
deployed service keeps weights resident; this bench quantifies how much of
the zero-copy benefit is a cold-start effect.
"""

from repro.core.engine import EdgeNNConfig
from repro.core.service import profile_service
from repro.eval.formatting import render_table

from conftest import run_once

NETWORKS = ("fcnn", "alexnet", "squeezenet")


def test_ext_service_cold_vs_warm(benchmark, record_artifact):
    plain = EdgeNNConfig(use_memory_management=False,
                         use_hybrid_execution=False)

    def compute():
        return {
            net: (profile_service(net, config=plain), profile_service(net))
            for net in NETWORKS
        }

    profiles = run_once(benchmark, compute)
    record_artifact(
        "ext_service_warmup",
        render_table(
            ["network", "original cold_ms", "original warm_ms",
             "edgenn cold_ms", "edgenn warm_ms"],
            [
                (net, base.cold_s * 1e3, base.warm_s * 1e3,
                 edge.cold_s * 1e3, edge.warm_s * 1e3)
                for net, (base, edge) in profiles.items()
            ],
            title="Extension — inference-service cold start vs steady state",
        ),
    )
    for base, edge in profiles.values():
        assert base.warm_s <= base.cold_s + 1e-12
        assert edge.warm_s <= edge.cold_s + 1e-12
        # The original program pays a real cold-start (parameter staging);
        # EdgeNN's zero-copy makes cold ~= warm.
        assert base.cold_overhead_s > edge.cold_overhead_s
        # EdgeNN keeps winning in the warm steady state (hybrid execution
        # persists even when the staging advantage is gone).
        assert edge.warm_s < base.warm_s


def test_ext_zero_copy_benefit_is_mostly_cold_start(benchmark):
    def compute():
        plain = EdgeNNConfig(use_memory_management=False,
                             use_hybrid_execution=False)
        managed = EdgeNNConfig(use_hybrid_execution=False)
        regular = profile_service("fcnn", config=plain)
        zero_copy = profile_service("fcnn", config=managed)
        return regular, zero_copy

    regular, zero_copy = run_once(benchmark, compute)
    cold_gain = regular.cold_s - zero_copy.cold_s
    warm_gain = regular.warm_s - zero_copy.warm_s
    # Zero-copy's win comes overwhelmingly from eliminating the one-shot
    # parameter staging — precisely the regime the paper evaluates.
    assert cold_gain > warm_gain

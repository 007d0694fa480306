"""Simulator throughput — how fast the library itself runs.

Not a paper artifact: these are the true pytest-benchmark timings of one
simulated inference (executor pass) and one full tuning cycle, the costs a
downstream user of this library pays — plus the serving event-engine
speed bench that writes ``BENCH_serving_speed.json`` for the CI speed
gate.
"""

import time

import pytest

from conftest import write_bench_json
from repro.baselines import run_gpu_only
from repro.core.engine import EdgeNN
from repro.core.plan_cache import PlanCache
from repro.hardware.device import Device
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import build
from repro.serving.batcher import BatchPolicy
from repro.serving.simulator import ServingConfig, ServingSimulator, poisson_tenant

#: Pre-refactor per-request event-loop throughput (simulated requests
#: per wall-clock second), measured at commit 7be03cb with the exact
#: workload below (best of 3 after one warm-up run).  "20k" is the
#: event-bound regime (one completion per full batch dominates); "200k"
#: is the saturated regime where bulk admission pays off.
LEGACY_REQ_PER_S = {"20k": 193_192.0, "200k": 240_625.0}

#: CI regression reference for the saturated point: ten times the legacy
#: throughput — the refactor's acceptance floor.  The speed job fails
#: when the measured rate drops more than 20% below this, i.e. when the
#: engine stops clearing ~8x legacy even on slower runners.
REFERENCE_REQ_PER_S = 2_400_000.0
REFERENCE_MIN_FRACTION = 0.8


def _serving_rate(rate_rps: float) -> float:
    """Best-of-3 simulated-requests/sec for the bench workload."""

    def run():
        sim = ServingSimulator(
            None,
            [poisson_tenant("lenet", rate_rps, 5.0, seed=3)],
            ServingConfig(
                policy=BatchPolicy(max_batch_size=32, max_queue_depth=256)
            ),
        )
        t0 = time.perf_counter()
        report = sim.run()
        return report.offered / (time.perf_counter() - t0)

    run()  # warm-up: plan tuning and allocator pools
    return max(run() for _ in range(3))


def test_serving_engine_speed():
    """Vectorized event engine vs the committed legacy baseline.

    Writes ``BENCH_serving_speed.json`` (before/after req/s and the CI
    gate parameters) and enforces the regression gate locally too.
    """
    after = {key: _serving_rate(rate) for key, rate in
             (("20k", 20_000.0), ("200k", 200_000.0))}
    speedup = {k: after[k] / LEGACY_REQ_PER_S[k] for k in after}
    write_bench_json("serving_speed", {
        "workload": {
            "network": "lenet",
            "arrivals": "PoissonArrivals(rate, 5.0, seed=3)",
            "policy": "BatchPolicy(max_batch_size=32, max_queue_depth=256)",
            "protocol": "best of 3 runs of report.offered/dt after warm-up",
        },
        "before_req_per_s": LEGACY_REQ_PER_S,
        "before_provenance": "per-request loop at 7be03cb, same machine class",
        "after_req_per_s": after,
        "speedup": speedup,
        "gate": {
            "point": "200k",
            "reference_req_per_s": REFERENCE_REQ_PER_S,
            "min_fraction": REFERENCE_MIN_FRACTION,
        },
    })
    assert after["200k"] >= REFERENCE_MIN_FRACTION * REFERENCE_REQ_PER_S, (
        f"serving engine regressed: {after['200k']:.0f} req/s at the "
        f"saturated point, gate is {REFERENCE_MIN_FRACTION:.0%} of "
        f"{REFERENCE_REQ_PER_S:.0f}"
    )


@pytest.mark.parametrize("network", ["lenet", "alexnet", "squeezenet",
                                     "resnet18"])
def test_simulated_inference_speed(benchmark, network):
    engine = EdgeNN(network)
    engine.tune()  # plan once; the benchmark times pure execution

    result = benchmark(engine.run)
    assert result.total_s > 0


@pytest.mark.parametrize("network", ["lenet", "squeezenet"])
def test_tuning_cycle_speed(benchmark, network):
    def tune_fresh():
        # A cache of its own per call: every round tunes from scratch.
        return EdgeNN(network, plan_cache=PlanCache()).tune()

    result = benchmark(tune_fresh)
    assert result.final_report.total_s > 0


def test_baseline_simulation_speed(benchmark):
    net = build("vgg16")
    device = Device(JETSON_AGX_XAVIER)

    def run():
        return run_gpu_only(net, device)

    result = benchmark(run)
    assert result.total_s > 0

"""Ablation 4 (DESIGN.md §4) — analytic seed plan vs adaptive feedback.

Eq. 1-4 ignore co-run interference and fixed split overheads; the
feedback rounds are what demote the analytically-attractive-but-measured-
useless conv splits (the paper's justification for being adaptive).
"""

from repro.core.executor import HybridExecutor
from repro.core.tuner import AdaptiveTuner, TunerConfig
from repro.eval.formatting import render_table
from repro.hardware.device import Device
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import build

from conftest import run_once


def seed_vs_tuned(network: str):
    net = build(network)
    device = Device(JETSON_AGX_XAVIER)
    tuner = AdaptiveTuner(net, device, TunerConfig())
    result = tuner.tune()
    seed_plan = tuner.build_initial_plan()
    seed_time = HybridExecutor(net, device, seed_plan).run().total_s
    tuned_time = HybridExecutor(net, device, result.plan).run().total_s
    seed_splits = len(seed_plan.split_layers)
    tuned_splits = len(result.plan.split_layers)
    return seed_time, tuned_time, seed_splits, tuned_splits


def test_ablation_adaptive_feedback(benchmark, record_artifact):
    def compute():
        return {net: seed_vs_tuned(net) for net in ("alexnet", "lenet")}

    results = run_once(benchmark, compute)
    rows = [
        (net, seed * 1e3, tuned * 1e3, s_splits, t_splits)
        for net, (seed, tuned, s_splits, t_splits) in results.items()
    ]
    record_artifact(
        "ablation_adaptive_feedback",
        render_table(
            ["network", "analytic_seed_ms", "tuned_ms",
             "seed splits", "tuned splits"],
            rows,
            title="Ablation — one-shot Eq.1-4 plan vs adaptive feedback",
        ),
    )
    for net, (seed, tuned, seed_splits, tuned_splits) in results.items():
        # Feedback never hurts, and it prunes the over-eager analytic splits.
        assert tuned <= seed * 1.001
        assert tuned_splits <= seed_splits


def test_feedback_demotes_conv_splits(benchmark):
    def compute():
        net = build("alexnet")
        device = Device(JETSON_AGX_XAVIER)
        tuner = AdaptiveTuner(net, device, TunerConfig())
        result = tuner.tune()
        seed = tuner.build_initial_plan()
        conv_names = set(net.layers_of_class("conv"))
        seed_conv_splits = conv_names & set(seed.split_layers)
        tuned_conv_splits = conv_names & set(result.plan.split_layers)
        return seed_conv_splits, tuned_conv_splits

    seed_conv_splits, tuned_conv_splits = run_once(benchmark, compute)
    # Eq. 4 wants to split large convs (t_cpu/t_gpu ~ 4 predicts ~20%
    # gain); measurement under co-run interference says otherwise, and the
    # feedback loop must end with none of them split (Table I: conv = 0).
    assert seed_conv_splits, "analytic seed should propose conv splits"
    assert not tuned_conv_splits

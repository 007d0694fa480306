"""Extension — multi-DNN concurrent inference (the DART [88] scenario the
paper's related work discusses).

Two findings this bench documents:

1. Naively co-running two *GPU-tuned* plans saves almost nothing and can
   starve the small tenant behind the big one's non-preemptive kernels —
   exactly why DART exists.
2. Placing the tenants on *complementary* resources (the small network
   runs whole on the otherwise-idle CPU) overlaps them and cuts the
   makespan, with the big tenant essentially undisturbed.
"""

from repro.baselines import cpu_only_plan
from repro.core.engine import EdgeNN
from repro.core.multitenant import concurrent_edgenn, run_concurrent
from repro.eval.formatting import render_table
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import build

from conftest import run_once


def complementary_corun():
    """LeNet pinned to the CPU co-runs with GPU-tuned AlexNet."""
    lenet = build("lenet")
    lenet_plan = cpu_only_plan(lenet, JETSON_AGX_XAVIER)
    alexnet_engine = EdgeNN("alexnet")
    return run_concurrent(
        JETSON_AGX_XAVIER,
        [(lenet, lenet_plan), (alexnet_engine.graph, alexnet_engine.plan)],
    )


def test_ext_multitenant_corun(benchmark, record_artifact):
    def compute():
        return {
            "both tuned (naive)": concurrent_edgenn(["lenet", "alexnet"]),
            "complementary (lenet->CPU)": complementary_corun(),
        }

    reports = run_once(benchmark, compute)
    rows = []
    for label, report in reports.items():
        small = min(report.tenants, key=lambda t: t.solo_s)
        rows.append((
            label,
            report.sequential_s * 1e3,
            report.makespan_s * 1e3,
            report.makespan_saving_pct,
            small.slowdown,
        ))
    record_artifact(
        "ext_multitenant",
        render_table(
            ["placement", "sequential_ms", "corun_ms", "saving %",
             "small tenant slowdown"],
            rows,
            title="Extension — LeNet + AlexNet co-running on one Jetson",
        ),
    )
    naive = reports["both tuned (naive)"]
    complementary = reports["complementary (lenet->CPU)"]
    # Co-running never exceeds sequential execution.
    for report in reports.values():
        assert report.makespan_s <= report.sequential_s * 1.001
    # Naive sharing starves the small tenant behind non-preemptive kernels;
    # complementary placement rescues it.
    naive_small = min(naive.tenants, key=lambda t: t.solo_s)
    comp_small = min(complementary.tenants, key=lambda t: t.solo_s)
    assert naive_small.slowdown > 10.0
    assert comp_small.slowdown < naive_small.slowdown / 5.0
    # And the big tenant is essentially undisturbed by the CPU tenant.
    comp_big = max(complementary.tenants, key=lambda t: t.solo_s)
    assert comp_big.slowdown < 1.3

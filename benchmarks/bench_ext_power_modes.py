"""Extension — Jetson nvpmodel power modes (paper §V-A mentions the 10W /
15W / 30W options; the evaluation uses full power).

Regenerates a latency/power/energy trade-off table across the three modes
and checks the physical orderings.
"""

from repro.core.engine import EdgeNN
from repro.eval.formatting import render_table
from repro.hardware.variants import jetson_power_mode

from conftest import run_once

MODES = ("10W", "15W", "30W")


def run_mode(mode: str):
    report = EdgeNN("squeezenet", jetson_power_mode(mode)).run()
    return report.total_s, report.energy.average_power_w, report.energy.energy_j


def test_ext_jetson_power_modes(benchmark, record_artifact):
    def compute():
        return {mode: run_mode(mode) for mode in MODES}

    results = run_once(benchmark, compute)
    record_artifact(
        "ext_power_modes",
        render_table(
            ["mode", "squeezenet_ms", "power_W", "energy_J"],
            [(m, t * 1e3, p, e) for m, (t, p, e) in results.items()],
            title="Extension — EdgeNN across Jetson power modes",
        ),
    )
    latencies = [results[m][0] for m in MODES]
    powers = [results[m][1] for m in MODES]
    assert latencies == sorted(latencies, reverse=True)  # 10W slowest
    assert powers == sorted(powers)                      # 10W frugalest
    # Every capped mode respects its budget.
    assert results["10W"][1] <= 10.0
    assert results["15W"][1] <= 15.0

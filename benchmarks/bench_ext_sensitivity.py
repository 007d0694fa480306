"""Extension — sensitivity of the headline conclusions to the fitted
hardware parameters (DESIGN.md calibration uncertainty).
"""

from repro.eval.formatting import render_table
from repro.eval.sensitivity import sweep

from conftest import run_once

PARAMETERS = ("dram_bandwidth", "copy_rate", "corun_efficiency")
SCALES = (0.5, 1.0, 2.0)


def test_ext_sensitivity_sweep(benchmark, record_artifact):
    def compute():
        return {p: sweep("alexnet", p, SCALES) for p in PARAMETERS}

    sweeps = run_once(benchmark, compute)
    rows = []
    for parameter, points in sweeps.items():
        for pt in points:
            rows.append((
                parameter, pt.scale,
                pt.edgenn_improvement_pct, pt.cpu_speedup,
                "yes" if pt.conclusions_hold else "NO",
            ))
    record_artifact(
        "ext_sensitivity",
        render_table(
            ["parameter", "scale", "edgenn improv %", "vs cpu",
             "conclusions hold"],
            rows,
            title="Extension — AlexNet conclusions under perturbed hardware "
                  "assumptions",
        ),
    )
    assert all(pt.conclusions_hold for pts in sweeps.values() for pt in pts)

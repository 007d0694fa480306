"""Extension — reduced-precision (FP16/INT8) inference on the Jetson.

Quantization is the standard edge deployment lever the paper leaves to
future work.  This bench sweeps the three datatypes across the paper's
networks and records the achieved speedups (never the ideal 2x/4x — launch
overheads and transfer latencies don't shrink with the data).
"""

from repro.core.engine import EdgeNN, EdgeNNConfig
from repro.eval.formatting import render_table
from repro.nn.precision import Precision

from conftest import run_once

NETWORKS = ("fcnn", "alexnet", "squeezenet")


def test_ext_precision_sweep(benchmark, record_artifact):
    def compute():
        out = {}
        for net in NETWORKS:
            out[net] = {
                p: EdgeNN(net, config=EdgeNNConfig(precision=p)).run().total_s
                for p in Precision
            }
        return out

    results = run_once(benchmark, compute)
    rows = []
    for net, by_precision in results.items():
        fp32 = by_precision[Precision.FP32]
        rows.append((
            net,
            fp32 * 1e3,
            by_precision[Precision.FP16] * 1e3,
            by_precision[Precision.INT8] * 1e3,
            fp32 / by_precision[Precision.INT8],
        ))
    record_artifact(
        "ext_precision",
        render_table(
            ["network", "fp32_ms", "fp16_ms", "int8_ms", "int8 speedup"],
            rows,
            title="Extension — EdgeNN latency vs inference datatype",
        ),
    )
    for net, by_precision in results.items():
        assert (by_precision[Precision.INT8]
                < by_precision[Precision.FP16]
                < by_precision[Precision.FP32])
        speedup = by_precision[Precision.FP32] / by_precision[Precision.INT8]
        assert 1.3 < speedup < 4.5

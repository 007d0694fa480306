"""Extension — batched inference economics.

The paper evaluates batch-1 latency (the AIoT setting).  This bench sweeps
the batch size and shows the two regimes the cost model predicts:

* weight-bound fc networks batch almost for free (the GEMV's weight
  traffic amortizes across the batch);
* work-bound conv networks scale nearly linearly (no free lunch).
"""

from repro.core.engine import EdgeNN, EdgeNNConfig
from repro.eval.formatting import render_table

from conftest import run_once

NETWORKS = ("fcnn", "lenet", "squeezenet")
BATCHES = (1, 4, 16)


def test_ext_batching(benchmark, record_artifact):
    def compute():
        out = {}
        for net in NETWORKS:
            out[net] = {
                b: EdgeNN(net, config=EdgeNNConfig(batch_size=b)).run().total_s
                for b in BATCHES
            }
        return out

    results = run_once(benchmark, compute)
    rows = []
    for net, by_batch in results.items():
        t1 = by_batch[1]
        rows.append((
            net,
            t1 * 1e3,
            by_batch[4] * 1e3 / 4,
            by_batch[16] * 1e3 / 16,
            t1 / (by_batch[16] / 16),
        ))
    record_artifact(
        "ext_batching",
        render_table(
            ["network", "b=1 ms/sample", "b=4 ms/sample", "b=16 ms/sample",
             "throughput gain @16"],
            rows,
            title="Extension — per-sample latency vs batch size",
        ),
    )
    for net, by_batch in results.items():
        # Per-sample cost never rises with batching...
        assert by_batch[16] / 16 <= by_batch[1] * 1.001
    # ...and the fc network amortizes far better than the conv network.
    fcnn_gain = results["fcnn"][1] / (results["fcnn"][16] / 16)
    squeeze_gain = results["squeezenet"][1] / (results["squeezenet"][16] / 16)
    assert fcnn_gain > 2 * squeeze_gain

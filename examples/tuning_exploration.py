"""Inside the fine-grained adaptive tuner (§IV-D).

Run with:  python examples/tuning_exploration.py [network]

Shows the tuner's internals for one network: per-layer CPU/GPU profiles,
the Eq. 4 analytic seed, how feedback reshapes the plan round by round,
and exports the final schedule as a Chrome trace
(open chrome://tracing or https://ui.perfetto.dev and load the file).
"""

import pathlib
import sys

from repro import Device, JETSON_AGX_XAVIER
from repro.core import partition
from repro.core.executor import HybridExecutor
from repro.core.plan import Assignment
from repro.core.tuner import AdaptiveTuner, TunerConfig
from repro.nn.models import build
from repro.obs.export import chrome_trace


def main(network: str = "alexnet") -> None:
    net = build(network)
    device = Device(JETSON_AGX_XAVIER)
    tuner = AdaptiveTuner(net, device, TunerConfig())
    result = tuner.tune()

    print(f"=== Tuning {network}: per-layer profiles and decisions ===\n")
    header = (f"{'layer':<18}{'class':<8}{'t_cpu(us)':>10}{'t_gpu(us)':>10}"
              f"{'p_op':>7}  final plan")
    print(header)
    print("-" * len(header))
    s = device.copy_rate()
    for name in net.topo_order():
        node = net.node(name)
        if node.layer.is_noop:
            continue
        t_cpu = tuner.profiles.cpu_time(name)
        t_gpu = tuner.profiles.gpu_time(name)
        p_op = partition.optimal_cpu_fraction(
            t_cpu, t_gpu, float(net.out_bytes(name)), s
        )
        lp = result.plan.layer_plan(name)
        placement = lp.assignment.value
        if lp.assignment is Assignment.SPLIT:
            placement += f" (p={lp.cpu_fraction:.2f})"
        print(f"{name:<18}{node.layer.kernel_class:<8}"
              f"{t_cpu * 1e6:>10.1f}{t_gpu * 1e6:>10.1f}{p_op:>7.2f}  {placement}")

    print("\nround-by-round latency (the adaptation trajectory):")
    for i, report in enumerate(result.rounds):
        label = "gpu profile" if i == 0 else f"round {i}"
        print(f"  {label:<12}: {report.total_s * 1e3:8.3f} ms")

    final = HybridExecutor(net, device, result.plan).run()
    out = pathlib.Path(f"{network}_schedule.trace.json")
    out.write_text(chrome_trace(kernel_trace=final.trace))
    print(f"\nfinal plan: {result.plan.describe()}")
    print(f"final latency: {final.total_s * 1e3:.3f} ms")
    print(f"chrome trace written to {out} "
          "(load it at https://ui.perfetto.dev)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "alexnet")

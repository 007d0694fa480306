"""Paper-style text rendering of experiment results."""

from __future__ import annotations

from typing import Iterable, List, Sequence

from . import experiments as ex


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width table; floats get 2 decimals."""
    str_rows: List[List[str]] = []
    for row in rows:
        str_rows.append(
            [f"{v:.2f}" if isinstance(v, float) else str(v) for v in row]
        )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_fig06(result: "ex.Fig6Result") -> str:
    table = render_table(
        ["network", "edgenn_ms", "vs jetson-cpu", "vs mobile-cpu", "vs rpi4"],
        [
            (r.network, r.edgenn_ms, r.jetson_cpu_speedup,
             r.mobile_cpu_speedup, r.raspberry_pi_speedup)
            for r in result.rows
        ],
        title="Fig 6 — EdgeNN speedup over edge CPUs "
              "(paper avgs: 3.97x / 3.12x / 8.80x)",
    )
    return (
        f"{table}\n"
        f"avg: {result.mean_jetson_cpu:.2f}x / "
        f"{result.mean_mobile_cpu:.2f}x / {result.mean_raspberry_pi:.2f}x"
    )


def format_efficiency(result: "ex.EfficiencyResult", fig: str, note: str) -> str:
    table = render_table(
        ["network", "perf/power ratio", "perf/price ratio"],
        [(r.network, r.power_ratio, r.price_ratio) for r in result.rows],
        title=f"{fig} — EdgeNN vs {result.comparison} ({note})",
    )
    return (
        f"{table}\n"
        f"geomean power={result.geomean_power:.2f}x "
        f"price={result.geomean_price:.2f}x (arith {result.mean_price:.2f})"
    )


def format_fig08(result: "ex.Fig8Result") -> str:
    table = render_table(
        ["network", "baseline_ms", "memory %", "hybrid %", "edgenn %"],
        [
            (r.network, r.baseline_ms, r.memory_improvement_pct,
             r.hybrid_improvement_pct, r.edgenn_improvement_pct)
            for r in result.rows
        ],
        title="Fig 8 — improvement over the original GPU program "
              "(paper avgs: 9.93% / 10.76% / 22.02%)",
    )
    return (
        f"{table}\navg: memory={result.mean_memory:.2f}% "
        f"hybrid={result.mean_hybrid:.2f}% edgenn={result.mean_edgenn:.2f}%"
    )


def format_fig09(result: "ex.Fig9Result") -> str:
    table = render_table(
        ["network", "integrated %", "discrete %"],
        [(r.network, r.integrated_share_pct, r.discrete_share_pct)
         for r in result.rows],
        title="Fig 9 — memory-copy time share "
              "(paper avgs: 11.46% / 23.34%, discrete max 36%)",
    )
    return (
        f"{table}\navg: integrated={result.mean_integrated:.2f}% "
        f"discrete={result.mean_discrete:.2f}% "
        f"(discrete max {result.max_discrete:.2f}%)"
    )


def format_layer_times(result: "ex.LayerTimesResult", title: str) -> str:
    return render_table(
        ["layer", "class", "without_ms", "with_ms", "improvement %"],
        [
            (r.layer, r.kernel_class, r.without_ms, r.with_ms, r.improvement_pct)
            for r in result.rows
        ],
        title=title,
    )


def format_table1(result: "ex.Table1Result") -> str:
    class_label = {"conv": "conv", "dense": "fc"}
    return render_table(
        ["network", "layer type", "min %", "max %", "avg %"],
        [
            (c.network, class_label[c.kernel_class], c.min_pct, c.max_pct, c.avg_pct)
            for c in result.cells
        ],
        title="Table I — hybrid execution with zero-copy: per-class "
              "improvement (paper: AlexNet conv=0, fc avg 53.81%)",
    )


def format_fig12(result: "ex.Fig12Result") -> str:
    table = render_table(
        ["network", "edgenn_ms", "cloud compute_ms", "cloud total_ms", "winner"],
        [
            (r.network, r.edgenn_ms, r.cloud_computing_ms, r.cloud_total_ms,
             "edgenn" if r.edgenn_wins else "cloud")
            for r in result.rows
        ],
        title="Fig 12 — EdgeNN vs cloud offload (paper: avg 20.28% faster; "
              "VGG loses)",
    )
    return f"{table}\navg improvement vs cloud: {result.mean_improvement:.2f}%"


def format_sec5f(result: "ex.Sec5FResult") -> str:
    return render_table(
        ["network", "inter-kernel only %", "edgenn %"],
        [
            (r.network, r.interkernel_improvement_pct, r.edgenn_improvement_pct)
            for r in result.rows
        ],
        title="Sec V-F — inter-kernel-only co-running vs EdgeNN "
              "(paper: +8.27% SqueezeNet, ~0 elsewhere)",
    )


def format_sec5b2(result: "ex.UtilizationResult") -> str:
    table = render_table(
        ["network", "cpu util %", "gpu util %", "power W"],
        [(r.network, r.cpu_util_pct, r.gpu_util_pct, r.power_w)
         for r in result.rows],
        title="Sec V-B2 — EdgeNN utilization/power on Jetson "
              "(paper: avg CPU 75% GPU 62%; ResNet 5.5 W, SqueezeNet 7.9 W)",
    )
    return (
        f"{table}\navg util: cpu={result.mean_cpu_util:.1f}% "
        f"gpu={result.mean_gpu_util:.1f}%"
    )


def format_serving(report) -> str:
    """Tabular rendering of a :class:`~repro.serving.report.ServingReport`
    (aggregate line plus one row per tenant)."""
    rows = [
        (
            t.name, t.weight, t.offered, t.served, t.shed,
            t.shed_rate * 100.0,
            t.latency.p50_s * 1e3, t.latency.p95_s * 1e3,
            t.latency.p99_s * 1e3, t.mean_batch_size,
        )
        for t in report.tenants
    ]
    table = render_table(
        ["tenant", "weight", "offered", "served", "shed", "shed %",
         "p50 ms", "p95 ms", "p99 ms", "mean batch"],
        rows,
        title=f"Serving — {report.device}, {report.duration_s:g}s offered "
              f"(makespan {report.makespan_s:.2f}s)",
    )
    return (
        f"{table}\n"
        f"throughput={report.throughput_rps:.2f} req/s "
        f"shed={report.shed_rate:.1%} "
        f"queue mean/max={report.queue_depth_mean:.2f}/"
        f"{report.queue_depth_max} "
        f"util cpu={report.cpu_utilization:.0%} "
        f"gpu={report.gpu_utilization:.0%}"
    )


def format_serving_sweep(rows) -> str:
    """Render an arrival-rate sweep: rows of
    ``(rate, ServingReport)`` pairs, one line per rate."""
    return render_table(
        ["rate req/s", "throughput", "shed %", "p50 ms", "p95 ms",
         "p99 ms", "mean batch", "gpu util %"],
        [
            (
                rate, r.throughput_rps, r.shed_rate * 100.0,
                r.latency.p50_s * 1e3, r.latency.p95_s * 1e3,
                r.latency.p99_s * 1e3, r.mean_batch_size,
                r.gpu_utilization * 100.0,
            )
            for rate, r in rows
        ],
        title="Serving — arrival-rate sweep",
    )

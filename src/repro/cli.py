"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro devices                      # catalog + variants
    python -m repro networks                     # benchmark suite
    python -m repro run alexnet                  # tune + run one network
    python -m repro run alexnet --no-hybrid      # ablation arms
    python -m repro compare lenet                # vs every baseline
    python -m repro experiments                  # regenerate all artifacts
    python -m repro experiments fig06 fig09      # a subset
    python -m repro export results/              # CSV+JSON for plotting
    python -m repro plan compile alexnet -o alexnet.plan.json
    python -m repro plan show alexnet.plan.json  # inspect a saved plan
    python -m repro plan run alexnet.plan.json   # execute it (no re-tuning)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import units
from .baselines import run_cloud, run_cpu_only, run_gpu_only
from .core.engine import EdgeNN, EdgeNNConfig
from .core.tuner import TuningObjective
from .nn.precision import Precision
from .errors import ReproError
from .hardware.specs import (
    DEVICE_CATALOG,
    DIMENSITY_8100,
    JETSON_AGX_XAVIER,
    RASPBERRY_PI_4,
    RTX_2080TI_HOST,
)
from .hardware.variants import VARIANT_CATALOG
from .nn.models import MODEL_BUILDERS, benchmark_names, build


def _all_devices():
    catalog = dict(DEVICE_CATALOG)
    catalog.update(VARIANT_CATALOG)
    return catalog


def cmd_devices(_args) -> int:
    print(f"{'name':<24}{'type':<14}{'price':>8}  notes")
    for name, spec in _all_devices().items():
        if spec.is_integrated:
            kind = "integrated"
        elif spec.has_gpu:
            kind = "discrete"
        else:
            kind = "cpu-only"
        bw = spec.memory.bandwidth / units.GB
        print(f"{name:<24}{kind:<14}{spec.price_usd:>7.0f}$  "
              f"{spec.cpu.cores}C CPU"
              + (f" + {spec.gpu.cores}-core GPU" if spec.has_gpu else "")
              + f", {bw:.0f} GB/s DRAM")
    return 0


def cmd_networks(_args) -> int:
    print(f"{'network':<14}{'layers':>7}{'GFLOPs':>9}{'params(MB)':>12}  suite")
    for name in MODEL_BUILDERS:
        net = build(name)
        suite = "paper" if name in benchmark_names() else "extension"
        print(f"{name:<14}{len(net):>7}{net.total_flops() / units.GIGA:>9.2f}"
              f"{net.total_param_bytes() / units.MB:>12.1f}  {suite}")
    return 0


def _config_from(args) -> EdgeNNConfig:
    return EdgeNNConfig(
        use_memory_management=not args.no_memory,
        use_hybrid_execution=not args.no_hybrid,
        objective=TuningObjective(args.objective),
        precision=Precision(getattr(args, "precision", "fp32")),
        batch_size=getattr(args, "batch", 1),
    )


def _device_from(args):
    name = getattr(args, "device", None) or JETSON_AGX_XAVIER.name
    catalog = _all_devices()
    if name not in catalog:
        raise ReproError(
            f"unknown device {name!r}; see `python -m repro devices`"
        )
    return catalog[name]


def _configure_store(args) -> None:
    """Point the process-wide plan cache at ``--store DIR``: plans tuned
    in any earlier process are reloaded from the store (zero tuner
    rounds) and plans tuned here are written back for the next run."""
    if args.store:
        from .core.plan_cache import configure_default_plan_cache

        configure_default_plan_cache(store_dir=args.store)


def cmd_run(args) -> int:
    _configure_store(args)
    engine = EdgeNN(args.network, _device_from(args), _config_from(args))
    tuning = engine.tune()
    report = engine.run()
    print(f"network   : {args.network} on {engine.device.name}")
    print(f"latency   : {report.total_s * 1e3:.3f} ms")
    print(f"copy share: {report.copy_share:.1%}")
    print(f"power     : {report.energy.average_power_w:.2f} W "
          f"({report.energy.energy_j:.3f} J/inference)")
    print(f"plan      : {engine.plan.describe()}")
    print(f"tuning    : converged after {tuning.converged_after} rounds"
          + (" (reloaded from artifact, 0 run here)"
             if tuning.source == "artifact" else ""))
    if args.trace:
        from .obs.export import chrome_trace

        with open(args.trace, "w") as f:
            f.write(chrome_trace(kernel_trace=report.trace))
        print(f"trace     : {args.trace}")
    return 0


def cmd_compare(args) -> int:
    network = args.network
    engine = EdgeNN(network, config=_config_from(args))
    edgenn = engine.run()
    rows = [
        ("edgenn (jetson)", edgenn.total_s, edgenn.energy.average_power_w),
    ]
    gpu = run_gpu_only(network, JETSON_AGX_XAVIER)
    rows.append(("gpu-only (jetson)", gpu.total_s, gpu.energy.average_power_w))
    for label, spec in (
        ("cpu-only (jetson)", JETSON_AGX_XAVIER),
        ("cpu-only (phone)", DIMENSITY_8100),
        ("cpu-only (rpi4)", RASPBERRY_PI_4),
    ):
        r = run_cpu_only(network, spec)
        rows.append((label, r.total_s, r.energy.average_power_w))
    dgpu = run_gpu_only(network, RTX_2080TI_HOST)
    rows.append(("2080ti (direct)", dgpu.total_s, dgpu.energy.average_power_w))
    cloud = run_cloud(network)
    rows.append(("cloud (total)", cloud.total_s, float("nan")))
    print(f"{'method':<20}{'latency_ms':>12}{'power_W':>10}{'vs edgenn':>11}")
    for label, seconds, power in rows:
        rel = seconds / edgenn.total_s
        print(f"{label:<20}{seconds * 1e3:>12.3f}{power:>10.2f}{rel:>10.2f}x")
    return 0


def cmd_breakdown(args) -> int:
    from .eval.breakdown import format_breakdown, split_candidates

    device = _device_from(args)
    print(format_breakdown(args.network, device))
    candidates = split_candidates(args.network, device)
    if candidates:
        print(f"\nsplit candidates (t_cpu/t_gpu <= 3): {', '.join(candidates)}")
    else:
        print("\nno split candidates at this scale")
    return 0


def cmd_advise(args) -> int:
    from .hardware.advisor import choose_power_mode

    rec = choose_power_mode(args.network, args.slo_ms / 1e3)
    print(rec.describe())
    return 0 if rec.feasible else 1


def cmd_trace(args) -> int:
    from .obs import Observability
    from .obs.export import chrome_trace

    obs = Observability.on()
    engine = EdgeNN(
        args.network, _device_from(args), _config_from(args), obs=obs
    )
    engine.tune(force=True)   # bypass the shared cache: trace the tuning
    report = engine.run()
    print(f"network   : {args.network} on {engine.device.name} "
          f"({report.total_s * 1e3:.3f} ms)")
    print()
    print(obs.tracer.render(max_depth=args.depth))
    print()
    print(obs.provenance.summary())
    if args.out:
        with open(args.out, "w") as f:
            f.write(chrome_trace(kernel_trace=report.trace))
        print(f"\ntrace     : {args.out} (load in ui.perfetto.dev)")
    return 0


def cmd_metrics(args) -> int:
    from .obs import Observability
    from .obs.export import metrics_json, prometheus_text

    obs = Observability.on()
    engine = EdgeNN(
        args.network, _device_from(args), _config_from(args), obs=obs
    )
    engine.tune(force=True)
    engine.run()
    if args.format == "json":
        print(metrics_json(obs.metrics, indent=2))
    else:
        print(prometheus_text(obs.metrics), end="")
    return 0


def cmd_serve(args) -> int:
    from .serving.batcher import BatchPolicy
    from .serving.simulator import (
        ServingConfig,
        ServingSimulator,
        TenantSpec,
        poisson_tenant,
    )
    from .workloads.arrivals import ClosedLoopArrivals

    scenario = None
    if args.faults:
        from .faults import load_scenario

        scenario = load_scenario(args.faults)
    policy = BatchPolicy(
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        max_queue_depth=args.queue_depth,
        deadline_s=(
            args.deadline_ms / 1e3 if args.deadline_ms else None
        ),
    )
    from .obs.timeline import SloObjective

    slos = tuple(SloObjective.parse(text) for text in args.slo)
    config = ServingConfig(
        policy=policy,
        precision=Precision(args.precision),
        cold_start=args.cold_start,
        seed=args.seed,
        faults=scenario,
        resilience=not args.no_resilience,
        timeline_window_s=(
            args.timeline_window if (args.timeline_out or slos) else 0.0
        ),
        slos=slos,
    )
    tenants = []
    if args.tenant:
        # --tenant network[:rate[:weight]], repeatable.
        for i, spec in enumerate(args.tenant):
            parts = spec.split(":")
            network = parts[0]
            if network not in MODEL_BUILDERS:
                raise ReproError(
                    f"unknown network {network!r} in --tenant {spec!r}"
                )
            try:
                rate = float(parts[1]) if len(parts) > 1 else args.arrival_rate
                weight = float(parts[2]) if len(parts) > 2 else 1.0
            except ValueError:
                raise ReproError(
                    f"--tenant expects NET[:RATE[:WEIGHT]] with numeric "
                    f"rate/weight, got {spec!r}"
                ) from None
            tenants.append(poisson_tenant(
                network, rate, args.duration, seed=args.seed + i,
                weight=weight, name=f"{network}#{i}",
            ))
    elif args.closed_loop:
        tenants.append(TenantSpec(
            network=args.network,
            arrival=ClosedLoopArrivals(
                clients=args.closed_loop,
                think_s=args.think_ms / 1e3,
                duration_s=args.duration,
            ),
        ))
    else:
        tenants.append(poisson_tenant(
            args.network, args.arrival_rate, args.duration, seed=args.seed,
        ))
    from .obs import Observability
    from .obs.export import chrome_trace, write_obs_artifacts

    _configure_store(args)
    obs = Observability.on() if args.obs_out else Observability.off()
    if args.obs_out:
        # A warm plan cache would skip tuning entirely and leave the
        # provenance log empty; an observed run re-tunes so every
        # placement/partition decision is on record.
        from .core.plan_cache import clear_plan_cache

        clear_plan_cache()
    simulator = ServingSimulator(
        _device_from(args), tenants, config, obs=obs
    )
    report = simulator.run()
    print(report.describe())
    if scenario is not None:
        events = len(simulator.injector.events) if simulator.injector else 0
        print(
            f"faults    : scenario {scenario.name!r}, {events} events, "
            f"resilience {'on' if config.resilience else 'off'}"
        )
        print(f"fault digest : {simulator.injector.timeline_digest()}")
    print(f"report digest: {report.digest()}")
    if simulator.timeline is not None:
        if args.timeline_out:
            path = simulator.timeline.save(args.timeline_out)
            print(f"timeline  : {path}")
        print(f"timeline digest: {simulator.timeline.digest()}")
    if simulator.slo_report is not None:
        print(simulator.slo_report.render())
    if args.trace:
        with open(args.trace, "w") as f:
            f.write(chrome_trace(kernel_trace=simulator.trace))
        print(f"trace     : {args.trace}")
    if args.obs_out:
        names = write_obs_artifacts(
            args.obs_out, obs, kernel_trace=simulator.trace,
            table=simulator.table,
            tenants=[t.tenant_name for t in tenants],
        )
        print(f"obs       : {args.obs_out}/ ({', '.join(names)})")
    return 0


def cmd_cluster(args) -> int:
    from .cluster import (
        AutoscalerPolicy,
        ClusterConfig,
        ClusterSimulator,
        ClusterTenant,
        DeviceMix,
    )
    from .serving.batcher import BatchPolicy
    from .workloads.arrivals import (
        DiurnalPoissonArrivals,
        FlashCrowdArrivals,
        PoissonArrivals,
    )

    def arrival_for(rate: float, index: int):
        seed = args.seed + index
        if args.arrivals == "diurnal":
            # One full sinusoidal cycle over the run, pools offset in
            # phase so the fleet sees a rolling (not synchronized) peak.
            return DiurnalPoissonArrivals(
                rate, args.duration, period_s=args.duration,
                amplitude=0.5, phase=index * 2.0, seed=seed,
            )
        if args.arrivals == "flash":
            return FlashCrowdArrivals(
                rate, args.duration,
                spike_start_s=args.duration * 0.4,
                spike_duration_s=args.duration * 0.1,
                spike_factor=4.0, seed=seed,
            )
        return PoissonArrivals(rate, args.duration, seed=seed)

    models = args.model or ["squeezenet"]
    tenants = []
    for index, token in enumerate(models):
        network, _, rate_text = token.partition(":")
        if network not in MODEL_BUILDERS:
            raise ReproError(
                f"unknown network {network!r} in --model {token!r}"
            )
        try:
            rate = float(rate_text) if rate_text else args.rate
        except ValueError:
            raise ReproError(
                f"--model expects NET[:RATE] with a numeric rate, "
                f"got {token!r}"
            ) from None
        tenants.append(
            ClusterTenant(network, arrival_for(rate, index))
        )
    scenario = None
    if args.faults:
        from .faults import load_scenario, scale_to_horizon

        scenario = scale_to_horizon(
            load_scenario(args.faults), args.duration
        )
    _configure_store(args)
    mix = DeviceMix.parse(
        args.devices, throttled_share=args.throttled_share
    )
    config = ClusterConfig(
        router=args.router,
        policy=BatchPolicy(
            max_batch_size=args.max_batch,
            max_wait_s=0.0,
            max_queue_depth=args.queue_depth,
            deadline_s=(
                args.deadline_ms / 1e3 if args.deadline_ms else None
            ),
        ),
        seed=args.seed,
        objective=args.objective,
        affinity_slack=args.affinity_slack,
        autoscaler=AutoscalerPolicy() if args.autoscale else None,
        faults=scenario,
        fault_share=args.fault_share,
        fault_stagger_s=args.duration * 0.25 if scenario else 0.0,
        timeline_window_s=(
            args.timeline_window if args.timeline_out else 0.0
        ),
    )
    simulator = ClusterSimulator(tenants, mix, args.replicas, config)
    report = simulator.run()
    print(report.describe())
    print(f"report digest: {report.digest()}")
    print(f"plan cache: {report.extra['plan_cache_hits']:.0f} hits, "
          f"{report.extra['plan_cache_misses']:.0f} misses")
    if simulator.timeline is not None:
        path = simulator.timeline.save(args.timeline_out)
        print(f"timeline  : {path}")
        print(f"timeline digest: {simulator.timeline.digest()}")
    if args.out:
        with open(args.out, "w") as f:
            f.write(report.to_json(include_replicas=True))
        print(f"report    : {args.out}")
    return 0


def cmd_faults_list(_args) -> int:
    from .faults import SCENARIO_CATALOG

    print(f"{'scenario':<18} {'description'}")
    for name in sorted(SCENARIO_CATALOG):
        scenario = SCENARIO_CATALOG[name]
        print(f"{name:<18} {scenario.description}")
    print(
        "\nuse `repro serve --faults NAME` to inject one, "
        "`repro faults show NAME` for details"
    )
    return 0


def cmd_faults_show(args) -> int:
    from .faults import load_scenario

    scenario = load_scenario(args.scenario)
    if args.json:
        print(scenario.to_json(indent=2))
    else:
        print(scenario.describe())
    return 0


def _csv(value: Optional[str]) -> List[str]:
    if not value:
        return []
    return [item.strip() for item in value.split(",") if item.strip()]


def cmd_tune_fleet(args) -> int:
    import json

    from .faults import load_scenario
    from .faults.resilience import RetryPolicy
    from .tuning import DEFAULT_BATCH_SIZES, fleet_catalog, run_fleet

    scenario = load_scenario(args.faults) if args.faults else None
    networks = _csv(args.networks) or None
    devices = _csv(args.devices) or None
    batches = tuple(int(b) for b in _csv(args.batches)) or DEFAULT_BATCH_SIZES
    jobs = fleet_catalog(
        networks, devices, batches, hot=tuple(_csv(args.hot))
    )
    policy = RetryPolicy(
        max_attempts=args.max_attempts,
        base_delay_s=0.01,
        max_delay_s=0.25,
        seed=args.seed,
    )
    progress = None if args.json else print
    report = run_fleet(
        args.store,
        jobs,
        workers=args.workers,
        seed=args.seed,
        scenario=scenario,
        retry_policy=policy,
        lease_timeout_s=args.lease_timeout,
        progress=progress,
    )
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report.to_dict(), f, indent=2)
            f.write("\n")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    if report.poisoned and not args.allow_poison:
        print(
            f"error: {report.poisoned} job(s) poisoned after "
            f"{args.max_attempts} attempts each; the store is incomplete "
            f"(re-run to retry, or pass --allow-poison to accept)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_timeline_show(args) -> int:
    from .obs.timeline import TimelineArtifact

    artifact = TimelineArtifact.load(args.artifact)
    metrics = tuple(args.metric) or None
    print(artifact.describe(metrics, width=args.width))
    print(f"timeline digest: {artifact.digest()}")
    return 0


def cmd_timeline_diff(args) -> int:
    import json as _json

    from .obs.timeline import (
        DiffTolerances, TimelineArtifact, diff_timelines,
    )

    baseline = TimelineArtifact.load(args.baseline)
    current = TimelineArtifact.load(args.current)
    tolerances = DiffTolerances(
        max_goodput_drop=args.max_goodput_drop,
        max_p99_increase=args.max_p99_increase,
        max_rate_increase=args.max_rate_increase,
    )
    diff = diff_timelines(baseline, current, tolerances)
    if args.json:
        print(_json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.render())
    return 1 if diff.regressed else 0


def cmd_timeline_slo(args) -> int:
    import json as _json

    from .obs.timeline import (
        BurnRateRule, SloMonitor, SloObjective, TimelineArtifact,
    )

    artifact = TimelineArtifact.load(args.artifact)
    monitor = SloMonitor(
        [SloObjective.parse(text) for text in args.slo],
        BurnRateRule(
            short_windows=args.short,
            long_windows=args.long,
            factor=args.factor,
        ),
    )
    report = monitor.evaluate(artifact)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 1 if report.firing else 0


def cmd_plan_compile(args) -> int:
    from .compile import compile_plan

    compiled = compile_plan(
        args.network, _device_from(args), _config_from(args)
    )
    artifact = compiled.artifact
    print(artifact.describe())
    if args.out:
        path = artifact.save(args.out)
        print(f"\nsaved     : {path}")
    return 0


def cmd_plan_show(args) -> int:
    from .compile import PlanArtifact

    artifact = PlanArtifact.load(args.artifact)
    if args.json:
        print(artifact.to_json(indent=2))
        return 0
    print(artifact.describe())
    if args.layers:
        print("\nlayer placements:")
        for lp in artifact.plan.layers.values():
            frac = (f"  cpu_fraction={lp.cpu_fraction:.3f}"
                    if lp.assignment.value == "split" else "")
            print(f"  {lp.layer:<14}{lp.assignment.value}{frac}")
    return 0


def cmd_plan_run(args) -> int:
    from .compile import CompiledPlan, PlanArtifact

    artifact = PlanArtifact.load(args.artifact)
    compiled = CompiledPlan.from_artifact(artifact)
    report = compiled.execute()
    print(f"network   : {artifact.key.network} on {artifact.key.device} "
          f"(artifact v{artifact.version}, no tuning run)")
    print(f"latency   : {report.total_s * 1e3:.3f} ms")
    print(f"copy share: {report.copy_share:.1%}")
    print(f"power     : {report.energy.average_power_w:.2f} W "
          f"({report.energy.energy_j:.3f} J/inference)")
    print(f"plan      : {compiled.plan.describe()}")
    if args.report_json:
        import json

        with open(args.report_json, "w") as f:
            json.dump(report.to_dict(), f, indent=1)
        print(f"report    : {args.report_json}")
    return 0


def cmd_analyze(args) -> int:
    from .analysis import Baseline, analyze_paths, find_default_baseline

    root = _repo_root()
    paths = args.paths or [str(root / "src")]
    baseline = None
    if args.baseline:
        import pathlib

        if pathlib.Path(args.baseline).is_file() or not args.write_baseline:
            baseline = Baseline.load(args.baseline)
    elif not args.no_baseline:
        default = find_default_baseline(root)
        if default is not None:
            baseline = Baseline.load(default)
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    report = analyze_paths(
        paths,
        rules=rules,
        baseline=baseline,
        include_catalogs=not args.no_catalogs,
        root=root,
        graph_out=args.graph,
    )
    if args.graph:
        # stderr: --format json consumers parse stdout as one document.
        print(f"call graph written to {args.graph}", file=sys.stderr)
    if args.write_baseline:
        all_findings = report.new + report.baselined
        target = args.baseline or str(root / "analysis-baseline.json")
        Baseline.from_findings(all_findings).save(target)
        print(
            f"wrote {len(all_findings)} finding(s) to {target}; "
            f"fill in the justifications"
        )
        return 0
    if args.format == "json":
        print(report.to_json(indent=2))
    else:
        print(report.render_text())
    return 0 if report.clean else 1


def cmd_check_plan(args) -> int:
    from .analysis import verify_artifact_file

    failed = []
    results = []
    for artifact_path in args.artifacts:
        findings = verify_artifact_file(artifact_path)
        errors = [f for f in findings if f.severity == "error"]
        if args.format == "json":
            results.append({
                "path": str(artifact_path),
                "ok": not errors,
                "findings": [f.to_dict() for f in findings],
            })
        else:
            for finding in findings:
                print(finding.render())
            status = "FAIL" if errors else "OK"
            print(f"{artifact_path}: {status} ({len(findings)} finding(s))")
        if errors:
            failed.append(str(artifact_path))
    if args.format == "json":
        import json

        print(json.dumps({"clean": not failed, "files": results}, indent=2))
    if failed:
        raise ReproError(
            f"artifact verification failed for {len(failed)} file(s): "
            f"{', '.join(failed)}"
        )
    return 0


def _repo_root():
    import pathlib

    # src/repro/cli.py -> repo root is two levels above the package.
    return pathlib.Path(__file__).resolve().parents[2]


def cmd_experiments(args) -> int:
    from .eval import experiments as ex
    from .eval import formatting as fmt

    sections = {
        "fig06": lambda: fmt.format_fig06(ex.fig06_edge_cpu_speedups()),
        "fig07": lambda: fmt.format_efficiency(
            ex.fig07_efficiency_vs_edge_cpu(), "Fig 7",
            "paper: power geomean 29.14x, price geomean 0.61"),
        "fig08": lambda: fmt.format_fig08(ex.fig08_ablation()),
        "fig09": lambda: fmt.format_fig09(ex.fig09_memcpy_share()),
        "fig10": lambda: fmt.format_layer_times(
            ex.fig10_alexnet_zero_copy_layers(),
            "Fig 10 — AlexNet layers, zero-copy off vs on"),
        "fig11": lambda: fmt.format_layer_times(
            ex.fig11_alexnet_hybrid_layers(),
            "Fig 11 — AlexNet layers with hybrid execution"),
        "table1": lambda: fmt.format_table1(ex.table1_layer_improvements()),
        "fig12": lambda: fmt.format_fig12(ex.fig12_cloud_comparison()),
        "fig13": lambda: fmt.format_efficiency(
            ex.fig13_efficiency_vs_discrete_gpu(), "Fig 13",
            "paper: power 5.70x, price 1.25x"),
        "sec5f": lambda: fmt.format_sec5f(ex.sec5f_interkernel_only()),
        "sec5b2": lambda: fmt.format_sec5b2(ex.sec5b2_utilization()),
    }
    requested = args.ids or list(sections)
    unknown = [i for i in requested if i not in sections]
    if unknown:
        raise ReproError(f"unknown experiment ids {unknown}; "
                         f"available: {sorted(sections)}")
    for artifact_id in requested:
        print(sections[artifact_id]())
        print()
    return 0


def cmd_export(args) -> int:
    from .eval.export import write_all

    written = write_all(args.directory)
    print(f"wrote {len(written)} artifacts (csv+json) to {args.directory}:")
    for artifact_id in written:
        print(f"  {artifact_id}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EdgeNN reproduction (ICDE 2023): efficient NN "
                    "inference for CPU-GPU integrated edge devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list simulated platforms").set_defaults(
        func=cmd_devices
    )
    sub.add_parser("networks", help="list benchmark networks").set_defaults(
        func=cmd_networks
    )

    def add_engine_flags(p):
        p.add_argument("--no-memory", action="store_true",
                       help="disable semantic-aware memory management")
        p.add_argument("--no-hybrid", action="store_true",
                       help="disable CPU-GPU hybrid execution")
        p.add_argument("--objective", default="latency",
                       choices=[o.value for o in TuningObjective],
                       help="tuning objective (default: latency)")
        p.add_argument("--precision", default="fp32",
                       choices=[p_.value for p_ in Precision],
                       help="inference datatype (default: fp32)")
        p.add_argument("--batch", type=int, default=1,
                       help="frames per inference (default: 1)")

    run = sub.add_parser("run", help="tune and run one network")
    run.add_argument("network", choices=list(MODEL_BUILDERS))
    run.add_argument("--device", default=None,
                     help="integrated device name (default jetson)")
    run.add_argument("--trace", default=None,
                     help="write a Chrome trace of the schedule here")
    run.add_argument("--store", default=None, metavar="DIR",
                     help="read/write plans through the content-addressed "
                          "plan store in DIR (created on first write; "
                          "see `repro tune-fleet`)")
    add_engine_flags(run)
    run.set_defaults(func=cmd_run)

    plan = sub.add_parser(
        "plan", help="compile, inspect, and execute serialized plan artifacts"
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)

    plan_compile = plan_sub.add_parser(
        "compile", help="run the compilation pipeline and save the artifact"
    )
    plan_compile.add_argument("network", choices=list(MODEL_BUILDERS))
    plan_compile.add_argument("--device", default=None,
                              help="integrated device name (default jetson)")
    plan_compile.add_argument("-o", "--out", default=None, metavar="FILE",
                              help="write the artifact JSON here")
    add_engine_flags(plan_compile)
    plan_compile.set_defaults(func=cmd_plan_compile)

    plan_show = plan_sub.add_parser(
        "show", help="describe a saved plan artifact"
    )
    plan_show.add_argument("artifact", help="path to a plan-artifact JSON")
    plan_show.add_argument("--json", action="store_true",
                           help="dump the full artifact JSON")
    plan_show.add_argument("--layers", action="store_true",
                           help="list every layer placement")
    plan_show.set_defaults(func=cmd_plan_show)

    plan_run = plan_sub.add_parser(
        "run", help="execute a saved plan artifact (no tuning)"
    )
    plan_run.add_argument("artifact", help="path to a plan-artifact JSON")
    plan_run.add_argument("--report-json", default=None, metavar="FILE",
                          help="write the full inference report as JSON")
    plan_run.set_defaults(func=cmd_plan_run)

    compare = sub.add_parser("compare", help="compare against all baselines")
    compare.add_argument("network", choices=list(MODEL_BUILDERS))
    add_engine_flags(compare)
    compare.set_defaults(func=cmd_compare)

    breakdown = sub.add_parser(
        "breakdown", help="roofline boundness analysis of one network"
    )
    breakdown.add_argument("network", choices=list(MODEL_BUILDERS))
    breakdown.add_argument("--device", default=None)
    breakdown.set_defaults(func=cmd_breakdown)

    advise = sub.add_parser(
        "advise", help="lowest Jetson power mode meeting a latency SLO"
    )
    advise.add_argument("network", choices=list(MODEL_BUILDERS))
    advise.add_argument("--slo-ms", type=float, required=True,
                        help="latency target in milliseconds")
    advise.set_defaults(func=cmd_advise)

    serve = sub.add_parser(
        "serve", help="simulate a request-serving run (queue + batching)"
    )
    serve.add_argument("--network", default="alexnet",
                       choices=list(MODEL_BUILDERS),
                       help="model to serve (default alexnet)")
    serve.add_argument("--device", default=None,
                       help="integrated device name (default jetson)")
    serve.add_argument("--arrival-rate", type=float, default=10.0,
                       help="open-loop Poisson arrival rate, req/s")
    serve.add_argument("--duration", type=float, default=10.0,
                       help="admission horizon in virtual seconds")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="dynamic batcher max batch size (default 8)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="max batching wait for the oldest request")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="bounded queue depth before shedding")
    serve.add_argument("--closed-loop", type=int, default=0, metavar="N",
                       help="closed loop with N clients instead of Poisson")
    serve.add_argument("--think-ms", type=float, default=100.0,
                       help="closed-loop client think time")
    serve.add_argument("--tenant", action="append", default=[],
                       metavar="NET[:RATE[:WEIGHT]]",
                       help="add a tenant (repeatable; overrides --network)")
    serve.add_argument("--precision", default="fp32",
                       choices=[p_.value for p_ in Precision])
    serve.add_argument("--cold-start", action="store_true",
                       help="charge cold-start staging to the first batch")
    serve.add_argument("--seed", type=int, default=0,
                       help="arrival-stream seed (runs replay exactly)")
    serve.add_argument("--trace", default=None,
                       help="write a Chrome trace of the batch schedule")
    serve.add_argument("--obs-out", default=None, metavar="DIR",
                       help="enable full observability and write trace/"
                            "metrics/provenance artifacts to DIR")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="read/write plans through the plan store in "
                            "DIR (created on first write): a later run, or "
                            "a `repro tune-fleet` store, replays them with "
                            "zero tuner rounds")
    serve.add_argument("--faults", default=None, metavar="SCENARIO",
                       help="inject faults: a built-in scenario name "
                            "(see `repro faults list`) or a scenario "
                            "JSON file")
    serve.add_argument("--no-resilience", action="store_true",
                       help="disable the resilience layer (retries, "
                            "breaker, degradation, payload validation) "
                            "to see what a naive service suffers")
    serve.add_argument("--deadline-ms", type=float, default=0.0,
                       help="per-request deadline; requests still queued "
                            "(or completing) past it are abandoned as "
                            "timed out (0 disables)")
    serve.add_argument("--timeline-out", default=None, metavar="FILE",
                       help="record a windowed telemetry timeline and "
                            "save the artifact JSON to FILE")
    serve.add_argument("--timeline-window", type=float, default=1.0,
                       metavar="SECONDS",
                       help="timeline window width in virtual seconds "
                            "(default 1.0)")
    serve.add_argument("--slo", action="append", default=[],
                       metavar="EXPR",
                       help="declare an SLO objective such as "
                            "'goodput_ratio>=0.99' or 'p99_ms<=250' "
                            "(repeatable; enables timeline recording and "
                            "burn-rate alerting)")
    serve.set_defaults(func=cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="simulate a heterogeneous device fleet behind a router",
    )
    cluster.add_argument("--model", action="append", default=[],
                         metavar="NET[:RATE]",
                         help="add a model pool with an open-loop stream "
                              "(repeatable; default squeezenet)")
    cluster.add_argument("--devices",
                         default="jetson-agx-xavier:3,dimensity-8100:2,"
                                 "raspberry-pi-4:1,rtx-2080ti-host:1",
                         metavar="NAME[:W],...",
                         help="weighted device mix drawn from the catalog")
    cluster.add_argument("--replicas", type=int, default=32,
                         help="initial replicas per model pool")
    cluster.add_argument("--router", default="plan_cost",
                         choices=["round_robin", "least_queue", "plan_cost"],
                         help="routing policy (default plan_cost)")
    cluster.add_argument("--objective", default="latency",
                         choices=["latency", "energy"],
                         help="plan_cost routing objective")
    cluster.add_argument("--affinity-slack", type=float, default=0.0,
                         help="plan_cost tenant stickiness slack "
                              "(0 disables affinity)")
    cluster.add_argument("--rate", type=float, default=100.0,
                         help="per-model arrival rate when --model has "
                              "no :RATE (req/s)")
    cluster.add_argument("--duration", type=float, default=60.0,
                         help="admission horizon in virtual seconds")
    cluster.add_argument("--arrivals", default="diurnal",
                         choices=["poisson", "diurnal", "flash"],
                         help="arrival shape per model stream")
    cluster.add_argument("--deadline-ms", type=float, default=5000.0,
                         help="per-request deadline (0 disables)")
    cluster.add_argument("--max-batch", type=int, default=8,
                         help="per-replica max batch size")
    cluster.add_argument("--queue-depth", type=int, default=64,
                         help="per-replica bounded queue depth")
    cluster.add_argument("--throttled-share", type=float, default=0.0,
                         help="fraction of replicas derived as thermally "
                              "throttled variants")
    cluster.add_argument("--faults", default=None, metavar="SCENARIO",
                         help="fault scenario applied to --fault-share of "
                              "replicas (name or JSON file)")
    cluster.add_argument("--fault-share", type=float, default=0.25,
                         help="fraction of replicas the scenario hits")
    cluster.add_argument("--autoscale", action="store_true",
                         help="enable the per-pool autoscaler")
    cluster.add_argument("--seed", type=int, default=0,
                         help="run seed (same seed replays bit-identically)")
    cluster.add_argument("--store", default=None, metavar="DIR",
                         help="read/write every pool's plans through the "
                              "plan store in DIR (created on first write; "
                              "see `repro tune-fleet`)")
    cluster.add_argument("--out", default=None, metavar="FILE",
                         help="write the full ClusterReport JSON to FILE")
    cluster.add_argument("--timeline-out", default=None, metavar="FILE",
                         help="record a windowed telemetry timeline and "
                              "save the artifact JSON to FILE")
    cluster.add_argument("--timeline-window", type=float, default=1.0,
                         metavar="SECONDS",
                         help="timeline window width in virtual seconds "
                              "(default 1.0)")
    cluster.set_defaults(func=cmd_cluster)

    timeline = sub.add_parser(
        "timeline",
        help="inspect, diff, and SLO-gate saved telemetry timelines",
    )
    timeline_sub = timeline.add_subparsers(
        dest="timeline_command", required=True
    )
    timeline_show = timeline_sub.add_parser(
        "show", help="render an ASCII sparkline dashboard of an artifact"
    )
    timeline_show.add_argument("artifact",
                               help="path to a timeline-artifact JSON")
    timeline_show.add_argument("--metric", action="append", default=[],
                               metavar="NAME",
                               help="metric to plot (repeatable; default "
                                    "is the standard dashboard set)")
    timeline_show.add_argument("--width", type=int, default=64,
                               help="sparkline width in characters")
    timeline_show.set_defaults(func=cmd_timeline_show)
    timeline_diff = timeline_sub.add_parser(
        "diff",
        help="compare two timelines; exit 1 on behavioral regression",
    )
    timeline_diff.add_argument("baseline",
                               help="baseline timeline-artifact JSON")
    timeline_diff.add_argument("current",
                               help="candidate timeline-artifact JSON")
    timeline_diff.add_argument("--max-goodput-drop", type=float,
                               default=0.05, metavar="FRAC",
                               help="tolerated relative goodput drop "
                                    "(default 0.05)")
    timeline_diff.add_argument("--max-p99-increase", type=float,
                               default=0.10, metavar="FRAC",
                               help="tolerated relative p99 increase "
                                    "(default 0.10)")
    timeline_diff.add_argument("--max-rate-increase", type=float,
                               default=0.02, metavar="FRAC",
                               help="tolerated absolute shed/miss rate "
                                    "increase (default 0.02)")
    timeline_diff.add_argument("--json", action="store_true",
                               help="emit the diff as JSON")
    timeline_diff.set_defaults(func=cmd_timeline_diff)
    timeline_slo = timeline_sub.add_parser(
        "slo",
        help="evaluate SLO burn-rate alerts; exit 1 if any fire",
    )
    timeline_slo.add_argument("artifact",
                              help="path to a timeline-artifact JSON")
    timeline_slo.add_argument("--slo", action="append", required=True,
                              metavar="EXPR",
                              help="objective such as 'goodput_ratio>=0.99' "
                                   "(repeatable)")
    timeline_slo.add_argument("--short", type=int, default=1,
                              metavar="N",
                              help="short burn window count (default 1)")
    timeline_slo.add_argument("--long", type=int, default=5,
                              metavar="N",
                              help="long burn window count (default 5)")
    timeline_slo.add_argument("--factor", type=float, default=1.0,
                              help="burn-rate factor both windows must "
                                   "exceed (default 1.0)")
    timeline_slo.add_argument("--json", action="store_true",
                              help="emit the SLO report as JSON")
    timeline_slo.set_defaults(func=cmd_timeline_slo)

    faults = sub.add_parser(
        "faults", help="inspect the fault-injection scenario catalog"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_list = faults_sub.add_parser(
        "list", help="list built-in fault scenarios"
    )
    faults_list.set_defaults(func=cmd_faults_list)
    faults_show = faults_sub.add_parser(
        "show", help="describe one scenario (built-in name or JSON file)"
    )
    faults_show.add_argument("scenario",
                             help="catalog name or scenario JSON path")
    faults_show.add_argument("--json", action="store_true",
                             help="emit the scenario as JSON (a template "
                                  "for custom scenario files)")
    faults_show.set_defaults(func=cmd_faults_show)

    tune_fleet = sub.add_parser(
        "tune-fleet",
        help="ahead-of-time compile a plan catalog across a fault-"
             "tolerant multiprocess fleet into a content-addressed store",
    )
    tune_fleet.add_argument("--store", required=True, metavar="DIR",
                            help="plan-store root (created if missing; "
                                 "warm re-runs skip plans already there)")
    tune_fleet.add_argument("--workers", type=int, default=4,
                            help="process-pool size (default 4)")
    tune_fleet.add_argument("--seed", type=int, default=0,
                            help="fault + retry-jitter seed (same seed, "
                                 "same catalog -> byte-identical manifest)")
    tune_fleet.add_argument("--faults", default=None, metavar="SCENARIO",
                            help="inject worker crashes / artifact "
                                 "corruption: a scenario name (e.g. "
                                 "flaky-fleet) or a JSON file")
    tune_fleet.add_argument("--networks", default=None, metavar="A,B,...",
                            help="restrict the catalog to these networks "
                                 "(default: all benchmark networks)")
    tune_fleet.add_argument("--devices", default=None, metavar="A,B,...",
                            help="restrict to these devices (default: "
                                 "the full catalog incl. variants)")
    tune_fleet.add_argument("--batches", default=None, metavar="N,N,...",
                            help="batch sizes to compile (default 1,2,4,8)")
    tune_fleet.add_argument("--hot", default=None, metavar="A,B,...",
                            help="networks to prioritize (claimed first, "
                                 "like batch-1 keys)")
    tune_fleet.add_argument("--max-attempts", type=int, default=6,
                            help="attempts before a job is poisoned "
                                 "(default 6)")
    tune_fleet.add_argument("--lease-timeout", type=float, default=60.0,
                            metavar="SECONDS",
                            help="claim lease before the coordinator "
                                 "re-queues a silent worker (default 60)")
    tune_fleet.add_argument("--allow-poison", action="store_true",
                            help="exit 0 even if some jobs were poisoned "
                                 "(default: incomplete store exits 1)")
    tune_fleet.add_argument("--json", action="store_true",
                            help="emit the fleet report as JSON")
    tune_fleet.add_argument("--out", default=None, metavar="FILE",
                            help="also write the fleet report JSON here")
    tune_fleet.set_defaults(func=cmd_tune_fleet)

    trace = sub.add_parser(
        "trace", help="tune + run one network fully instrumented: span "
                      "tree, decision provenance, Perfetto trace"
    )
    trace.add_argument("network", choices=list(MODEL_BUILDERS))
    trace.add_argument("--device", default=None,
                       help="integrated device name (default jetson)")
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="write the kernel timeline as Chrome-trace JSON")
    trace.add_argument("--depth", type=int, default=None,
                       help="limit the printed span tree depth")
    add_engine_flags(trace)
    trace.set_defaults(func=cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="run one network and dump the metrics registry"
    )
    metrics.add_argument("network", choices=list(MODEL_BUILDERS))
    metrics.add_argument("--device", default=None,
                         help="integrated device name (default jetson)")
    metrics.add_argument("--format", default="prom",
                         choices=("prom", "json"),
                         help="Prometheus text (default) or JSON")
    add_engine_flags(metrics)
    metrics.set_defaults(func=cmd_metrics)

    analyze = sub.add_parser(
        "analyze", help="static analysis: determinism lint, "
                        "interprocedural dataflow (seed-taint, "
                        "durability), lease-protocol model check, "
                        "catalog verifiers"
    )
    analyze.add_argument("paths", nargs="*",
                         help="files/directories to analyze (default: src/)")
    analyze.add_argument("--rules", default=None, metavar="IDS",
                         help="comma-separated rule ids or families "
                              "(default: all; e.g. REPRO101,REPRO230 or "
                              "REPRO21x,REPRO23x,REPRO24x)")
    analyze.add_argument("--graph", default=None, metavar="FILE",
                         help="also dump the project call graph as "
                              "deterministic JSON to FILE")
    analyze.add_argument("--format", default="text",
                         choices=("text", "json"),
                         help="output format (default text)")
    analyze.add_argument("--baseline", default=None, metavar="FILE",
                         help="baseline-suppression file (default: "
                              "analysis-baseline.json at the repo root)")
    analyze.add_argument("--no-baseline", action="store_true",
                         help="ignore any baseline file (report everything)")
    analyze.add_argument("--no-catalogs", action="store_true",
                         help="skip the in-process device/scenario/model "
                              "catalog verifiers")
    analyze.add_argument("--write-baseline", action="store_true",
                         help="write every current finding to the baseline "
                              "file and exit 0 (adoption workflow)")
    analyze.set_defaults(func=cmd_analyze)

    check_plan = sub.add_parser(
        "check-plan", help="statically verify plan-artifact / fault-"
                           "scenario JSON files or a whole plan store "
                           "without executing them"
    )
    check_plan.add_argument("artifacts", nargs="+",
                            help="JSON files (plan artifacts, fault "
                                 "scenarios, store manifests — by schema) "
                                 "or plan-store directories to verify")
    check_plan.add_argument("--format", default="text",
                            choices=("text", "json"))
    check_plan.set_defaults(func=cmd_check_plan)

    exp = sub.add_parser("experiments",
                         help="regenerate the paper's tables/figures")
    exp.add_argument("ids", nargs="*", help="artifact ids (default: all)")
    exp.set_defaults(func=cmd_experiments)

    export = sub.add_parser("export", help="dump experiment CSV/JSON")
    export.add_argument("directory")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

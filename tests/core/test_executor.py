"""Hybrid executor: scheduling, memory behaviour, reports."""

import importlib
from collections import Counter
from dataclasses import replace

import pytest

from repro.compile.pipeline import CompiledPlan, compile_key, compile_plan
from repro.core import executor as executor_module
from repro.core.executor import HybridExecutor
from repro.core.memory_manager import MemoryPolicy, plan_allocations
from repro.core.plan import (
    Assignment,
    ExecutionPlan,
    cpu_layer,
    gpu_layer,
    split_layer,
)
from repro.errors import PlanError, ReproError
from repro.hardware import calibration as cal
from repro.hardware import memory as memory_module
from repro.hardware.device import Device
from repro.hardware.memory import MemoryModel
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn import tensor
from repro.nn.graph import NetworkGraph
from repro.nn.layer import Layer
from repro.nn.models import MODEL_BUILDERS, build
from repro.tuning.catalog import key_for

# ``repro.hardware.device`` the module: the package exports a function
# of that name.
device_module = importlib.import_module("repro.hardware.device")


def build_plan(net, device_spec, policy=MemoryPolicy.SEMANTIC, overrides=None):
    plan = ExecutionPlan(net.name)
    for name in net.topo_order():
        plan.set_layer(gpu_layer(name))
    for lp in (overrides or []):
        plan.set_layer(lp)
    plan_allocations(net, plan, device_spec, policy)
    return plan


class TestBasicExecution:
    def test_all_gpu_run_produces_report(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec)
        report = HybridExecutor(chain_net, jetson, plan).run()
        assert report.total_s > 0
        assert report.network == chain_net.name
        assert len(report.layers) == len(chain_net)

    def test_all_cpu_run(self, chain_net, jetson):
        plan = build_plan(
            chain_net, jetson.spec,
            overrides=[cpu_layer(n) for n in chain_net.topo_order()],
        )
        report = HybridExecutor(chain_net, jetson, plan).run()
        assert report.gpu_busy_s == 0.0
        assert report.cpu_busy_s > 0.0

    def test_cpu_only_device_runs_cpu_plan(self, chain_net, rpi):
        plan = build_plan(
            chain_net, rpi.spec, policy=MemoryPolicy.ALL_REGULAR,
            overrides=[cpu_layer(n) for n in chain_net.topo_order()],
        )
        report = HybridExecutor(chain_net, rpi, plan).run()
        assert report.total_s > 0
        assert report.copy_s_total == 0.0

    def test_gpu_plan_rejected_on_cpu_only_device(self, chain_net, rpi):
        plan = build_plan(chain_net, rpi.spec, policy=MemoryPolicy.ALL_REGULAR)
        with pytest.raises(PlanError, match="has none"):
            HybridExecutor(chain_net, rpi, plan)

    def test_missing_layer_plan_rejected(self, chain_net, jetson):
        plan = ExecutionPlan(chain_net.name)
        with pytest.raises(PlanError):
            HybridExecutor(chain_net, jetson, plan)

    def test_noop_layers_cost_nothing(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec)
        report = HybridExecutor(chain_net, jetson, plan).run()
        assert report.layer("flatten").attributed_s == 0.0
        assert report.layer("drop1").attributed_s == 0.0

    def test_deterministic(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec)
        r1 = HybridExecutor(chain_net, jetson, plan).run()
        jetson.reset()
        plan2 = build_plan(chain_net, jetson.spec)
        r2 = HybridExecutor(chain_net, jetson, plan2).run()
        assert r1.total_s == pytest.approx(r2.total_s)


class TestMemoryBehaviour:
    def test_regular_plan_generates_copies(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_REGULAR)
        report = HybridExecutor(chain_net, jetson, plan).run()
        assert report.copy_s_total > 0
        assert report.copy_share > 0

    def test_managed_plan_has_no_copies(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_MANAGED)
        report = HybridExecutor(chain_net, jetson, plan).run()
        assert report.copy_s_total == 0.0

    def test_zero_copy_is_faster_for_gpu_only_chain(self, chain_net, jetson):
        regular = HybridExecutor(
            chain_net, jetson,
            build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_REGULAR),
            serialize=True, host_staging=True,
        ).run()
        jetson.reset()
        managed = HybridExecutor(
            chain_net, jetson,
            build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_MANAGED),
        ).run()
        assert managed.total_s < regular.total_s

    def test_host_staging_adds_copies(self, chain_net, jetson):
        base = HybridExecutor(
            chain_net, jetson,
            build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_REGULAR),
        ).run()
        jetson.reset()
        staged = HybridExecutor(
            chain_net, jetson,
            build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_REGULAR),
            host_staging=True,
        ).run()
        assert staged.copy_s_total > base.copy_s_total

    def test_serialize_exposes_copy_latency(self, chain_net, jetson):
        overlapped = HybridExecutor(
            chain_net, jetson,
            build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_REGULAR),
            serialize=False,
        ).run()
        jetson.reset()
        serial = HybridExecutor(
            chain_net, jetson,
            build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_REGULAR),
            serialize=True,
        ).run()
        assert serial.total_s >= overlapped.total_s


class TestSplitExecution:
    def test_split_layer_uses_both_processors(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec,
                          overrides=[split_layer("fc1", 0.4)])
        report = HybridExecutor(chain_net, jetson, plan).run()
        lr = report.layer("fc1")
        assert lr.assignment is Assignment.SPLIT
        assert lr.kernel_cpu_s > 0 and lr.kernel_gpu_s > 0

    def test_split_output_merge_copy(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec,
                          overrides=[split_layer("fc1", 0.4)])
        report = HybridExecutor(chain_net, jetson, plan).run()
        # The cowritten output is REGULAR; its CPU slice merges via the
        # copy engine (Eq. 2).
        assert report.layer("fc1").copy_s > 0

    def test_managed_cowrite_pays_consistency_penalty(self, jetson):
        # §IV-B: on a large co-written output, two REGULAR copies plus an
        # explicit merge beat the zero-copy consistency storm.  (For tiny
        # buffers the fixed memcpy latency can win instead — which is why
        # the choice is semantic, not unconditional.)
        from repro.nn.graph import NetworkGraph
        from repro.nn.layers import Conv2D, Flatten, Dense, Softmax
        net = NetworkGraph("big-split", (8, 32, 32))
        net.add(Conv2D("conv", out_channels=32, kernel_size=3, padding=1))
        net.add(Flatten("flatten"))
        net.add(Dense("fc", 10))
        net.add(Softmax("softmax"))
        semantic = HybridExecutor(
            net, jetson,
            build_plan(net, jetson.spec, MemoryPolicy.SEMANTIC,
                       overrides=[split_layer("conv", 0.4)]),
        ).run()
        jetson.reset()
        managed = HybridExecutor(
            net, jetson,
            build_plan(net, jetson.spec, MemoryPolicy.ALL_MANAGED,
                       overrides=[split_layer("conv", 0.4)]),
        ).run()
        assert (semantic.layer("conv").attributed_s
                < managed.layer("conv").attributed_s)


class TestBranchExecution:
    def test_branches_on_two_processors_overlap(self, branch_net, jetson):
        overrides = [cpu_layer("left"), cpu_layer("left_relu")]
        plan = build_plan(branch_net, jetson.spec, overrides=overrides)
        report = HybridExecutor(branch_net, jetson, plan).run()
        left = report.layer("left")
        right = report.layer("right")
        # The CPU branch starts before the GPU branch finishes.
        assert left.start_s < right.end_s
        assert report.cpu_busy_s > 0 and report.gpu_busy_s > 0

    def test_join_waits_for_both_branches(self, branch_net, jetson):
        overrides = [cpu_layer("left"), cpu_layer("left_relu")]
        plan = build_plan(branch_net, jetson.spec, overrides=overrides)
        report = HybridExecutor(branch_net, jetson, plan).run()
        join = report.layer("concat")
        # The join's completion follows both branches (its prefetch may
        # start earlier on the copy stream, but the kernel cannot finish
        # before its inputs exist).
        assert join.end_s >= report.layer("left_relu").end_s - 1e-12
        assert join.end_s >= report.layer("right_relu").end_s - 1e-12


class TestReportContents:
    def test_energy_populated(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec)
        report = HybridExecutor(chain_net, jetson, plan).run()
        assert report.energy.average_power_w >= jetson.spec.power.idle_w
        assert report.energy.energy_j > 0

    def test_trace_populated(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec)
        report = HybridExecutor(chain_net, jetson, plan).run()
        assert len(report.trace) > 0
        assert report.trace.span() == pytest.approx(report.total_s)

    def test_unknown_layer_lookup(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec)
        report = HybridExecutor(chain_net, jetson, plan).run()
        with pytest.raises(ReproError):
            report.layer("ghost")


class TestPrefetch:
    def test_prefetch_events_appear_for_managed_buffers(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_MANAGED)
        report = HybridExecutor(chain_net, jetson, plan).run()
        prefetches = [e for e in report.trace.events
                      if e.label.startswith("prefetch:")]
        assert prefetches  # cudaMemPrefetchAsync issued on the copy stream

    def test_prefetch_not_slower_than_first_touch_in_kernel(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_MANAGED)
        with_prefetch = HybridExecutor(chain_net, jetson, plan).run()
        jetson.reset()
        plan2 = build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_MANAGED)
        without = HybridExecutor(chain_net, jetson, plan2, prefetch=False).run()
        assert with_prefetch.total_s <= without.total_s * 1.001

    def test_no_prefetch_for_regular_buffers(self, chain_net, jetson):
        plan = build_plan(chain_net, jetson.spec, MemoryPolicy.ALL_REGULAR)
        report = HybridExecutor(chain_net, jetson, plan).run()
        assert not any(e.label.startswith("prefetch:")
                       for e in report.trace.events)


def count_calls(monkeypatch, calls: Counter, owner, attr) -> None:
    """Wrap ``owner.attr`` so that each call bumps ``calls[attr]``."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[attr] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


class TestStaticCostTerms:
    """A run reads the cost terms the graph stored when each layer was
    added, and the run table built from them once per graph and device;
    it never re-derives them.  Counting calls does not depend on host
    speed, unlike a wall-clock gate."""

    @pytest.mark.parametrize("model", ["resnet18", "vgg16"])
    def test_run_derives_nothing_from_shapes(self, model, monkeypatch):
        compiled = compile_plan(model, JETSON_AGX_XAVIER)
        calls: Counter = Counter()
        count_calls(monkeypatch, calls, Layer, "work")
        count_calls(monkeypatch, calls, Layer, "param_bytes")
        count_calls(monkeypatch, calls, tensor, "validate_shape")
        report = HybridExecutor(
            compiled.graph, compiled.device, compiled.plan
        ).run()
        assert len(report.layers) == len(compiled.graph)
        assert calls == Counter()
        build(model)  # the counters do see shape-derived work
        assert set(calls) == {"work", "param_bytes", "validate_shape"}

    @pytest.mark.parametrize("model", ["resnet18", "vgg16"])
    def test_compile_costs_each_unsplit_kernel_once(self, model, monkeypatch):
        """One compile measures five plans.  An unsplit layer's roofline
        cost is quoted once per (layer, processor, bandwidth factor) across
        them; a split layer, whose fraction moves each round, quotes both
        sides on every execution."""
        unsplit: Counter = Counter()
        split_quotes = 0
        quote = device_module.kernel_cost

        def counted(spec, proc, work, *, mem_bw_factor=1.0, include_launch=True):
            nonlocal split_quotes
            if include_launch:
                unsplit[(id(work), proc.kind, mem_bw_factor)] += 1
            else:
                split_quotes += 1
            return quote(
                spec, proc, work,
                mem_bw_factor=mem_bw_factor, include_launch=include_launch,
            )

        monkeypatch.setattr(device_module, "kernel_cost", counted)
        split_runs = []
        run = HybridExecutor.run

        def counted_run(executor):
            report = run(executor)
            split_runs.append(sum(
                1 for lr in report.layers if lr.assignment is Assignment.SPLIT
            ))
            return report

        monkeypatch.setattr(HybridExecutor, "run", counted_run)
        compile_key(key_for(model, JETSON_AGX_XAVIER, 1), JETSON_AGX_XAVIER)
        assert len(split_runs) == 5
        assert unsplit and max(unsplit.values()) == 1
        assert sum(split_runs) > 0
        assert split_quotes == 2 * sum(split_runs)

    @pytest.mark.parametrize("model", ["resnet18", "vgg16"])
    def test_rerun_reads_its_run_table(self, model, monkeypatch):
        compiled = compile_plan(model, JETSON_AGX_XAVIER)
        calls: Counter = Counter()
        count_calls(monkeypatch, calls, NetworkGraph, "node")
        for name in ("weights_buffer", "output_buffer", "scale_work"):
            count_calls(monkeypatch, calls, executor_module, name)
        report = compiled.execute()
        assert len(report.layers) == len(compiled.graph)
        assert calls == Counter()

    @pytest.mark.parametrize("policy", [
        MemoryPolicy.SEMANTIC, MemoryPolicy.ALL_MANAGED,
        MemoryPolicy.ALL_REGULAR,
    ])
    def test_accesses_that_move_nothing_build_no_quote(self, policy, monkeypatch):
        net = build("resnet18")
        cpu_layers = [n for n in net.topo_order() if n.startswith("layer2")]
        plan = build_plan(
            net, JETSON_AGX_XAVIER, policy,
            overrides=[cpu_layer(n) for n in cpu_layers]
            + [split_layer("fc", 0.3)],
        )
        built = []
        access_cost = memory_module.AccessCost

        def counted_cost(*args, **kwargs):
            built.append(access_cost(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(memory_module, "AccessCost", counted_cost)
        quotes = []
        for attr in ("read_cost", "write_cost"):
            quoted = getattr(MemoryModel, attr)

            def recording(model, *args, _quoted=quoted, **kwargs):
                quotes.append(_quoted(model, *args, **kwargs))
                return quotes[-1]

            monkeypatch.setattr(MemoryModel, attr, recording)
        HybridExecutor(net, Device(JETSON_AGX_XAVIER), plan).run()
        moving = [q for q in quotes if q.transfers or q.overhead_s > 0]
        assert len(quotes) > len(moving) > 0
        assert len(built) == len(moving)


def _scaled(spec, factor):
    """``spec`` with every throughput times ``factor`` and its launch
    overheads and copy latency zeroed."""

    def proc(p):
        p = replace(
            p, clock_hz=p.clock_hz * factor,
            max_stream_bw=p.max_stream_bw * factor, launch_overhead_s=0.0,
        )
        if p.peak_flops_override is not None:
            p = replace(p, peak_flops_override=p.peak_flops_override * factor)
        return p

    return replace(
        spec,
        cpu=proc(spec.cpu),
        gpu=proc(spec.gpu),
        memory=replace(spec.memory, bandwidth=spec.memory.bandwidth * factor),
        interconnect=replace(
            spec.interconnect, rate=spec.interconnect.rate * factor,
            latency_s=0.0,
        ),
    )


class TestThroughputScaling:
    """Metamorphic oracle: with the device-independent time terms zeroed,
    every simulated time is work over a spec's rate.  So a spec four times
    as fast in every throughput replays a plan in exactly a quarter of
    the time (a power of two scales floats exactly), and tunes to the same
    plan.  Both specs keep the device's name: a cost memo keyed by name
    would serve the slow spec's costs to the fast one."""

    @pytest.fixture(autouse=True)
    def no_device_independent_terms(self, monkeypatch):
        for name in (
            "PARTITION_OVERHEAD_S", "JOIN_SYNC_OVERHEAD_S",
            "MANAGED_COWRITE_PENALTY_S_PER_BYTE",
            "MANAGED_FIRST_TOUCH_S_PER_BYTE",
        ):
            monkeypatch.setattr(cal, name, 0.0)

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_four_times_the_throughput_quarters_every_time(self, model):
        base = _scaled(JETSON_AGX_XAVIER, 1.0)
        fast = _scaled(JETSON_AGX_XAVIER, 4.0)
        assert fast.name == base.name
        compiled = compile_plan(model, base)
        slow = compiled.execute()
        # The same graph (and its run tables) on the fast spec.
        quick = CompiledPlan(
            graph=compiled.graph, device=Device(fast),
            artifact=compiled.artifact,
        ).execute()
        assert quick.total_s == slow.total_s / 4
        assert [lr.end_s for lr in quick.layers] == [
            lr.end_s / 4 for lr in slow.layers
        ]

        retuned = compile_plan(model, fast).plan
        assert retuned.alloc == compiled.plan.alloc
        assert list(retuned.layers) == list(compiled.plan.layers)
        for name, lp in compiled.plan.layers.items():
            again = retuned.layers[name]
            assert again.assignment is lp.assignment
            assert again.cpu_fraction == pytest.approx(
                lp.cpu_fraction, rel=1e-12
            )

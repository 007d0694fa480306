"""Hybrid executor: scheduling, memory behaviour, reports."""

import importlib
from collections import Counter
from dataclasses import replace

import pytest

from repro.compile.pipeline import CompiledPlan, compile_key, compile_plan
from repro.core import executor as executor_module
from repro.core import memory_manager, semantics
from repro.core.executor import HybridExecutor
from repro.core.memory_manager import MemoryPolicy, plan_allocations
from repro.core.plan import (
    Assignment,
    ExecutionPlan,
    cpu_layer,
    gpu_layer,
    split_layer,
)
from repro.errors import AllocationError, GraphError, PlanError, ReproError
from repro.hardware import calibration as cal
from repro.hardware import memory as memory_module
from repro.hardware.contention import StreamJob
from repro.hardware.device import Device
from repro.hardware.memory import AllocKind, Buffer, MemoryModel, footprint
from repro.hardware.roofline import KernelCost, KernelWork
from repro.hardware.specs import JETSON_AGX_XAVIER, RTX_2080TI_HOST
from repro.hardware.throttle import ThrottleFactors, apply_throttle
from repro.hardware.variants import spec_by_name
from repro.nn import tensor
from repro.nn.graph import NetworkGraph
from repro.nn.layer import Layer
from repro.nn.layers import Dense
from repro.nn.models import MODEL_BUILDERS, build, shared
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
    def test_compile_costs_each_unsplit_kernel_once(
        self, model, monkeypatch, fresh_graphs,
    ):
        """One compile measures five plans.  An unsplit layer's roofline
        cost is quoted once per (layer, processor, bandwidth factor) across
        them; a split layer, whose fraction moves each round, prices both
        sides on every execution.  The registry is fresh: on a shared
        graph that an earlier compile warmed, the unsplit costs are
        already memoized."""
        unsplit: Counter = Counter()
        split_quotes = 0
        quote = device_module.kernel_cost
        split_terms = device_module.split_cost_terms

        def counted(spec, proc, work, *, mem_bw_factor=1.0, include_launch=True):
            assert include_launch
            unsplit[(id(work), proc.kind, mem_bw_factor)] += 1
            return quote(
                spec, proc, work,
                mem_bw_factor=mem_bw_factor, include_launch=include_launch,
            )

        def counted_split(*args, **kwargs):
            nonlocal split_quotes
            split_quotes += 1
            return split_terms(*args, **kwargs)

        monkeypatch.setattr(device_module, "kernel_cost", counted)
        monkeypatch.setattr(device_module, "split_cost_terms", counted_split)
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


def counted_inits(monkeypatch, calls: Counter, *classes) -> None:
    """Count each construction of ``classes`` in ``calls``, by class name."""
    for cls in classes:
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kwargs):
            calls[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)


class TestSharedGraph:
    """Every compile in a process runs on one frozen graph per network,
    so per-network work happens once per process, per-graph work once
    per graph and only per-run work in each measured run.  Like
    :class:`TestStaticCostTerms`, these count calls, which does not
    depend on host speed."""

    def test_built_graphs_are_frozen(self):
        for graph in (build("lenet"), shared("lenet")):
            with pytest.raises(GraphError, match="frozen"):
                graph.add(Dense("extra", 4))
        assert build("lenet") is not build("lenet")
        assert shared("lenet") is shared("lenet")

    @pytest.mark.parametrize("model", ["resnet18", "vgg16"])
    def test_second_device_derives_nothing_from_shapes(
        self, model, monkeypatch, fresh_graphs,
    ):
        builds = []
        builder = MODEL_BUILDERS[model]

        def counted_build():
            builds.append(model)
            return builder()

        monkeypatch.setitem(MODEL_BUILDERS, model, counted_build)
        first, second = (spec_by_name(name) for name in (
            "jetson-agx-xavier", "amd-ryzen-apu",
        ))
        compile_key(key_for(model, first, 1), first)
        calls: Counter = Counter()
        count_calls(monkeypatch, calls, Layer, "work")
        count_calls(monkeypatch, calls, Layer, "param_bytes")
        count_calls(monkeypatch, calls, tensor, "validate_shape")
        compiled = compile_key(key_for(model, second, 1), second)
        assert compiled.graph is shared(model)
        assert builds == [model]
        assert calls == Counter()

    def test_role_walk_runs_once_per_graph(self, monkeypatch, fresh_graphs):
        calls: Counter = Counter()
        count_calls(monkeypatch, calls, memory_manager, "plan_allocations")
        counted_inits(monkeypatch, calls, semantics.GraphBuffers)
        compile_key(key_for("resnet18", JETSON_AGX_XAVIER, 1), JETSON_AGX_XAVIER)
        # Two profile passes, the seed plan and at least one feedback
        # round place buffers; one walk serves them all.
        assert calls["plan_allocations"] >= 4
        assert calls["GraphBuffers"] == 1
        compile_key(key_for("resnet18", JETSON_AGX_XAVIER, 2), JETSON_AGX_XAVIER)
        assert calls["GraphBuffers"] == 1

    def test_runs_reset_buffers_instead_of_building_them(
        self, monkeypatch, fresh_graphs,
    ):
        calls: Counter = Counter()
        count_calls(monkeypatch, calls, MemoryModel, "allocate")
        counted_inits(monkeypatch, calls, Buffer)
        runs = []
        run = HybridExecutor.run

        def counted_run(executor):
            runs.append(executor)
            return run(executor)

        monkeypatch.setattr(HybridExecutor, "run", counted_run)
        compile_key(key_for("resnet18", JETSON_AGX_XAVIER, 1), JETSON_AGX_XAVIER)
        assert len(runs) == 5
        # The first run builds the graph's one buffer set; the next four
        # reset it.
        slots = len(runs[0]._table.allocations)
        assert calls == Counter({"Buffer": slots})

    def test_split_execution_builds_no_cost_objects(self, monkeypatch):
        net = shared("resnet18")
        splits = [split_layer(name, 0.3) for name in ("conv1", "fc")]
        plan = build_plan(net, JETSON_AGX_XAVIER, overrides=splits)
        executor = HybridExecutor(net, Device(JETSON_AGX_XAVIER), plan)
        executor.run()  # fills the unsplit kernels' cost memos
        calls: Counter = Counter()
        counted_inits(monkeypatch, calls, StreamJob, KernelWork, KernelCost)
        report = executor.run()
        split = [lr for lr in report.layers if lr.assignment is Assignment.SPLIT]
        assert len(split) == len(splits)
        assert calls == Counter()

    def test_equal_throttled_specs_share_one_table(self, fresh_graphs):
        def compile_throttled():
            spec = apply_throttle(
                JETSON_AGX_XAVIER, ThrottleFactors(0.8, 0.6, 0.8),
            )
            return compile_key(key_for("lenet", spec, 1), spec)

        graph = compile_throttled().graph
        tables = len(graph._derived)
        for _ in range(3):
            assert compile_throttled().graph is graph
        assert len(graph._derived) == tables


def allocate_one_by_one(executor, memory):
    """What a run allocated before buffers were reused: one
    ``MemoryModel.allocate`` per slot, in allocation order, refusing a
    managed buffer on a non-integrated device first."""
    plan = executor._plan
    for physical, nbytes, name, role in executor._table.allocations:
        kind = plan.alloc_kind(name)
        if kind is AllocKind.MANAGED and not memory._integrated:
            raise PlanError(
                f"plan uses managed memory for {name!r} on non-integrated "
                f"device {memory._device.name!r}"
            )
        memory.allocate(physical, nbytes, kind, role=role)


class TestPerRunBuffers:
    """A run resets a buffer set that an earlier run released, and the
    device's memory model adopts it whole, with the errors and the
    footprint of one ``allocate`` per buffer."""

    def test_capacity_error_is_the_one_allocate_raised(self, chain_net):
        plan = build_plan(chain_net, JETSON_AGX_XAVIER)
        probe = HybridExecutor(chain_net, Device(JETSON_AGX_XAVIER), plan)
        total = sum(
            footprint(nbytes, plan.alloc_kind(name))
            for _, nbytes, name, _ in probe._table.allocations
        )
        spec = replace(JETSON_AGX_XAVIER, memory=replace(
            JETSON_AGX_XAVIER.memory, capacity_bytes=total / 2,
        ))
        expected = MemoryModel(spec)
        with pytest.raises(AllocationError, match="capacity") as want:
            allocate_one_by_one(probe, expected)
        device = Device(spec)
        with pytest.raises(AllocationError) as got:
            HybridExecutor(chain_net, device, plan).run()
        assert str(got.value) == str(want.value)
        assert device.memory.allocated_bytes == expected.allocated_bytes
        assert [b.name for b in device.memory.buffers] == [
            b.name for b in expected.buffers
        ]

    def test_managed_buffer_on_a_discrete_device_is_refused(self, chain_net):
        plan = build_plan(chain_net, JETSON_AGX_XAVIER)  # managed buffers
        device = Device(RTX_2080TI_HOST)
        executor = HybridExecutor(chain_net, device, plan)
        expected = MemoryModel(RTX_2080TI_HOST)
        with pytest.raises(PlanError, match="managed memory for") as want:
            allocate_one_by_one(executor, expected)
        for _ in range(2):
            with pytest.raises(PlanError) as got:
                executor.run()
            assert str(got.value) == str(want.value)
            assert device.memory.allocated_bytes == expected.allocated_bytes

    def test_overlapping_runs_never_share_a_buffer_set(self, chain_net):
        plan = build_plan(chain_net, JETSON_AGX_XAVIER)
        alone = HybridExecutor(chain_net, Device(JETSON_AGX_XAVIER), plan).run()
        first, second = (
            HybridExecutor(chain_net, Device(JETSON_AGX_XAVIER), plan)
            for _ in range(2)
        )
        first.begin()
        second.begin()
        assert first._table is second._table
        assert not {id(b) for b in first._bufs} & {id(b) for b in second._bufs}
        while first.step() | second.step():
            pass
        reports = [first.finish(), second.finish()]
        reports.append(
            HybridExecutor(chain_net, Device(JETSON_AGX_XAVIER), plan).run()
        )
        for report in reports:
            assert [
                (lr.start_s, lr.end_s, lr.copy_s) for lr in report.layers
            ] == [(lr.start_s, lr.end_s, lr.copy_s) for lr in alone.layers]
            assert report.total_s == alone.total_s


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

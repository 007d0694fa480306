"""Inter- and intra-kernel CPU-GPU hybrid execution (§IV-C).

The executor turns an :class:`~repro.core.plan.ExecutionPlan` into a
schedule on the device's simulated timeline:

* GPU-/CPU-assigned layers run as single kernels on their stream;
* branch chains mapped to different processors co-run automatically,
  because scheduling is *data-dependency driven* ("lazy synchronization":
  a kernel waits only for the events producing its inputs);
* SPLIT layers run both sides concurrently under the DRAM-contention
  model, then merge the CPU slice through the copy engine (Eq. 2);
* REGULAR buffers generate explicit copy-engine transfers whenever a
  processor touches a stale copy; MANAGED buffers instead apply the
  zero-copy bandwidth factor and first-touch cost.

``serialize=True`` reproduces the original programs' single-stream
behaviour (memcpy → kernel → memcpy ...), which is the baseline whose copy
shares Fig 9 reports; EdgeNN runs with ``serialize=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PlanError, SpecError
from ..hardware import calibration as cal
from ..hardware.device import Device
from ..hardware.memory import AllocKind, Buffer
from ..hardware.power import energy_for_run
from ..hardware.roofline import KernelWork
from ..hardware.specs import DeviceSpec, ProcessorKind
from ..nn.graph import INPUT, NetworkGraph
from ..nn.precision import Precision, scale_work
from ..obs import NOOP_OBS, Observability
from ..sim.timeline import COPY, CPU, GPU, Timeline
from ..sim.trace import TraceEvent
from .plan import Assignment, ExecutionPlan
from .report import InferenceReport, LayerResult
from .semantics import input_buffer, output_buffer, weights_buffer

_CPU_KIND = ProcessorKind.CPU
_GPU_KIND = ProcessorKind.GPU


def _kernel_work(
    work: KernelWork, precision: Precision, batch_size: int,
    proc: ProcessorKind,
) -> KernelWork:
    """A layer's kernel work at a batch size and precision, with the
    processor's narrow-datatype throughput folded into the FLOP term."""
    work = scale_work(work, precision)
    if batch_size > 1:
        work = replace(
            work,
            flops=work.flops * batch_size,
            act_in_bytes=work.act_in_bytes * batch_size,
            out_bytes=work.out_bytes * batch_size,
            out_elements=work.out_elements * batch_size,
        )
    speedup = precision.compute_speedup(proc)
    if speedup != 1.0:
        work = replace(work, flops=work.flops / speedup)
    return work


@dataclass(slots=True)
class _Row:
    """One layer's static facts in a :class:`RunTable`.  Buffers are
    named by their slot, their index in ``RunTable.allocations``."""

    name: str
    kernel_class: str
    noop: bool
    join: bool                  # in-degree >= 2
    inputs: Tuple[int, ...]     # slots of the (resolved) inputs
    reads: Tuple[int, ...]      # the inputs, then the weights if any
    out: int                    # output slot; a no-op's is its input's
    cpu_work: KernelWork
    gpu_work: KernelWork
    # Memo of the unsplit kernel's roofline time (launch included), by
    # the bandwidth factor its buffers set.
    cpu_cost_s: Dict[float, float] = field(default_factory=dict)
    gpu_cost_s: Dict[float, float] = field(default_factory=dict)


class RunTable:
    """What no plan and no run changes, derived once per (graph, device
    spec, precision, batch size, buffer namespace): every layer's
    namespaced buffers, kernel class, in-degree and per-processor
    :class:`KernelWork`, the allocation list in allocation order, and a
    memo of each unsplit kernel's roofline time.

    The executor keeps one on its graph (``NetworkGraph.derived``, which
    ``add()`` clears), keyed by the spec's identity: two spec objects
    never share a memo, even with one name (throttled variants, scaled
    test specs).
    """

    def __init__(
        self, graph: NetworkGraph, spec: DeviceSpec, precision: Precision,
        batch_size: int, namespace: str,
    ) -> None:
        # Held so that the spec outlives the table and its id() stays
        # unique among the graph's keys.
        self.spec = spec
        self.cpu_launch_s = spec.cpu.launch_overhead_s
        self.gpu_launch_s = (
            spec.gpu.launch_overhead_s if spec.gpu is not None else 0.0
        )

        def ns(buffer_name: str) -> str:
            return f"{namespace}:{buffer_name}" if namespace else buffer_name

        ratio = precision.byte_ratio * batch_size
        #: (physical name, bytes, name in the plan's ``alloc``, role)
        self.allocations: List[Tuple[str, float, str, str]] = [(
            ns(input_buffer()), graph.out_bytes(INPUT) * ratio,
            input_buffer(), "network_input",
        )]
        slot_of: Dict[str, int] = {INPUT: 0}
        weight_slots: List[int] = []
        self.rows: List[_Row] = []
        for name in graph.topo_order():
            node = graph.node(name)
            weights: Tuple[int, ...] = ()
            if node.param_bytes > 0:
                weights = (len(self.allocations),)
                weight_slots.append(weights[0])
                self.allocations.append((
                    ns(weights_buffer(name)),
                    float(node.param_bytes) * precision.byte_ratio,
                    weights_buffer(name), "weights",
                ))
            inputs = tuple(slot_of[src] for src in node.input_names)
            noop = node.layer.is_noop
            if noop:
                # Aliases its (single) input's buffer.
                slot_of[name] = inputs[0]
            else:
                slot_of[name] = len(self.allocations)
                self.allocations.append((
                    ns(output_buffer(name)), node.work.out_bytes * ratio,
                    output_buffer(name), "activation",
                ))
            self.rows.append(_Row(
                name, node.layer.kernel_class, noop, node.in_degree >= 2,
                inputs, inputs + weights, slot_of[name],
                _kernel_work(node.work, precision, batch_size, _CPU_KIND),
                _kernel_work(node.work, precision, batch_size, _GPU_KIND),
            ))
        self.weight_slots = tuple(weight_slots)
        #: layer name -> slot of the buffer holding its output
        self.output_slots = slot_of


def _span(events: Sequence[TraceEvent]) -> Tuple[float, float]:
    """(earliest start, latest end) of a layer's events."""
    start = events[0].start_s
    end = events[0].end_s
    for ev in events:
        if ev.start_s < start:
            start = ev.start_s
        if ev.end_s > end:
            end = ev.end_s
    return start, end


class HybridExecutor:
    """Executes one inference of ``graph`` on ``device`` under ``plan``."""

    def __init__(
        self,
        graph: NetworkGraph,
        device: Device,
        plan: ExecutionPlan,
        *,
        serialize: bool = False,
        host_staging: bool = False,
        prefetch: bool = True,
        warm_weights: bool = False,
        precision: Precision = Precision.FP32,
        batch_size: int = 1,
        namespace: str = "",
        obs: Optional[Observability] = None,
    ) -> None:
        self._graph = graph
        self._device = device
        self._plan = plan
        self._obs = obs if obs is not None else NOOP_OBS
        self._serialize = serialize
        self._host_staging = host_staging
        # cudaMemPrefetchAsync (paper §IV-B implementation details): the
        # managed first-touch page set-up is issued on the copy stream
        # ahead of the kernel, hiding it behind earlier work.
        self._prefetch = prefetch
        # Warm-start: weight buffers are already device-resident, the
        # steady state of a long-running service (repro.core.service).
        self._warm_weights = warm_weights
        if batch_size < 1:
            raise PlanError(f"batch size must be >= 1, got {batch_size}")
        # The inference datatype shrinks buffers/traffic and boosts compute
        # throughput (see repro.nn.precision; numerics stay float32).
        # Batched inference (extension): activations/outputs/FLOPs scale
        # with the batch, weights are read once, and GPU occupancy improves
        # with the extra output elements.  The namespace prefixes buffer
        # names so several executors can share one device (multi-tenant
        # co-running) without colliding allocations.
        spec = device.spec
        self._table = graph.derived(
            ("run-table", id(spec), precision, batch_size, namespace),
            lambda: RunTable(graph, spec, precision, batch_size, namespace),
        )
        self._shared_timeline = False
        self._validate()

    def _validate(self) -> None:
        layers = self._plan.layers
        has_gpu = self._device.has_gpu
        for row in self._table.rows:
            if row.name not in layers:
                self._plan.layer_plan(row.name)  # raises PlanError
            if not has_gpu and layers[row.name].uses_gpu:
                raise PlanError(
                    f"layer {row.name!r} needs a GPU but device "
                    f"{self._device.name!r} has none"
                )

    # -- public ---------------------------------------------------------------

    def run(self) -> InferenceReport:
        """Simulate one inference; returns the full report."""
        self.begin()
        while self.step():
            pass
        return self.finish()

    # -- stepwise interface (multi-tenant co-running) -----------------------------

    def begin(
        self,
        timeline: Optional[Timeline] = None,
        *,
        reset_device: bool = True,
    ) -> None:
        """Prepare a run.  Passing a ``timeline`` shares it with other
        executors (their submissions interleave like concurrent CUDA
        streams); the caller then owns device reset."""
        if reset_device:
            self._device.reset()
        self._shared_timeline = timeline is not None
        self._timeline = timeline if timeline is not None else Timeline(
            (CPU, GPU, COPY)
        )
        self._traced = self._obs.enabled
        self._mem = self._device.memory
        self._bufs = self._allocate_buffers()
        # Latest event producing each buffer slot's data.
        self._producer: List[Optional[TraceEvent]] = [None] * len(self._bufs)
        self._last_event: Optional[TraceEvent] = None
        self._copy_s_total = 0.0
        self._layer_copy_s = 0.0  # the copies of the layer being scheduled
        self._completion_s = 0.0
        self._pending = iter(self._table.rows)
        self._results: List[LayerResult] = []

    def step(self) -> bool:
        """Schedule the next layer; returns False once all are scheduled."""
        row = next(self._pending, None)
        if row is None:
            return False
        if self._traced:
            with self._obs.tracer.span(
                f"layer:{row.name}", category="layer",
            ) as span:
                result = self._exec_layer(row)
                span.set_times(result.start_s, result.end_s)
                span.set_attributes(
                    assignment=result.assignment.value,
                    cpu_fraction=round(result.cpu_fraction, 4),
                    kernel_class=result.kernel_class,
                    copy_ms=round(result.copy_s * 1e3, 6),
                )
        else:
            result = self._exec_layer(row)
        if result.end_s > self._completion_s:
            self._completion_s = result.end_s
        self._results.append(result)
        return True

    def finish(self) -> InferenceReport:
        """Read the output back and assemble the report."""
        self._readback_output()
        if self._shared_timeline:
            # Tenant view: completion time of this network's own events;
            # per-processor busy approximated from its own kernels.
            total_s = self._completion_s
            cpu_busy = sum(lr.kernel_cpu_s for lr in self._results)
            gpu_busy = sum(lr.kernel_gpu_s for lr in self._results)
        else:
            total_s = self._timeline.trace.span()
            cpu_busy = self._timeline.busy_time(CPU)
            gpu_busy = self._timeline.busy_time(GPU)
        # The OpenMP team spin-waits once the CPU participates at all, so
        # the utilization the power meter sees exceeds scheduled busy time.
        cpu_busy_for_power = cpu_busy
        if cpu_busy > 0 and total_s > cpu_busy:
            cpu_busy_for_power = (
                cpu_busy + cal.OMP_SPIN_UTILIZATION * (total_s - cpu_busy)
            )
        energy = energy_for_run(
            self._device.spec, total_s, min(cpu_busy_for_power, total_s),
            min(gpu_busy, total_s) if self._device.has_gpu else 0.0,
        )
        if self._obs.enabled:
            metrics = self._obs.metrics
            layers_total = metrics.counter(
                "repro_layers_executed_total",
                "Layers scheduled by assignment kind", labels=("assignment",),
            )
            for lr in self._results:
                layers_total.labels(assignment=lr.assignment.value).inc()
            metrics.counter(
                "repro_copy_seconds_total",
                "Explicit copy-engine seconds scheduled",
            ).inc(self._copy_s_total)
            busy = metrics.counter(
                "repro_resource_busy_seconds_total",
                "Simulated busy seconds per resource", labels=("resource",),
            )
            busy.labels(resource=CPU).inc(cpu_busy)
            busy.labels(resource=GPU).inc(gpu_busy)
        return InferenceReport(
            network=self._graph.name,
            device=self._device.name,
            total_s=total_s,
            layers=self._results,
            copy_s_total=self._copy_s_total,
            cpu_busy_s=cpu_busy,
            gpu_busy_s=gpu_busy,
            energy=energy,
            trace=self._timeline.trace,
            plan_summary=self._plan.describe(),
        )

    # -- buffer setup -----------------------------------------------------------

    def _allocate_buffers(self) -> List[Buffer]:
        """Allocate the table's buffers under the plan's memory mechanisms;
        returns them by slot."""
        allocate = self._mem.allocate
        alloc_kind = self._plan.alloc_kind
        integrated = self._device.is_integrated
        bufs: List[Buffer] = []
        for physical, nbytes, buffer_name, role in self._table.allocations:
            kind = alloc_kind(buffer_name)
            if kind is AllocKind.MANAGED and not integrated:
                raise PlanError(
                    f"plan uses managed memory for {buffer_name!r} on "
                    f"non-integrated device {self._device.name!r}"
                )
            bufs.append(allocate(physical, nbytes, kind, role=role))
        if self._warm_weights:
            for slot in self._table.weight_slots:
                buf = bufs[slot]
                buf.device_valid = True   # regular: copy already done
                buf.gpu_touched = True    # managed: pages already mapped
        return bufs

    # -- layer scheduling ---------------------------------------------------------

    def _exec_layer(self, row: _Row) -> LayerResult:
        lp = self._plan.layers[row.name]  # present: checked by _validate
        if row.noop:
            # Alias the (single) input; zero-cost structural layer.  It is
            # "done" the instant its input is (metadata only).
            producer = self._producer[row.out]
            at = producer.end_s if producer is not None else 0.0
            return LayerResult(
                name=row.name, kernel_class=row.kernel_class,
                assignment=lp.assignment, cpu_fraction=0.0,
                start_s=at, end_s=at,
                kernel_cpu_s=0.0, kernel_gpu_s=0.0, copy_s=0.0, overhead_s=0.0,
            )
        self._layer_copy_s = 0.0
        if lp.assignment is Assignment.SPLIT:
            return self._exec_split(row, lp.cpu_fraction)
        return self._exec_single(row, lp.assignment is Assignment.GPU)

    def _prepare_reads(
        self,
        slots: Sequence[int],
        proc: ProcessorKind,
        kernel_class: str,
        events: List[TraceEvent],
    ) -> tuple[List[TraceEvent], float, float]:
        """Schedule any transfers needed for ``proc`` to read the buffers
        in ``slots``, appending them to the layer's ``events``.

        Returns (dependency events, extra overhead seconds, bw factor)."""
        deps: List[TraceEvent] = []
        overhead = 0.0
        factor = 1.0
        read_cost = self._mem.read_cost
        for slot in slots:
            buf = self._bufs[slot]
            producer = self._producer[slot]
            cost = read_cost(buf, proc, kernel_class)
            if cost.overhead_s > 0 and self._prefetch:
                # cudaMemPrefetchAsync: page set-up runs on the copy stream
                # and typically hides behind the preceding kernel.
                ev = self._timeline.schedule(
                    COPY, cost.overhead_s, f"prefetch:{buf.name}",
                    after=(producer,) if producer is not None else (),
                    category="copy",
                )
                events.append(ev)
                if ev.end_s > self._completion_s:
                    self._completion_s = ev.end_s
                deps.append(ev)
            else:
                overhead += cost.overhead_s
            if cost.bw_factor < factor:
                factor = cost.bw_factor
            for transfer in cost.transfers:
                deps.append(self._schedule_copy(transfer, producer, events))
            if producer is not None:
                deps.append(producer)
        return deps, overhead, factor

    def _schedule_copy(
        self,
        transfer,
        producer: Optional[TraceEvent],
        events: List[TraceEvent],
    ) -> TraceEvent:
        if self._device.copy_engine is None:
            raise SpecError(
                f"device {self._device.name!r} cannot perform explicit copies"
            )
        duration = self._device.copy_engine.record(transfer)
        deps = [producer] if producer is not None else []
        if self._serialize and self._last_event is not None:
            deps.append(self._last_event)
        ev = self._timeline.schedule(
            COPY, duration,
            f"memcpy:{transfer.buffer_name}:{transfer.direction.value}",
            after=deps, category="copy",
        )
        self._layer_copy_s += duration
        events.append(ev)
        self._copy_s_total += duration
        if ev.end_s > self._completion_s:
            self._completion_s = ev.end_s
        self._last_event = ev
        if self._traced:
            self._obs.tracer.record(
                ev.label, ev.start_s, ev.end_s, category="memcpy",
                bytes=transfer.nbytes, direction=transfer.direction.value,
            )
        return ev

    def _exec_single(self, row: _Row, on_gpu: bool) -> LayerResult:
        proc = _GPU_KIND if on_gpu else _CPU_KIND
        resource = GPU if on_gpu else CPU
        out_buf = self._bufs[row.out]
        events: List[TraceEvent] = []
        deps, overhead, factor = self._prepare_reads(
            row.reads, proc, row.kernel_class, events
        )
        wcost = self._mem.write_cost(out_buf, proc, row.kernel_class)
        overhead += wcost.overhead_s
        if wcost.bw_factor < factor:
            factor = wcost.bw_factor
        # Cross-processor handoff at DAG joins costs a sync.
        if row.join and self._needs_join_sync(row, resource):
            overhead += cal.JOIN_SYNC_OVERHEAD_S
        memo = row.gpu_cost_s if on_gpu else row.cpu_cost_s
        kernel_s = memo.get(factor)
        if kernel_s is None:
            kernel_s = memo[factor] = self._device.kernel_cost(
                proc, row.gpu_work if on_gpu else row.cpu_work,
                mem_bw_factor=factor,
            ).total_s
        if self._serialize and self._last_event is not None:
            deps.append(self._last_event)
        ev = self._timeline.schedule(
            resource, kernel_s + overhead, row.name, after=deps,
        )
        events.append(ev)
        self._producer[row.out] = ev
        self._last_event = ev
        self._mem.cowrite_penalty(out_buf)  # resets the writer flags
        if self._host_staging and on_gpu:
            stage = self._mem.stage_out(out_buf)
            if stage is not None:
                self._producer[row.out] = self._schedule_copy(stage, ev, events)
        start, end = _span(events)
        return LayerResult(
            name=row.name, kernel_class=row.kernel_class,
            assignment=Assignment.GPU if on_gpu else Assignment.CPU,
            cpu_fraction=0.0 if on_gpu else 1.0,
            start_s=start, end_s=end,
            kernel_cpu_s=0.0 if on_gpu else ev.duration_s,
            kernel_gpu_s=ev.duration_s if on_gpu else 0.0,
            copy_s=self._layer_copy_s, overhead_s=overhead,
        )

    def _exec_split(self, row: _Row, cpu_fraction: float) -> LayerResult:
        out_buf = self._bufs[row.out]
        cpu_work = row.cpu_work.scaled(cpu_fraction)
        gpu_work = row.gpu_work.scaled(1.0 - cpu_fraction)
        kernel_class = row.kernel_class
        events: List[TraceEvent] = []
        consistency_s = 0.0
        deps_cpu, ovh_cpu, f_cpu = self._prepare_reads(
            row.reads, _CPU_KIND, kernel_class, events
        )
        deps_gpu, ovh_gpu, f_gpu = self._prepare_reads(
            row.reads, _GPU_KIND, kernel_class, events
        )
        wc_cpu = self._mem.write_cost(out_buf, _CPU_KIND, kernel_class)
        wc_gpu = self._mem.write_cost(out_buf, _GPU_KIND, kernel_class)
        ovh_cpu += wc_cpu.overhead_s
        ovh_gpu += wc_gpu.overhead_s + cal.PARTITION_OVERHEAD_S
        f_cpu = min(f_cpu, wc_cpu.bw_factor)
        f_gpu = min(f_gpu, wc_gpu.bw_factor)
        cpu_cost = self._device.kernel_cost(
            _CPU_KIND, cpu_work, mem_bw_factor=f_cpu, include_launch=False,
        )
        gpu_cost = self._device.kernel_cost(
            _GPU_KIND, gpu_work, mem_bw_factor=f_gpu, include_launch=False,
        )
        cpu_body, gpu_body = self._device.corun(cpu_cost, gpu_cost)
        # Both sides start together once all inputs are ready on both
        # processors (the co-run contention math assumes a common start).
        joint_deps = deps_cpu + deps_gpu
        start_at = max(
            [self._timeline.free_at(CPU), self._timeline.free_at(GPU)]
            + [d.end_s for d in joint_deps]
        )
        ev_cpu = self._timeline.schedule(
            CPU, cpu_body + self._table.cpu_launch_s + ovh_cpu, f"{row.name}[cpu]",
            after=joint_deps, not_before=start_at,
        )
        ev_gpu = self._timeline.schedule(
            GPU, gpu_body + self._table.gpu_launch_s + ovh_gpu, f"{row.name}[gpu]",
            after=joint_deps, not_before=start_at,
        )
        events.extend([ev_cpu, ev_gpu])
        producer: TraceEvent
        penalty = self._mem.cowrite_penalty(out_buf)
        if penalty > 0.0:
            # Managed co-write: consistency storm serialized on the GPU side.
            producer = self._timeline.schedule(
                GPU, penalty, f"{row.name}[consistency]",
                after=[ev_cpu, ev_gpu], category="sync",
            )
            events.append(producer)
            consistency_s = penalty
        else:
            merge = self._mem.merge_transfer(out_buf, cpu_fraction)
            if merge is not None:
                producer = self._schedule_copy(merge, None, events)
                # Merge must wait for both sides.
                producer = self._timeline.schedule(
                    GPU, 0.0, f"{row.name}[merged]",
                    after=[producer, ev_cpu, ev_gpu], category="sync",
                )
            else:
                producer = self._timeline.schedule(
                    GPU, 0.0, f"{row.name}[joined]",
                    after=[ev_cpu, ev_gpu], category="sync",
                )
            events.append(producer)
        self._producer[row.out] = producer
        self._last_event = producer
        start, end = _span(events)
        return LayerResult(
            name=row.name, kernel_class=kernel_class,
            assignment=Assignment.SPLIT, cpu_fraction=cpu_fraction,
            start_s=start, end_s=end,
            kernel_cpu_s=ev_cpu.duration_s, kernel_gpu_s=ev_gpu.duration_s,
            copy_s=self._layer_copy_s,
            overhead_s=ovh_cpu + ovh_gpu + consistency_s,
            consistency_s=consistency_s,
        )

    def _needs_join_sync(self, row: _Row, resource: str) -> bool:
        """True when this layer consumes outputs produced on the *other*
        processor (cross-stream dependency => event wait)."""
        for slot in row.inputs:
            producer = self._producer[slot]
            if producer is not None and producer.resource not in (resource, COPY):
                return True
        return False

    def _readback_output(self) -> None:
        """Final result consumed host-side (cudaMemcpy d2h or direct managed
        read after cudaDeviceSynchronize)."""
        slot = self._table.output_slots[self._graph.output_name]
        cost = self._mem.read_cost(self._bufs[slot], _CPU_KIND)
        producer = self._producer[slot]
        for transfer in cost.transfers:
            self._schedule_copy(transfer, producer, [])

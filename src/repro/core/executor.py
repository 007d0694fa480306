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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PlanError, SpecError
from ..hardware import calibration as cal
from ..hardware.device import Device
from ..hardware.memory import AllocKind, Buffer
from ..hardware.power import energy_for_run
from ..hardware.specs import ProcessorKind
from ..nn.graph import INPUT, NetworkGraph
from ..nn.precision import Precision, scale_work
from ..obs import NOOP_OBS, Observability
from ..sim.timeline import COPY, CPU, GPU, Timeline
from ..sim.trace import TraceEvent
from .plan import Assignment, ExecutionPlan
from .report import InferenceReport, LayerResult
from .semantics import input_buffer, output_buffer, weights_buffer

_RESOURCE_OF = {ProcessorKind.CPU: CPU, ProcessorKind.GPU: GPU}


@dataclass
class _LayerAccounting:
    """Scratch accumulator while scheduling one layer."""

    copy_s: float = 0.0
    overhead_s: float = 0.0
    events: List[TraceEvent] = field(default_factory=list)

    def span(self) -> tuple[float, float]:
        if not self.events:
            return (0.0, 0.0)
        return (
            min(e.start_s for e in self.events),
            max(e.end_s for e in self.events),
        )


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
        # Inference datatype: shrinks buffers/traffic and boosts compute
        # throughput (see repro.nn.precision); numerics stay float32.
        self._precision = precision
        if batch_size < 1:
            raise PlanError(f"batch size must be >= 1, got {batch_size}")
        # Batched inference (extension): activations/outputs/FLOPs scale
        # with the batch, weights are read once, and GPU occupancy improves
        # with the extra output elements.
        self._batch = batch_size
        # Buffer-name prefix so several executors can share one device
        # (multi-tenant co-running) without colliding allocations.
        self._namespace = namespace
        self._shared_timeline = False
        self._validate()

    def _ns(self, buffer_name: str) -> str:
        """Namespaced physical buffer name."""
        if self._namespace:
            return f"{self._namespace}:{buffer_name}"
        return buffer_name

    def _validate(self) -> None:
        for name in self._graph.topo_order():
            lp = self._plan.layer_plan(name)  # raises PlanError when missing
            if lp.uses_gpu and not self._device.has_gpu:
                raise PlanError(
                    f"layer {name!r} needs a GPU but device "
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
        self._producer: Dict[str, TraceEvent] = {}
        self._resolved: Dict[str, str] = {INPUT: self._ns(input_buffer())}
        self._last_event: Optional[TraceEvent] = None
        self._copy_s_total = 0.0
        self._completion_s = 0.0
        self._allocate_buffers()
        self._pending = iter(self._graph.topo_order())
        self._results: List[LayerResult] = []

    def step(self) -> bool:
        """Schedule the next layer; returns False once all are scheduled."""
        name = next(self._pending, None)
        if name is None:
            return False
        if self._obs.enabled:
            with self._obs.tracer.span(
                f"layer:{name}", category="layer",
            ) as span:
                result = self._exec_layer(name)
                span.set_times(result.start_s, result.end_s)
                span.set_attributes(
                    assignment=result.assignment.value,
                    cpu_fraction=round(result.cpu_fraction, 4),
                    kernel_class=result.kernel_class,
                    copy_ms=round(result.copy_s * 1e3, 6),
                )
        else:
            result = self._exec_layer(name)
        self._completion_s = max(self._completion_s, result.end_s)
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

    def _allocate_buffers(self) -> None:
        mem = self._device.memory
        ratio = self._precision.byte_ratio * self._batch
        mem.allocate(
            self._ns(input_buffer()),
            self._graph.out_bytes(INPUT) * ratio,
            self._alloc_kind(input_buffer()),
            role="network_input",
        )
        for name in self._graph.topo_order():
            node = self._graph.node(name)
            if node.param_bytes > 0:
                mem.allocate(
                    self._ns(weights_buffer(name)),
                    float(node.param_bytes) * self._precision.byte_ratio,
                    self._alloc_kind(weights_buffer(name)), role="weights",
                )
            if not node.layer.is_noop:
                mem.allocate(
                    self._ns(output_buffer(name)),
                    node.work.out_bytes * ratio,
                    self._alloc_kind(output_buffer(name)), role="activation",
                )
        if self._warm_weights:
            for name in self._graph.topo_order():
                if self._graph.node(name).param_bytes > 0:
                    buf = mem.get(self._ns(weights_buffer(name)))
                    buf.device_valid = True   # regular: copy already done
                    buf.gpu_touched = True    # managed: pages already mapped

    def _alloc_kind(self, buffer_name: str) -> AllocKind:
        kind = self._plan.alloc_kind(buffer_name)
        if kind is AllocKind.MANAGED and not self._device.is_integrated:
            raise PlanError(
                f"plan uses managed memory for {buffer_name!r} on "
                f"non-integrated device {self._device.name!r}"
            )
        return kind

    # -- layer scheduling ---------------------------------------------------------

    def _exec_layer(self, name: str) -> LayerResult:
        node = self._graph.node(name)
        lp = self._plan.layer_plan(name)
        if node.layer.is_noop:
            # Alias the (single) input; zero-cost structural layer.  It is
            # "done" the instant its input is (metadata only).
            alias = self._resolved[node.input_names[0]]
            self._resolved[name] = alias
            producer = self._producer.get(alias)
            at = producer.end_s if producer is not None else 0.0
            return LayerResult(
                name=name, kernel_class=node.layer.kernel_class,
                assignment=lp.assignment, cpu_fraction=0.0,
                start_s=at, end_s=at,
                kernel_cpu_s=0.0, kernel_gpu_s=0.0, copy_s=0.0, overhead_s=0.0,
            )
        out_buf = self._device.memory.get(self._ns(output_buffer(name)))
        self._resolved[name] = out_buf.name
        if lp.assignment is Assignment.SPLIT:
            return self._exec_split(name, lp.cpu_fraction, out_buf)
        return self._exec_single(name, lp.processor, out_buf)

    def _work_for(self, name: str, proc: ProcessorKind):
        """The layer's kernel work at the configured batch size and
        precision, with the processor's narrow-datatype throughput folded
        into the FLOP term."""
        work = scale_work(self._graph.work(name), self._precision)
        if self._batch > 1:
            work = replace(
                work,
                flops=work.flops * self._batch,
                act_in_bytes=work.act_in_bytes * self._batch,
                out_bytes=work.out_bytes * self._batch,
                out_elements=work.out_elements * self._batch,
            )
        speedup = self._precision.compute_speedup(proc)
        if speedup != 1.0:
            work = replace(work, flops=work.flops / speedup)
        return work

    def _input_buffers(self, name: str) -> List[Buffer]:
        node = self._graph.node(name)
        bufs = [
            self._device.memory.get(self._resolved[src])
            for src in node.input_names
        ]
        if node.param_bytes > 0:
            bufs.append(self._device.memory.get(self._ns(weights_buffer(name))))
        return bufs

    def _prepare_reads(
        self,
        bufs: Sequence[Buffer],
        proc: ProcessorKind,
        acc: _LayerAccounting,
        kernel_class: str,
    ) -> tuple[List[TraceEvent], float, float]:
        """Schedule any transfers needed for ``proc`` to read ``bufs``.

        Returns (dependency events, extra overhead seconds, bw factor)."""
        deps: List[TraceEvent] = []
        overhead = 0.0
        factor = 1.0
        for buf in bufs:
            producer = self._producer.get(buf.name)
            cost = self._device.memory.read_cost(buf, proc, kernel_class)
            if cost.overhead_s > 0 and self._prefetch:
                # cudaMemPrefetchAsync: page set-up runs on the copy stream
                # and typically hides behind the preceding kernel.
                ev = self._timeline.schedule(
                    COPY, cost.overhead_s, f"prefetch:{buf.name}",
                    after=[producer] if producer is not None else [],
                    category="copy",
                )
                acc.events.append(ev)
                self._completion_s = max(self._completion_s, ev.end_s)
                deps.append(ev)
            else:
                overhead += cost.overhead_s
            factor = min(factor, cost.bw_factor)
            for transfer in cost.transfers:
                ev = self._schedule_copy(transfer, producer, acc)
                deps.append(ev)
            if producer is not None:
                deps.append(producer)
        return deps, overhead, factor

    def _schedule_copy(
        self,
        transfer,
        producer: Optional[TraceEvent],
        acc: _LayerAccounting,
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
        acc.copy_s += duration
        acc.events.append(ev)
        self._copy_s_total += duration
        self._completion_s = max(self._completion_s, ev.end_s)
        self._last_event = ev
        if self._obs.enabled:
            self._obs.tracer.record(
                ev.label, ev.start_s, ev.end_s, category="memcpy",
                bytes=transfer.nbytes, direction=transfer.direction.value,
            )
        return ev

    def _exec_single(
        self, name: str, proc: ProcessorKind, out_buf: Buffer
    ) -> LayerResult:
        node = self._graph.node(name)
        work = self._work_for(name, proc)
        acc = _LayerAccounting()
        deps, overhead, factor = self._prepare_reads(
            self._input_buffers(name), proc, acc, work.kernel_class
        )
        wcost = self._device.memory.write_cost(out_buf, proc, work.kernel_class)
        overhead += wcost.overhead_s
        factor = min(factor, wcost.bw_factor)
        # Cross-processor handoff at DAG joins costs a sync.
        if self._needs_join_sync(name, proc):
            overhead += cal.JOIN_SYNC_OVERHEAD_S
        kc = self._device.kernel_cost(proc, work, mem_bw_factor=factor)
        if self._serialize and self._last_event is not None:
            deps.append(self._last_event)
        ev = self._timeline.schedule(
            _RESOURCE_OF[proc], kc.total_s + overhead, name, after=deps,
        )
        acc.events.append(ev)
        self._producer[out_buf.name] = ev
        self._last_event = ev
        self._device.memory.cowrite_penalty(out_buf)  # resets writer set
        if self._host_staging and proc is ProcessorKind.GPU:
            stage = self._device.memory.stage_out(out_buf)
            if stage is not None:
                stage_ev = self._schedule_copy(stage, ev, acc)
                self._producer[out_buf.name] = stage_ev
        start, end = acc.span()
        return LayerResult(
            name=name, kernel_class=node.layer.kernel_class,
            assignment=(
                Assignment.CPU if proc is ProcessorKind.CPU else Assignment.GPU
            ),
            cpu_fraction=1.0 if proc is ProcessorKind.CPU else 0.0,
            start_s=start, end_s=end,
            kernel_cpu_s=ev.duration_s if proc is ProcessorKind.CPU else 0.0,
            kernel_gpu_s=ev.duration_s if proc is ProcessorKind.GPU else 0.0,
            copy_s=acc.copy_s, overhead_s=overhead,
        )

    def _exec_split(
        self, name: str, cpu_fraction: float, out_buf: Buffer
    ) -> LayerResult:
        node = self._graph.node(name)
        cpu_work = self._work_for(name, ProcessorKind.CPU).scaled(cpu_fraction)
        gpu_work = self._work_for(name, ProcessorKind.GPU).scaled(
            1.0 - cpu_fraction
        )
        work = self._graph.work(name)
        acc = _LayerAccounting()
        consistency_s = 0.0
        in_bufs = self._input_buffers(name)
        deps_cpu, ovh_cpu, f_cpu = self._prepare_reads(
            in_bufs, ProcessorKind.CPU, acc, work.kernel_class
        )
        deps_gpu, ovh_gpu, f_gpu = self._prepare_reads(
            in_bufs, ProcessorKind.GPU, acc, work.kernel_class
        )
        wc_cpu = self._device.memory.write_cost(
            out_buf, ProcessorKind.CPU, work.kernel_class
        )
        wc_gpu = self._device.memory.write_cost(
            out_buf, ProcessorKind.GPU, work.kernel_class
        )
        ovh_cpu += wc_cpu.overhead_s
        ovh_gpu += wc_gpu.overhead_s + cal.PARTITION_OVERHEAD_S
        f_cpu = min(f_cpu, wc_cpu.bw_factor)
        f_gpu = min(f_gpu, wc_gpu.bw_factor)
        cpu_cost = self._device.kernel_cost(
            ProcessorKind.CPU, cpu_work, mem_bw_factor=f_cpu,
            include_launch=False,
        )
        gpu_cost = self._device.kernel_cost(
            ProcessorKind.GPU, gpu_work, mem_bw_factor=f_gpu,
            include_launch=False,
        )
        cpu_body, gpu_body = self._device.corun(cpu_cost, gpu_cost)
        cpu_launch = self._device.processor(ProcessorKind.CPU).launch_overhead_s
        gpu_launch = self._device.processor(ProcessorKind.GPU).launch_overhead_s
        # Both sides start together once all inputs are ready on both
        # processors (the co-run contention math assumes a common start).
        joint_deps = deps_cpu + deps_gpu
        start_at = max(
            [self._timeline.free_at(CPU), self._timeline.free_at(GPU)]
            + [d.end_s for d in joint_deps]
        )
        ev_cpu = self._timeline.schedule(
            CPU, cpu_body + cpu_launch + ovh_cpu, f"{name}[cpu]",
            after=joint_deps, not_before=start_at,
        )
        ev_gpu = self._timeline.schedule(
            GPU, gpu_body + gpu_launch + ovh_gpu, f"{name}[gpu]",
            after=joint_deps, not_before=start_at,
        )
        acc.events.extend([ev_cpu, ev_gpu])
        producer: TraceEvent
        penalty = self._device.memory.cowrite_penalty(out_buf)
        if penalty > 0.0:
            # Managed co-write: consistency storm serialized on the GPU side.
            producer = self._timeline.schedule(
                GPU, penalty, f"{name}[consistency]",
                after=[ev_cpu, ev_gpu], category="sync",
            )
            acc.events.append(producer)
            acc.overhead_s += penalty
            consistency_s = penalty
        else:
            merge = self._device.memory.merge_transfer(out_buf, cpu_fraction)
            if merge is not None:
                producer = self._schedule_copy(merge, None, acc)
                # Merge must wait for both sides.
                producer = self._timeline.schedule(
                    GPU, 0.0, f"{name}[merged]",
                    after=[producer, ev_cpu, ev_gpu], category="sync",
                )
            else:
                producer = self._timeline.schedule(
                    GPU, 0.0, f"{name}[joined]",
                    after=[ev_cpu, ev_gpu], category="sync",
                )
            acc.events.append(producer)
        self._producer[out_buf.name] = producer
        self._last_event = producer
        start, end = acc.span()
        return LayerResult(
            name=name, kernel_class=node.layer.kernel_class,
            assignment=Assignment.SPLIT, cpu_fraction=cpu_fraction,
            start_s=start, end_s=end,
            kernel_cpu_s=ev_cpu.duration_s, kernel_gpu_s=ev_gpu.duration_s,
            copy_s=acc.copy_s, overhead_s=ovh_cpu + ovh_gpu + acc.overhead_s,
            consistency_s=consistency_s,
        )

    def _needs_join_sync(self, name: str, proc: ProcessorKind) -> bool:
        """True when this layer consumes outputs produced on the *other*
        processor (cross-stream dependency => event wait)."""
        node = self._graph.node(name)
        if node.in_degree < 2:
            return False
        resource = _RESOURCE_OF[proc]
        for src in node.input_names:
            buf_name = self._resolved.get(src)
            producer = self._producer.get(buf_name) if buf_name else None
            if producer is not None and producer.resource not in (resource, COPY):
                return True
        return False

    def _readback_output(self) -> None:
        """Final result consumed host-side (cudaMemcpy d2h or direct managed
        read after cudaDeviceSynchronize)."""
        out_name = self._resolved[self._graph.output_name]
        buf = self._device.memory.get(out_name)
        acc = _LayerAccounting()
        cost = self._device.memory.read_cost(buf, ProcessorKind.CPU)
        producer = self._producer.get(buf.name)
        for transfer in cost.transfers:
            self._schedule_copy(transfer, producer, acc)


# -- batched service-time gather ------------------------------------------------


def service_times(
    service_fn: Callable[[str, int], float],
    keys: Sequence[str],
    sizes: Sequence[int],
) -> np.ndarray:
    """Batched service-time entry: seconds for each (key, size) pair.

    The simulators' hot loops ask for whole vectors of batch costs at
    once (sweep grids, router cost tables, epoch pre-tuning); tuning is
    memoized per distinct pair, so ``service_fn`` — a scalar
    ``(key, size) -> seconds`` callable such as
    ``lambda n, b: model.warm(n, b).total_s`` — is invoked exactly once
    per distinct pair, in first-occurrence order (plan-cache traffic
    stays deterministic), and the results broadcast back over the full
    batch as one float64 array.
    """
    if len(keys) != len(sizes):
        raise PlanError(
            f"service_times needs parallel keys/sizes, got "
            f"{len(keys)} keys and {len(sizes)} sizes"
        )
    memo: Dict[Tuple[str, int], float] = {}
    out = np.empty(len(keys), dtype=np.float64)
    for i, (key, size) in enumerate(zip(keys, sizes)):
        pair = (key, int(size))
        cached = memo.get(pair)
        if cached is None:
            cached = float(service_fn(pair[0], pair[1]))
            memo[pair] = cached
        out[i] = cached
    return out

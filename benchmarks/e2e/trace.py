"""Outside-in tracing for the end-to-end benchmark.

:func:`instrument` wraps public functions and methods of ``repro`` from
this module; nothing under ``src/`` knows about it.  Each wrapped call
records a span: its name, start, end, parent span and the timed
repetition it belongs to.  A span's *self time* is its duration minus
the time its child spans cover, so the self times of all spans under
the benchmark's ``rep`` root spans add up to the timed phase.

Self times and call counts are aggregated as spans close, so a long run
costs memory only for the first :data:`SPAN_CAP` spans, which are kept
for the Chrome trace.  Worker processes forked while tracing is on
inherit the wrappers; each appends its spans to
``<worker_dir>/worker-<pid>.jsonl`` whenever one of its root spans
closes, and :meth:`Tracer.merge_workers` folds those files in.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

#: spans kept per process for the Chrome trace (aggregates cover all)
SPAN_CAP = 20_000

#: root span of one timed operation (the benchmark's own code)
ROOT = "rep"
#: root span of the set-up phase
SETUP = "setup"


class Tracer:
    """Span stack, per-name aggregates and counters for one process."""

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = worker_dir
        worker_dir.mkdir(parents=True, exist_ok=True)
        self.active = False
        self.in_worker = False
        self._patches: List[tuple] = []
        self._reset()
        #: aggregates and spans that forked workers reported
        self.worker_agg: Dict[str, List[float]] = {}
        self.worker_spans: List[list] = []
        #: FLOPs per layer group of one forward, by graph id
        self.graph_flops: Dict[int, Dict[str, float]] = {}
        os.register_at_fork(after_in_child=self._forked)

    def _reset(self) -> None:
        #: open spans: [name, start, child_seconds, span_index]
        self.stack: List[list] = []
        #: name -> [self_s, total_s, calls]; nested same-name spans count once
        self.agg: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        #: kept spans: [name, start, end, parent_index, rep]
        self.spans: List[list] = []
        self.dropped = 0
        self.rep: Optional[int] = None

    def _forked(self) -> None:
        if self.active:
            self._reset()
            self.in_worker = True

    # -- spans -------------------------------------------------------------------

    def enter(self, name: str) -> None:
        stack = self.stack
        parent = stack[-1][3] if stack else -1
        index = len(self.spans)
        if index < SPAN_CAP:
            self.spans.append([name, 0.0, 0.0, parent, self.rep])
        else:
            index = -1
            self.dropped += 1
        stack.append([name, time.perf_counter(), 0.0, index])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s, index = self.stack.pop()
        duration = end - start
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0.0, 0.0, 0]
        agg[0] += duration - child_s
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            outermost = parent[0] != name
        else:
            outermost = True
        if outermost:
            agg[1] += duration
            agg[2] += 1
        if index >= 0:
            span = self.spans[index]
            span[1], span[2] = start, end
        if self.in_worker and not self.stack:
            self._flush_worker()

    @contextmanager
    def root(self, rep: Optional[int], name: str = ROOT) -> Iterator[None]:
        """The root span ``name`` of timed repetition ``rep``."""
        self.rep = rep
        self.enter(name)
        try:
            yield
        finally:
            self.exit()
            self.rep = None

    def enclosing(self, *names: str) -> Optional[str]:
        """The innermost open span whose name is one of ``names``."""
        for frame in reversed(self.stack):
            if frame[0] in names:
                return frame[0]
        return None

    # -- patching ----------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``name`` while tracing is on;
        ``after(tracer, result, args)`` then updates counters."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, result, args)
            return result

        return traced

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, cls: type, attr: str, name: str, after=None) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it."""
        if attr in cls.__dict__:
            self.patch(cls, attr, self.wrap(cls.__dict__[attr], name, after))

    def patch_function(self, fn: Callable, name: str, after=None) -> None:
        """Wrap ``fn`` in its own module and in every ``repro`` module
        that imported it by name."""
        traced = self.wrap(fn, name, after)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, traced)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- workers -----------------------------------------------------------------

    def _flush_worker(self) -> None:
        line = json.dumps({
            "pid": os.getpid(),
            "agg": self.agg,
            "counters": self.counters,
            "spans": self.spans,
        })
        path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(line + "\n")
        self.agg, self.spans = {}, []
        self.counters = defaultdict(float)

    def merge_workers(self) -> None:
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                for name, (self_s, total_s, calls) in record["agg"].items():
                    agg = self.worker_agg.setdefault(name, [0.0, 0.0, 0])
                    agg[0] += self_s
                    agg[1] += total_s
                    agg[2] += calls
                for name, value in record["counters"].items():
                    self.counters[name] += value
                self.worker_spans.extend(
                    [*span, record["pid"]] for span in record["spans"]
                )

    # -- output ------------------------------------------------------------------

    def chrome_events(self) -> List[dict]:
        """Kept spans as Chrome trace events (``chrome://tracing``,
        Perfetto) on the perf-counter clock; ``args.parent`` indexes the
        parent span of the same process, ``args.rep`` the repetition."""
        main_pid = os.getpid()
        spans = [[*span, main_pid] for span in self.spans] + self.worker_spans
        return [
            {
                "name": name, "ph": "X", "pid": pid, "tid": pid,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"parent": parent, "rep": rep},
            }
            for name, start, end, parent, rep, pid in spans
        ]


def _combined(tracer: Tracer) -> Dict[str, List[float]]:
    combined = {name: list(agg) for name, agg in tracer.agg.items()}
    for name, (self_s, total_s, calls) in tracer.worker_agg.items():
        agg = combined.setdefault(name, [0.0, 0.0, 0])
        agg[0] += self_s
        agg[1] += total_s
        agg[2] += calls
    return combined


# -- what is instrumented --------------------------------------------------------

#: per-layer group of each NN layer ``kernel_class``
_LAYER_GROUPS = {
    "conv": "conv", "dense": "dense", "pool": "pool", "norm": "norm",
    "activation": "elementwise", "softmax": "elementwise", "shape": "shape",
}
LAYER_GROUPS = ("conv", "depthwise", "dense", "pool", "norm", "elementwise", "shape")
FLOP_GROUPS = ("conv", "depthwise", "dense")


def layer_group(layer_cls: type) -> str:
    from repro.nn.layers.depthwise import DepthwiseConv2D

    if issubclass(layer_cls, DepthwiseConv2D):
        return "depthwise"
    return _LAYER_GROUPS.get(layer_cls.kernel_class, "elementwise")


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _count(name: str, value: Callable) -> Callable:
    def after(tracer: Tracer, result, args) -> None:
        tracer.counters[name] += value(result, args)
    return after


def _after_serving_run(tracer: Tracer, report, args) -> None:
    tracer.counters["serving.batches"] += report.extra["batch_count"]
    tracer.counters["serving.batched_requests"] += sum(
        size * count for size, count in report.batch_histogram.items()
    )


def _after_fleet_run(tracer: Tracer, report, args) -> None:
    tracer.counters["store.quarantined"] += report.quarantined
    tracer.counters["tuning.slot_s"] += report.wall_s * args[0].workers


def _after_forward(tracer: Tracer, result, args) -> None:
    graph = args[0]
    flops = tracer.graph_flops.get(id(graph))
    if flops is None:
        flops = tracer.graph_flops[id(graph)] = defaultdict(float)
        for name in graph.topo_order():
            group = layer_group(type(graph.node(name).layer))
            flops[group] += graph.work(name).flops
    for group, value in flops.items():
        tracer.counters[f"nn.flops.{group}"] += value


def _patch_engine(tracer: Tracer) -> None:
    """``EventEngine.run`` as span ``sim.engine``, with its callbacks
    wrapped as ``serving.callback`` or ``cluster.callback`` spans."""
    from repro.sim.engine import EventEngine

    original = EventEngine.run

    def callback(fn, span, counter, size=None):
        if fn is None:
            return None

        def traced(*args):
            tracer.counters[counter] += 1 if size is None else len(args[size])
            tracer.enter(span)
            try:
                return fn(*args)
            finally:
                tracer.exit()

        return traced

    @wraps(original)
    def run(self, *, on_arrival, on_event, bulk_ready=None, on_arrivals=None,
            next_tick=None, on_tick=None):
        if not tracer.active:
            return original(
                self, on_arrival=on_arrival, on_event=on_event,
                bulk_ready=bulk_ready, on_arrivals=on_arrivals,
                next_tick=next_tick, on_tick=on_tick,
            )
        owner = tracer.enclosing("serving.run", "cluster.run") or "sim.run"
        span = owner.split(".")[0] + ".callback"
        tracer.enter("sim.engine")
        try:
            return original(
                self,
                on_arrival=callback(on_arrival, span, "sim.engine.scalar_arrivals"),
                on_event=callback(on_event, span, "sim.engine.events"),
                bulk_ready=bulk_ready,
                on_arrivals=callback(
                    on_arrivals, span, "sim.engine.bulk_arrivals", size=0
                ),
                next_tick=next_tick,
                on_tick=callback(on_tick, span, "sim.engine.ticks"),
            )
        finally:
            tracer.exit()

    tracer.patch(EventEngine, "run", run)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper and switch tracing on; undo both on exit."""
    from repro import fsutil
    from repro.cluster import ClusterSimulator, Router
    from repro.compile import pipeline
    from repro.core.executor import HybridExecutor
    from repro.core.plan_cache import PlanCache
    from repro.core.tuner import AdaptiveTuner
    from repro.faults.injector import FaultInjector
    from repro.nn import weights
    from repro.nn.graph import NetworkGraph
    from repro.nn.layer import Layer
    from repro.obs.timeline import SloMonitor, TimelineRecorder
    from repro.serving.simulator import ServiceTimeModel, ServingSimulator
    from repro.store.plan_store import PlanStore
    from repro.tuning import fleet, queue
    from repro.workloads.arrivals import ArrivalProcess

    method = tracer.patch_method
    function = tracer.patch_function
    try:
        _patch_engine(tracer)
        method(ServingSimulator, "__init__", "serving.build")
        method(ServingSimulator, "run", "serving.run", _after_serving_run)
        for attr in ("service", "warm", "warm_times", "cold"):
            method(ServiceTimeModel, attr, "serving.service")
        method(ClusterSimulator, "__init__", "cluster.build")
        method(ClusterSimulator, "run", "cluster.run")
        for cls in [Router, *_subclasses(Router)]:
            method(cls, "choose", "cluster.route")
            method(cls, "note", "cluster.note")
        for cls in _subclasses(ArrivalProcess):
            method(cls, "__init__", "workloads.generate")
        for cls in [ArrivalProcess, *_subclasses(ArrivalProcess)]:
            method(cls, "as_arrays", "workloads.generate",
                   _count("workloads.arrivals", lambda r, a: len(r)))
        for attr in ("throttle_at", "memory_pressure_at", "kernel_fails",
                     "payload_corrupt", "artifact_corrupt", "worker_crashes",
                     "artifact_corrupt_keyed"):
            method(FaultInjector, attr, "faults.query")
        for attr in list(vars(TimelineRecorder)):
            if attr.startswith("record_"):
                method(TimelineRecorder, attr, "obs.timeline_record")
        method(TimelineRecorder, "finish", "obs.timeline_finish")
        method(SloMonitor, "evaluate", "obs.slo_evaluate")
        method(PlanCache, "get_or_tune", "core.plan_cache")
        method(HybridExecutor, "run", "core.executor")
        function(pipeline.compile_plan, "compile.adaptive")
        method(pipeline.CompilerPipeline, "compile_with_tuner", "compile.adaptive")
        function(pipeline.compile_fixed, "compile.fixed")
        method(AdaptiveTuner, "stage_profile", "compile.profile")
        method(AdaptiveTuner, "partition_chain_layers", "compile.partition")
        method(AdaptiveTuner, "schedule_branch_layers", "compile.schedule")
        method(AdaptiveTuner, "assemble_seed_plan", "compile.schedule")
        method(AdaptiveTuner, "stage_feedback", "compile.feedback",
               _count("compile.feedback_rounds", lambda r, a: r[0].converged_after))
        method(AdaptiveTuner, "stage_lower", "compile.lower")
        function(fleet.run_fleet, "tuning.fleet")
        method(fleet.TuneFleet, "run", "tuning.fleet", _after_fleet_run)
        function(fleet._run_worker_job, "tuning.worker_job")
        method(queue.JobQueue, "claim", "tuning.claim",
               _count("tuning.attempts", lambda r, a: r is not None))
        method(queue.JobQueue, "complete", "tuning.settle")
        method(queue.JobQueue, "fail", "tuning.settle",
               _count("tuning.failed_attempts", lambda r, a: 1))
        method(queue.JobQueue, "expire_leases", "tuning.expire")
        method(PlanStore, "register", "store.register")
        method(PlanStore, "contains", "store.contains")
        method(PlanStore, "digest", "store.digest")
        method(PlanStore, "sweep_tmp", "store.sweep_tmp")
        function(fsutil.atomic_write_text, "fsutil.atomic_write")
        method(NetworkGraph, "materialize_params", "nn.materialize")
        method(NetworkGraph, "forward", "nn.forward", _after_forward)
        function(weights.init_param, "nn.init_param")
        for cls in _subclasses(Layer):
            method(cls, "forward", f"nn.layer.{layer_group(cls)}")
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        tracer.unpatch()


# -- per-layer metrics -----------------------------------------------------------

#: metric -> span names whose self times it sums
SELF_TIME = {
    "trace.root_self_s": (ROOT,),
    "sim.engine.self_s": ("sim.engine",),
    "serving.build_s": ("serving.build",),
    "serving.run_self_s": ("serving.run",),
    "serving.callback_self_s": ("serving.callback",),
    "serving.service_s": ("serving.service",),
    "cluster.build_s": ("cluster.build",),
    "cluster.run_self_s": ("cluster.run",),
    "cluster.callback_self_s": ("cluster.callback",),
    "cluster.route_s": ("cluster.route",),
    "cluster.note_s": ("cluster.note",),
    "workloads.generate_s": ("workloads.generate",),
    "faults.query_s": ("faults.query",),
    "obs.timeline_record_s": ("obs.timeline_record",),
    "obs.timeline_finish_s": ("obs.timeline_finish",),
    "obs.slo_evaluate_s": ("obs.slo_evaluate",),
    "core.plan_cache.get_or_tune_s": ("core.plan_cache",),
    "core.executor.run_s": ("core.executor",),
    "compile.adaptive_s": ("compile.adaptive",),
    "compile.fixed_s": ("compile.fixed",),
    "compile.profile_s": ("compile.profile",),
    "compile.partition_s": ("compile.partition",),
    "compile.schedule_s": ("compile.schedule",),
    "compile.feedback_s": ("compile.feedback",),
    "compile.lower_s": ("compile.lower",),
    "tuning.coordinator_self_s": ("tuning.fleet",),
    "tuning.claim_s": ("tuning.claim",),
    "tuning.settle_s": ("tuning.settle",),
    "tuning.expire_s": ("tuning.expire",),
    "tuning.worker_self_s": ("tuning.worker_job",),
    "store.register_s": ("store.register",),
    "store.contains_s": ("store.contains",),
    "store.digest_s": ("store.digest",),
    "store.sweep_tmp_s": ("store.sweep_tmp",),
    "fsutil.atomic_write_s": ("fsutil.atomic_write",),
    "nn.materialize_params_s": ("nn.materialize",),
    "nn.init_param_s": ("nn.init_param",),
    "nn.forward_s": ("nn.forward",),
    **{f"nn.layer_self_s.{g}": (f"nn.layer.{g}",) for g in LAYER_GROUPS},
}

#: metric -> span names whose outermost calls it counts
CALLS = {
    "serving.service_calls": ("serving.service",),
    "cluster.route_calls": ("cluster.route",),
    "faults.query_calls": ("faults.query",),
    "obs.timeline_record_calls": ("obs.timeline_record",),
    "core.executor.runs": ("core.executor",),
    "compile.plans": ("compile.adaptive", "compile.fixed"),
    "store.registers": ("store.register",),
    "fsutil.atomic_writes": ("fsutil.atomic_write",),
    "nn.init_param_calls": ("nn.init_param",),
    **{f"nn.layer_calls.{g}": (f"nn.layer.{g}",) for g in LAYER_GROUPS},
}

#: metrics read straight from a counter
COUNTERS = (
    "sim.engine.scalar_arrivals", "sim.engine.bulk_arrivals",
    "sim.engine.events", "sim.engine.ticks", "serving.batches",
    "workloads.arrivals", "compile.feedback_rounds", "tuning.attempts",
    "tuning.failed_attempts", "store.quarantined",
)


#: set-up phase: the layers whose work users pay before the first
#: operation (parameter materialization, plan compilation)
SETUP_SELF_TIME = {
    "setup.nn.materialize_params_s": ("nn.materialize",),
    "setup.nn.init_param_s": ("nn.init_param",),
    "setup.compile_s": (
        "compile.adaptive", "compile.fixed", "compile.profile",
        "compile.partition", "compile.schedule", "compile.feedback",
        "compile.lower",
    ),
    "setup.core.executor.run_s": ("core.executor",),
}
SETUP_CALLS = {
    "setup.nn.init_param_calls": ("nn.init_param",),
    "setup.compile.plans": ("compile.adaptive", "compile.fixed"),
}


def _total(agg: Dict[str, List[float]], names, field: int) -> float:
    return sum(agg.get(name, [0.0, 0.0, 0])[field] for name in names)


def partition_error(tracer: Tracer) -> float:
    """|sum of self times - timed phase| / timed phase, main process."""
    timed = _total(tracer.agg, (ROOT,), 1)
    attributed = sum(agg[0] for agg in tracer.agg.values())
    return abs(attributed - timed) / timed if timed else 0.0


def setup_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the traced set-up phase."""
    agg = _combined(tracer)
    metrics = {"trace.setup_s": _total(tracer.agg, (SETUP,), 1)}
    metrics.update({m: _total(agg, names, 0) for m, names in SETUP_SELF_TIME.items()})
    metrics.update({m: _total(agg, names, 2) for m, names in SETUP_CALLS.items()})
    return metrics


def layer_metrics(
    tracer: Tracer,
    networks: List[str],
    op_ms_by_kind: Dict[str, List[float]],
    overhead: float,
    plan_cache_delta,
) -> Dict[str, float]:
    """Every per-layer metric of the traced timed phase (0 where the
    workload bypasses a layer)."""
    agg = _combined(tracer)
    counters = tracer.counters
    metrics: Dict[str, float] = {
        "trace.timed_s": _total(tracer.agg, (ROOT,), 1),
        "trace.overhead_ratio": overhead,
        "trace.partition_error": partition_error(tracer),
    }
    metrics.update({m: _total(agg, names, 0) for m, names in SELF_TIME.items()})
    metrics.update({m: _total(agg, names, 2) for m, names in CALLS.items()})
    metrics.update({name: counters.get(name, 0.0) for name in COUNTERS})
    batches = counters.get("serving.batches", 0.0)
    metrics["serving.mean_batch"] = (
        counters.get("serving.batched_requests", 0.0) / batches if batches else 0.0
    )
    attempts = counters.get("tuning.attempts", 0.0)
    metrics["tuning.useful_attempt_ratio"] = (
        (attempts - counters.get("tuning.failed_attempts", 0.0)) / attempts
        if attempts else 0.0
    )
    busy = _total(agg, ("tuning.worker_job",), 1)
    slots = counters.get("tuning.slot_s", 0.0)
    metrics["tuning.worker_busy_s"] = busy
    metrics["tuning.pool_utilization"] = busy / slots if slots else 0.0
    metrics["core.plan_cache.hits"] = plan_cache_delta.hits
    metrics["core.plan_cache.misses"] = plan_cache_delta.misses
    for network in networks:
        samples = op_ms_by_kind.get(network)
        metrics[f"nn.forward_p50_ms.{network}"] = (
            statistics.median(samples) if samples else 0.0
        )
    for group in FLOP_GROUPS:
        seconds = _total(agg, (f"nn.layer.{group}",), 0)
        flops = counters.get(f"nn.flops.{group}", 0.0)
        metrics[f"nn.layer_gflop_per_s.{group}"] = (
            flops / seconds / 1e9 if seconds else 0.0
        )
    return metrics


def self_time_table(tracer: Tracer, root: str = ROOT) -> str:
    """Self time, share of the phase and calls per span name; the
    ``root`` row is the time no instrumented layer accounts for."""
    timed = _total(tracer.agg, (root,), 1) or 1.0
    lines = [f"{'span':<28} {'self s':>10} {'share':>7} {'calls':>10}"]
    for name, (self_s, _, calls) in sorted(
        tracer.agg.items(), key=lambda item: -item[1][0]
    ):
        lines.append(
            f"{name:<28} {self_s:>10.4f} {self_s / timed:>7.1%} {calls:>10}"
        )
    if tracer.worker_agg:
        lines.append("worker processes (not part of the partition above):")
        for name, (self_s, _, calls) in sorted(
            tracer.worker_agg.items(), key=lambda item: -item[1][0]
        ):
            lines.append(f"  {name:<26} {self_s:>10.4f} {'':>7} {calls:>10}")
    return "\n".join(lines)

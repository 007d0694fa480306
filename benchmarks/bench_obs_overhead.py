"""Observability overhead guard — disabled instrumentation must be free.

Every hot path in the engine, executor, and serving loop is gated on
``obs.enabled`` against shared no-op singletons.  Wall-clock A/B timing
of a simulated run is too noisy for a 2% assertion in CI, so the guard
is analytic: count what one disabled run performs, time each kind of
operation as the statement it runs, and assert the sum stays under 2%
of the run's real cost.  A run performs three kinds of operation:

* the executor's per-layer and per-copy gates, which read a bool the
  executor cached from ``obs.enabled`` when the run began; they are
  counted by running once with tracing on (each layer span and memcpy
  record there is one gate in the disabled run);
* run-level gates, reads of ``obs.enabled`` itself, counted on the
  disabled run;
* ungated calls on the no-op singletons (``NOOP_TRACER``,
  ``NULL_REGISTRY``, ``NULL_PROVENANCE``), counted per method on the
  disabled run and each charged at the cost of its own call chain.

The operations and the run are timed in interleaved rounds, so a burst
of host contention slows both sides, not one.  A second test pins the
structural invariant the bound relies on: a default-constructed engine
really does share the no-op singletons.

Timelines and the fleet's batch trace cost the event loops nothing by
construction: they are derived after the run, so their guards are
structural (no recorder method and no batch trace event inside the
event loop), plus a bound on the post-run timeline pass.
"""

import inspect
import timeit
from collections import Counter

import pytest

from repro.core.engine import EdgeNN
from repro.core.plan_cache import PlanCache
from repro.obs import NOOP_OBS, Observability
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.provenance import NULL_PROVENANCE
from repro.obs.spans import NOOP_TRACER

from conftest import write_bench_json


def _best_of(stmt, repeats=5, number=2000):
    return min(timeit.repeat(stmt, repeat=repeats, number=number)) / number


class _Gate:
    """Stands in for the executor, whose per-layer and per-copy gates
    read the bool it cached from ``obs.enabled`` (``self._traced``)."""

    def __init__(self) -> None:
        self._traced = NOOP_OBS.enabled


GATE = _Gate()

#: What each kind of gate runs, timed as a statement.
GATE_STATEMENTS = {
    "cached": "if GATE._traced: pass",
    "run": "if NOOP_OBS.enabled: pass",
}

#: The no-op singletons, and the call chain each method heads, timed as
#: a statement.  A disabled run that calls a method missing here fails
#: the guard until its chain is added.
NOOP_SINGLETONS = {
    "NOOP_TRACER": NOOP_TRACER,
    "NULL_REGISTRY": NULL_REGISTRY,
    "NULL_PROVENANCE": NULL_PROVENANCE,
}
NOOP_CALLS = {
    "NOOP_TRACER.span":
        'with NOOP_TRACER.span("x", category="c", a=1) as s: '
        's.set_attributes(a=1)',
    "NOOP_TRACER.record": 'NOOP_TRACER.record("x", 0.0, 1.0, category="c", a=1)',
    "NOOP_TRACER.event": 'NOOP_TRACER.event("x", 0.0, a=1)',
    "NULL_REGISTRY.counter":
        'NULL_REGISTRY.counter("c", "h", labels=("a",)).labels(a="b").inc()',
    "NULL_REGISTRY.gauge":
        'NULL_REGISTRY.gauge("g", "h", labels=("a",)).labels(a="b").set(1.0)',
    "NULL_REGISTRY.histogram":
        'NULL_REGISTRY.histogram("h", "h", labels=("a",))'
        '.labels(a="b").observe(1.0)',
    **{
        f"NULL_PROVENANCE.{name}": f"NULL_PROVENANCE.{name}(None)"
        for name in (
            "record_placement", "record_partition", "record_degradation",
            "record_scaling", "record_alert",
        )
    },
}


def count_disabled_operations(run) -> Counter:
    """Run ``run`` once and count its ``obs.enabled`` reads (``"run"``)
    and its calls on each no-op singleton, by ``"NAME.method"``."""
    counts: Counter = Counter()
    enabled = Observability.enabled

    def counted_enabled(obs):
        counts["run"] += 1
        return enabled.fget(obs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Observability, "enabled", property(counted_enabled))
        for label, singleton in NOOP_SINGLETONS.items():
            cls = type(singleton)
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue

                def counted(self, *args, _key=f"{label}.{name}",
                            _member=member, _singleton=singleton, **kwargs):
                    if self is _singleton:
                        counts[_key] += 1
                    return _member(self, *args, **kwargs)

                patch.setattr(cls, name, counted)
        run()
    return counts


def _interleaved_minima(run, statements, rounds=25, runs=3, number=2000):
    """Best per-call time of ``run`` and of each statement.

    Each round times the run once and every statement once, and each
    keeps its minimum over the rounds."""
    run_timer = timeit.Timer(run)
    timers = {
        key: timeit.Timer(stmt, globals=globals())
        for key, stmt in statements.items()
    }
    run_s = float("inf")
    best = {key: float("inf") for key in statements}
    for _ in range(rounds):
        run_s = min(run_s, run_timer.timeit(number=runs) / runs)
        for key, timer in timers.items():
            best[key] = min(best[key], timer.timeit(number=number) / number)
    return run_s, best


def test_disabled_observability_overhead_under_2_percent():
    # Real per-run cost, measured on a plan tuned outside the loop and a
    # private cache so process-wide state cannot skew the baseline.
    engine = EdgeNN("alexnet", plan_cache=PlanCache())
    engine.tune()

    # One gate per layer step and one per scheduled copy: count them by
    # running once with tracing on, where each layer span and memcpy
    # record is one gate of the disabled run.
    obs = Observability.on()
    counted = EdgeNN("alexnet", plan_cache=PlanCache(), obs=obs)
    counted.run()
    (execute,) = obs.tracer.find(f"execute:{counted.graph.name}")
    cached_gates = len(execute.children) + sum(
        1 for s in obs.tracer.iter_spans() if s.category == "memcpy"
    )
    # Run-level gates and no-op calls: count them on the disabled run.
    counts = count_disabled_operations(engine.run)
    counts["cached"] = cached_gates
    unpriced = sorted(
        key for key in counts if key not in GATE_STATEMENTS
        and key not in NOOP_CALLS
    )
    assert not unpriced, (
        f"a disabled run calls {unpriced}; add their call chains to "
        f"NOOP_CALLS so the guard charges them"
    )

    statements = {**GATE_STATEMENTS, **{
        key: NOOP_CALLS[key] for key in counts if key in NOOP_CALLS
    }}
    run_s, cost_s = _interleaved_minima(engine.run, statements)
    worst_case_overhead = sum(
        count * cost_s[key] for key, count in counts.items()
    )
    charged = ", ".join(
        f"{count} x {key} at {cost_s[key] * 1e9:.0f} ns"
        for key, count in sorted(counts.items())
    )
    assert worst_case_overhead < 0.02 * run_s, (
        f"disabled observability could add "
        f"{worst_case_overhead / run_s:.2%} to a "
        f"{run_s * 1e3:.2f} ms run ({charged}); budget is 2%"
    )
    write_bench_json("obs_overhead", {
        "run_s": run_s,
        "operations": dict(counts),
        "cost_ns": {key: value * 1e9 for key, value in cost_s.items()},
        "worst_case_overhead_pct": 100.0 * worst_case_overhead / run_s,
        "budget_pct": 2.0,
    })


def test_default_engine_shares_noop_singletons():
    engine = EdgeNN("lenet")
    assert engine.obs is NOOP_OBS
    assert engine.obs.tracer is NOOP_TRACER
    assert engine.obs.metrics is NULL_REGISTRY
    assert engine.obs.provenance is NULL_PROVENANCE
    assert not engine.obs.enabled


def test_disabled_run_records_nothing():
    engine = EdgeNN("lenet", plan_cache=PlanCache())
    engine.run()
    assert NOOP_TRACER.roots == []
    assert NULL_REGISTRY.families() == []
    assert NULL_PROVENANCE.placements() == []


def test_disabled_fault_machinery_overhead_under_2_percent():
    """With no fault scenario the serving loop's entire fault path is a
    handful of ``faults is not None`` identity checks per event — bound
    their worst-case cost analytically, same as the obs guard above."""
    from repro.serving import BatchPolicy, ServingConfig, simulate_poisson

    def serve():
        return simulate_poisson(
            "lenet", 200.0, 1.0, seed=3,
            config=ServingConfig(policy=BatchPolicy(max_batch_size=4)),
        )

    report = serve()  # warm the plan cache so timing is the serve loop
    run_s = min(timeit.repeat(serve, repeat=5, number=1))

    # Gated checks per run: one ``faults is not None`` per heap event
    # (arrival + completion + timer <= 3 per offered request), one on
    # each arrival's payload-validation branch, and one per dispatch in
    # batch_service.  Charge everything at the identity-check rate.
    batch_count = int(report.extra["batch_count"])
    gated_checks = 4 * report.offered + 2 * batch_count
    sentinel = None
    per_check_s = _best_of(lambda: sentinel is not None)

    worst_case_overhead = gated_checks * per_check_s
    assert worst_case_overhead < 0.02 * run_s, (
        f"disabled fault injection could add "
        f"{worst_case_overhead / run_s:.2%} to a "
        f"{run_s * 1e3:.2f} ms serve ({gated_checks} gated checks at "
        f"{per_check_s * 1e9:.0f} ns each); budget is 2%"
    )


def _event_loop_flag(monkeypatch):
    """Make the test scenarios importable and wrap
    :meth:`EventEngine.run`; the returned list is non-empty exactly
    while an event loop runs."""
    import pathlib

    from repro.sim.engine import EventEngine

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1]))
    looping = []
    engine_run = EventEngine.run

    def run(self, **callbacks):
        looping.append(True)
        try:
            return engine_run(self, **callbacks)
        finally:
            looping.pop()

    monkeypatch.setattr(EventEngine, "run", run)
    return looping


def test_event_loops_make_no_timeline_calls(monkeypatch):
    """Timelines cost the event loops nothing: both simulators derive
    theirs after the run, from their per-request rows and batch log.
    While :meth:`EventEngine.run` is active, no
    :class:`TimelineRecorder` method may run.  The storm scenarios of
    the outcome goldens reach shed, rejected, failed, abandoned and
    late requests; the cluster storm runs the autoscaler, the one
    setting in which the cluster loop keeps each batch's arrivals (to
    count late responses as misses)."""
    import inspect

    from repro.obs.timeline import TimelineRecorder

    looping = _event_loop_flag(monkeypatch)
    from tests.sim.engine_scenarios import (
        cluster_storm,
        serving_storm_obs,
        serving_storm_obs_naive,
    )

    in_loop_calls = []
    for name, member in list(vars(TimelineRecorder).items()):
        if not inspect.isfunction(member):
            continue

        def wrapped(*args, _name=name, _member=member, **kwargs):
            if looping:
                in_loop_calls.append(_name)
            return _member(*args, **kwargs)

        monkeypatch.setattr(TimelineRecorder, name, wrapped)

    for build in (serving_storm_obs, serving_storm_obs_naive, cluster_storm):
        sim = build()
        report = sim.run()
        assert sim.timeline is not None
        assert report.shed and report.timed_out and report.late
        assert report.failed or getattr(report, "rejected", 0)
    assert in_loop_calls == []


def test_fleet_loop_adds_no_batch_trace_events(monkeypatch):
    """The fleet's Perfetto batch trace is built from its dispatch log
    after the run: while :meth:`EventEngine.run` is active, no
    ``batch`` event may reach :meth:`Trace.add`.  Executor runs on
    service-time memo misses still add their kernel events inside the
    loop; those are allowed."""
    from repro.obs import Observability
    from repro.sim.trace import Trace

    looping = _event_loop_flag(monkeypatch)
    from tests.sim.engine_scenarios import cluster_storm

    in_loop_batches = []
    trace_add = Trace.add

    def add(self, event):
        if looping and event.category == "batch":
            in_loop_batches.append(event)
        return trace_add(self, event)

    monkeypatch.setattr(Trace, "add", add)
    sim = cluster_storm(Observability.on())
    report = sim.run()
    assert len(sim.trace) == sum(r.batches for r in report.replicas) > 0
    assert in_loop_batches == []


def test_timeline_finish_under_15_percent_of_a_serve(monkeypatch):
    """The timeline pass runs once per simulation, after the loop.
    Bound it relative to the run so an accidental per-request Python
    loop (an order of magnitude over the vectorized pass) fails loudly.
    It is timed on the rows and batch log of a real run."""
    from repro.obs.timeline import TimelineRecorder
    from repro.serving import BatchPolicy, ServingConfig
    from repro.serving.simulator import ServingSimulator, poisson_tenant

    def serve(window_s):
        sim = ServingSimulator(
            None, [poisson_tenant("lenet", 2000.0, 2.0, seed=3)],
            ServingConfig(policy=BatchPolicy(max_batch_size=8),
                          timeline_window_s=window_s),
        )
        return sim, sim.run()

    serve(0.0)  # warm the plan cache so timing is the serve loop
    run_s = min(timeit.repeat(lambda: serve(0.0), repeat=5, number=1))

    finish = TimelineRecorder.finish
    calls = []

    def captured(self, *args, **kwargs):
        calls.append((self, args, kwargs))
        return finish(self, *args, **kwargs)

    monkeypatch.setattr(TimelineRecorder, "finish", captured)
    sim, report = serve(0.25)
    ((recorder, args, kwargs),) = calls
    finish_s = min(timeit.repeat(
        lambda: finish(recorder, *args, **kwargs), repeat=3, number=1,
    ))
    assert finish(recorder, *args, **kwargs).digest() == sim.timeline.digest()
    assert finish_s < 0.15 * run_s, (
        f"one-shot timeline finish() took {finish_s * 1e3:.2f} ms "
        f"against a {run_s * 1e3:.2f} ms serve — the windowing pass "
        f"must stay vectorized"
    )

    write_bench_json("timeline_overhead", {
        "run_s": run_s,
        "offered": report.offered,
        "batches": int(report.extra["batch_count"]),
        "finish_us": finish_s * 1e6,
        "finish_pct": 100.0 * finish_s / run_s,
        "budget_pct": 15.0,
    })


def test_no_scenario_leaves_no_fault_state():
    from repro.serving import BatchPolicy, ServingConfig
    from repro.serving.simulator import ServingSimulator, poisson_tenant

    sim = ServingSimulator(
        None, [poisson_tenant("lenet", 50.0, 0.5)],
        ServingConfig(policy=BatchPolicy()),
    )
    report = sim.run()
    assert sim.injector is None
    assert sim.breaker is None
    assert sim.degradation is None
    assert "fault_events" not in report.extra

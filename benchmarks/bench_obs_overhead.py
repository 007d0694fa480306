"""Observability overhead guard — disabled instrumentation must be free.

Every hot path in the engine, executor, and serving loop is gated on
``obs.enabled`` against shared no-op singletons.  Wall-clock A/B timing
of a simulated run is too noisy for a 2% assertion in CI, so the guard
is analytic: time the no-op operations themselves, count how many of
them one run actually performs (by running once with tracing *on* and
counting what was recorded), and assert the product stays under 2% of
the run's real cost.  A second test pins the structural invariant the
bound relies on: a default-constructed engine really does share the
no-op singletons.

Timelines cost the event loops nothing by construction: they are
derived after the run, so their guard is structural (no recorder
method runs inside the event loop), plus a bound on the post-run pass.
"""

import timeit

from repro.core.engine import EdgeNN
from repro.core.plan_cache import PlanCache
from repro.obs import NOOP_OBS, Observability
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.provenance import NULL_PROVENANCE
from repro.obs.spans import NOOP_TRACER

from conftest import write_bench_json


def _best_of(stmt, repeats=5, number=2000):
    return min(timeit.repeat(stmt, repeat=repeats, number=number)) / number


def test_disabled_observability_overhead_under_2_percent():
    # Real per-run cost, measured on a plan tuned outside the loop and a
    # private cache so process-wide state cannot skew the baseline.
    engine = EdgeNN("alexnet", plan_cache=PlanCache())
    engine.tune()
    run_s = min(timeit.repeat(engine.run, repeat=5, number=3)) / 3

    # The disabled path performs exactly one ``obs.enabled`` boolean
    # check per gated block: one per layer step, one per scheduled copy,
    # plus a handful of run-level gates.  Count the blocks by running
    # once with tracing on — each layer span / memcpy record produced
    # there is one boolean check in the disabled case.
    obs = Observability.on()
    counted = EdgeNN("alexnet", plan_cache=PlanCache(), obs=obs)
    counted.run()
    (execute,) = obs.tracer.find(f"execute:{counted.graph.name}")
    n_layer_gates = len(execute.children)
    n_copy_gates = sum(
        1 for s in obs.tracer.iter_spans() if s.category == "memcpy"
    )
    gated_checks = n_layer_gates + n_copy_gates + 8   # + run-level gates

    per_check_s = max(
        _best_of(lambda: NOOP_OBS.enabled),
        # The few non-gated no-op calls (engine.tune's span on the cold
        # path) are covered by charging every gate at the dearest rate.
        _best_of(lambda: NOOP_TRACER.span("x", a=1).__exit__(None, None, None)),
        _best_of(lambda: NULL_REGISTRY.counter("c").labels(a="b").inc()),
        _best_of(lambda: NULL_PROVENANCE.record_placement(None)),
    )

    worst_case_overhead = gated_checks * per_check_s
    assert worst_case_overhead < 0.02 * run_s, (
        f"disabled observability could add "
        f"{worst_case_overhead / run_s:.2%} to a "
        f"{run_s * 1e3:.2f} ms run ({gated_checks} gated checks at "
        f"{per_check_s * 1e9:.0f} ns each); budget is 2%"
    )
    write_bench_json("obs_overhead", {
        "run_s": run_s,
        "gated_checks": gated_checks,
        "per_check_ns": per_check_s * 1e9,
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
    import pathlib

    from repro.obs.timeline import TimelineRecorder
    from repro.sim.engine import EventEngine

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1]))
    from tests.sim.engine_scenarios import (
        cluster_storm,
        serving_storm_obs,
        serving_storm_obs_naive,
    )

    looping = []
    in_loop_calls = []
    engine_run = EventEngine.run

    def run(self, **callbacks):
        looping.append(True)
        try:
            return engine_run(self, **callbacks)
        finally:
            looping.pop()

    monkeypatch.setattr(EventEngine, "run", run)
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

"""Observability threaded through engine, tuner, executor, and serving.

The cardinal rule: instrumentation must never change the simulated
numbers.  Every test here runs the same scenario with observability on
and off and insists the reports agree exactly.
"""

import pytest

from repro.core.engine import EdgeNN
from repro.core.plan_cache import clear_plan_cache
from repro.obs import NOOP_OBS, Observability
from repro.serving.simulator import ServingSimulator, poisson_tenant


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def observed_run(network="lenet"):
    obs = Observability.on()
    engine = EdgeNN(network, obs=obs)
    report = engine.run()
    return obs, report


class TestObservabilityBundle:
    def test_default_is_noop(self):
        assert EdgeNN("lenet").obs is NOOP_OBS
        assert not NOOP_OBS.enabled

    def test_on_is_fresh_and_enabled(self):
        a, b = Observability.on(), Observability.on()
        assert a.enabled and b.enabled
        assert a.tracer is not b.tracer
        assert Observability.off() is NOOP_OBS


class TestEngineInstrumentation:
    def test_identical_numbers_with_obs_on(self):
        obs, observed = observed_run()
        clear_plan_cache()
        plain = EdgeNN("lenet").run()
        assert observed.total_s == plain.total_s
        assert observed.cpu_busy_s == plain.cpu_busy_s
        assert observed.gpu_busy_s == plain.gpu_busy_s
        assert observed.copy_share == plain.copy_share

    def test_span_tree_covers_the_stack(self):
        obs, report = observed_run()
        names = {s.name for s in obs.tracer.iter_spans()}
        assert "plan:lookup" in names
        assert "tune" in names
        assert "execute:lenet" in names
        assert any(n.startswith("layer:") for n in names)

    def test_execute_span_matches_report(self):
        obs, report = observed_run()
        (execute,) = obs.tracer.find("execute")
        assert execute.end_s == pytest.approx(report.total_s)
        layers = [c for c in execute.children if c.name.startswith("layer:")]
        assert layers
        assert all(s.end_s <= report.total_s + 1e-12 for s in layers)

    def test_plan_cache_hit_recorded_on_second_engine(self):
        obs = Observability.on()
        EdgeNN("lenet", obs=obs).run()
        EdgeNN("lenet", obs=obs).run()
        fam = obs.metrics.family("repro_plan_cache_requests_total")
        assert fam.labels(result="miss").value == 1
        assert fam.labels(result="hit").value == 1

    def test_layer_metrics_populated(self):
        obs, _ = observed_run()
        fam = obs.metrics.family("repro_layers_executed_total")
        total = sum(inst.value for _, inst in fam.children())
        assert total == len(obs.tracer.find("layer"))


class TestProvenanceIntegration:
    def test_every_placement_lists_candidate_costs(self):
        obs, _ = observed_run()
        placements = obs.provenance.placements()
        assert placements
        semantic = [p for p in placements if p.policy == "semantic"]
        assert semantic
        for p in semantic:
            kinds = {c.kind for c in p.candidates}
            assert kinds == {"managed", "regular"}, p.buffer
            assert p.reason

    def test_partition_records_compare_eq_candidates(self):
        obs, _ = observed_run()
        partitions = obs.provenance.partitions()
        assert partitions
        for rec in partitions:
            labels = [c.label for c in rec.candidates]
            assert "gpu" in labels and "cpu" in labels
            assert rec.reason
        splits = obs.provenance.partitions(chosen="split")
        for rec in splits:
            split_cand = next(
                c for c in rec.candidates if c.label == "split"
            )
            solo = min(
                c.predicted_s for c in rec.candidates
                if c.label in ("gpu", "cpu")
            )
            assert split_cand.predicted_s <= solo

    def test_final_placements_cover_every_buffer(self):
        obs, _ = observed_run()
        engine_plan_buffers = set()
        clear_plan_cache()
        engine = EdgeNN("lenet")
        engine.tune()
        engine_plan_buffers = set(engine.plan.alloc)
        finals = obs.provenance.final_placements("lenet")
        assert set(finals) == engine_plan_buffers


class TestServingIntegration:
    def scenario(self, obs=None):
        clear_plan_cache()
        sim = ServingSimulator(
            None, [poisson_tenant("lenet", 120.0, 0.4, seed=11)], obs=obs
        )
        return sim, sim.run()

    def test_identical_reports_with_obs_on(self):
        _, plain = self.scenario()
        _, observed = self.scenario(obs=Observability.on())
        assert observed.to_dict() == plain.to_dict()

    def test_plan_cache_counters_in_report(self):
        _, first = self.scenario()
        assert first.plan_cache_misses > 0
        assert first.plan_cache_hits == 0
        # Second identical run: every (network, batch) already tuned.
        sim = ServingSimulator(
            None, [poisson_tenant("lenet", 120.0, 0.4, seed=11)]
        )
        second = sim.run()
        assert second.plan_cache_misses == 0
        assert second.plan_cache_hits == first.plan_cache_misses
        d = second.to_dict()
        assert d["plan_cache_hits"] == second.plan_cache_hits
        assert "plan cache" in second.describe()

    def test_serving_metrics_and_spans(self):
        obs = Observability.on()
        sim, report = self.scenario(obs=obs)
        served = obs.metrics.family(
            "repro_serving_requests_total"
        ).labels(tenant="lenet", outcome="served").value
        assert served == report.served
        hist = obs.metrics.family("repro_serving_batch_size").labels()
        assert hist.count == sum(report.batch_histogram.values())
        (serve,) = obs.tracer.find("serve")
        assert serve.end_s == pytest.approx(report.makespan_s)
        assert len([s for s in obs.tracer.iter_spans()
                    if s.category == "batch"]) == int(
            report.extra["batch_count"]
        )

    def test_requests_and_batches_exposed(self):
        obs = Observability.on()
        sim, report = self.scenario(obs=obs)
        assert len(sim.table) == report.offered
        # One device slice per dispatched batch in the kernel trace.
        assert len(sim.trace.events_for("device")) == int(
            report.extra["batch_count"]
        )

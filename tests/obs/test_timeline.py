"""Windowed telemetry timelines: recorder, artifact, diff, and SLOs."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs import Observability
from repro.obs.timeline import (
    BatchSpans,
    BurnRateRule,
    DiffTolerances,
    SloMonitor,
    SloObjective,
    TimelineArtifact,
    TimelineRecorder,
    diff_timelines,
    sparkline,
)
from repro.sim.engine import (
    FAILED,
    PENDING,
    SERVED,
    TIMED_OUT,
    RequestRows,
)

NAN = float("nan")


def rows(*requests):
    """Rows from ``(arrival, status, finish, dispatch)`` tuples; served
    rows complete in finish order, ties in the order given."""
    cols = np.array(requests, dtype=np.float64).reshape(-1, 4)
    status = cols[:, 1].astype(np.int8)
    finish = cols[:, 2]
    served = np.flatnonzero(status == SERVED)
    served = served[np.argsort(finish[served], kind="stable")]
    return RequestRows(cols[:, 0], finish, cols[:, 3], status, served)


def batches(*spans, busy=()):
    """Batches from ``(start, end, size, energy)`` tuples; ``busy``
    names each batch's device class and busy seconds."""
    cols = np.array(spans, dtype=np.float64).reshape(-1, 4)
    lanes = {}
    for i, (name, busy_s) in enumerate(busy):
        lanes.setdefault(name, np.zeros(len(cols)))[i] = busy_s
    return BatchSpans(cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3], lanes)


def served_at(finish, latencies, dispatch=None):
    """Rows served at ``finish`` with the given latencies."""
    start = finish if dispatch is None else dispatch
    return [(finish - lat, SERVED, finish, start) for lat in latencies]


def small_artifact(**kw):
    """One deterministic two-batch run: 3 offered, 3 served."""
    r = TimelineRecorder(window_s=0.5, source="test", **kw)
    return r.finish(
        rows(
            (0.1, SERVED, 0.6, 0.5),
            (0.2, SERVED, 0.6, 0.5),
            (1.2, SERVED, 1.35, 1.3),
        ),
        batches(
            (0.5, 0.6, 2, 0.2), (1.3, 1.35, 1, 0.0),
            busy=(("cpu", 0.1), ("cpu", 0.05)),
        ),
        horizon_s=1.5, makespan_s=1.35, capacity={"cpu": 1.0},
    )


class TestRecorder:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ReproError):
            TimelineRecorder(0.0)

    def test_counts_land_in_their_windows(self):
        art = small_artifact()
        assert art.windows == 3
        assert art.series["offered"] == [2, 0, 1]
        assert art.series["served"] == [0, 2, 1]
        assert art.series["batches"] == [0, 1, 1]

    def test_event_on_window_edge_opens_next_window(self):
        r = TimelineRecorder(1.0)
        art = r.finish(
            rows((1.0, PENDING, NAN, NAN)), batches(),
            horizon_s=2.0, makespan_s=1.0,
        )
        assert art.series["offered"] == [0, 1]

    def test_negative_timestamp_raises_at_finish(self):
        r = TimelineRecorder(1.0)
        with pytest.raises(ReproError):
            r.finish(
                rows((-0.1, PENDING, NAN, NAN)), batches(),
                horizon_s=1.0, makespan_s=1.0,
            )

    def test_finish_is_pure(self):
        r = TimelineRecorder(0.5)
        run = rows((0.1, SERVED, 0.2, 0.15))
        a = r.finish(run, batches(), horizon_s=1.0, makespan_s=0.5)
        b = r.finish(run, batches(), horizon_s=1.0, makespan_s=0.5)
        assert a.digest() == b.digest()

    def test_queue_depth_is_derived_from_admits_and_leaves(self):
        # offered at 0.1 and 0.2, both leave via the batch dispatched
        # at 0.5: depth integral over window 0 = 0.1*1 + 0.3*2 = 0.7.
        art = small_artifact()
        assert art.series["queue_depth_mean"][0] == pytest.approx(1.4)
        assert art.series["queue_depth_mean"][1] == pytest.approx(0.0)
        assert art.series["queue_depth_max"] == [2, 0, 1]

    def test_fail_fast_failed_counts_as_queue_leave(self):
        # Failed straight out of the queue: it leaves at its dispatch
        # instant although no batch reached the device.
        r = TimelineRecorder(1.0)
        art = r.finish(
            rows((0.0, FAILED, 0.5, 0.5)), batches(),
            horizon_s=2.0, makespan_s=2.0,
        )
        assert art.series["queue_depth_mean"][0] == pytest.approx(0.5)
        assert art.series["queue_depth_mean"][1] == pytest.approx(0.0)

    def test_late_timeout_does_not_touch_queue_depth(self):
        # A late completion left the queue when it was dispatched; only
        # queue abandonment (no dispatch instant) leaves at its finish.
        r = TimelineRecorder(1.0)
        art = r.finish(
            rows((0.0, TIMED_OUT, 0.4, 0.2)), batches((0.2, 0.4, 1, 0.0)),
            horizon_s=1.0, makespan_s=1.0,
        )
        assert art.series["queue_depth_mean"][0] == pytest.approx(0.2)
        assert art.series["late"] == [1]
        assert art.series["timed_out"] == [1]

    def test_latency_quantiles_report_bucket_upper_bounds(self):
        r = TimelineRecorder(1.0)
        art = r.finish(
            rows(*served_at(0.5, [0.004] * 99 + [0.2])), batches(),
            horizon_s=1.0, makespan_s=1.0,
        )
        assert art.series["p50_ms"] == [5.0]
        assert art.series["p99_ms"] == [5.0]
        assert art.series["latency_max_ms"] == [200.0]

    def test_overflow_latency_reports_window_max(self):
        r = TimelineRecorder(200.0)
        art = r.finish(
            rows(*served_at(120.5, [120.0])),  # past the last sketch bound
            batches(), horizon_s=1.0, makespan_s=1.0,
        )
        assert art.series["p99_ms"] == [120000.0]

    def test_batch_span_straddling_windows_splits_energy(self):
        r = TimelineRecorder(1.0)
        art = r.finish(
            rows(), batches((0.5, 1.5, 4, 1.0), busy=(("gpu", 1.0),)),
            horizon_s=2.0, makespan_s=2.0, capacity={"gpu": 1.0},
        )
        assert art.series["energy_j"][0] == pytest.approx(0.5)
        assert art.series["energy_j"][1] == pytest.approx(0.5)
        assert art.utilization["gpu"][0] == pytest.approx(0.5)

    def test_utilization_is_clamped_to_one(self):
        r = TimelineRecorder(1.0)
        art = r.finish(
            rows(), batches((0.0, 1.0, 1, 0.0), busy=(("cpu", 5.0),)),
            horizon_s=1.0, makespan_s=1.0, capacity={"cpu": 1.0},
        )
        assert art.utilization["cpu"] == [1.0]


class TestArtifact:
    def test_dict_round_trip_preserves_digest(self):
        art = small_artifact()
        clone = TimelineArtifact.from_dict(
            json.loads(art.to_json())
        )
        assert clone.digest() == art.digest()

    def test_save_load_round_trip(self, tmp_path):
        art = small_artifact()
        path = art.save(tmp_path / "tl.json")
        assert TimelineArtifact.load(path).digest() == art.digest()

    def test_load_rejects_wrong_schema(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"schema": "other", "version": 1}))
        with pytest.raises(ReproError, match="not a timeline artifact"):
            TimelineArtifact.load(p)

    def test_load_rejects_unknown_version(self, tmp_path):
        doc = small_artifact().to_dict()
        doc["version"] = 999
        p = tmp_path / "x.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ReproError, match="version"):
            TimelineArtifact.load(p)

    def test_load_reports_missing_field(self, tmp_path):
        doc = small_artifact().to_dict()
        del doc["series"]
        p = tmp_path / "x.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ReproError, match="missing field"):
            TimelineArtifact.load(p)

    def test_load_rejects_bad_json_and_non_objects(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ReproError, match="cannot read"):
            TimelineArtifact.load(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ReproError, match="not a JSON object"):
            TimelineArtifact.load(arr)
        with pytest.raises(ReproError, match="cannot read"):
            TimelineArtifact.load(tmp_path / "absent.json")

    def test_derived_metrics(self):
        art = small_artifact()
        assert art.metric("goodput_ratio") == [1.0, 1.0, 1.0]
        assert art.metric("shed_rate") == [0.0, 0.0, 0.0]
        assert art.metric("util:cpu") == art.utilization["cpu"]
        assert art.times_s() == [0.0, 0.5, 1.0]
        assert art.total("served") == 3.0

    def test_unknown_metric_lists_known_names(self):
        with pytest.raises(ReproError, match="goodput_ratio"):
            small_artifact().metric("nope")
        with pytest.raises(ReproError, match="unknown utilization"):
            small_artifact().metric("util:tpu")

    def test_exceedance_boundary_bucket_counts_as_fast(self):
        r = TimelineRecorder(1.0)
        # 10 ms lands exactly on a sketch bound: <=10ms is fast.
        art = r.finish(
            rows(*served_at(0.5, [0.004, 0.009, 0.2])), batches(),
            horizon_s=1.0, makespan_s=1.0,
        )
        assert art.exceedance(10.0) == [pytest.approx(1 / 3)]
        assert art.exceedance(0.001) == [1.0]
        assert art.exceedance(10_000.0) == [0.0]

    def test_describe_renders_every_headline_series(self):
        text = small_artifact().describe()
        assert "goodput_rps" in text
        assert "util:cpu" in text


class TestSparkline:
    def test_empty_series(self):
        assert sparkline([]) == ""

    def test_flat_series_is_flat_mid_bar(self):
        out = sparkline([2.0, 2.0, 2.0])
        assert len(set(out)) == 1 and len(out) == 3

    def test_ramp_spans_the_character_range(self):
        out = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert out[0] == "▁" and out[-1] == "█"

    def test_long_series_downsampled_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40


class TestDiff:
    def test_identical_timelines_do_not_regress(self):
        art = small_artifact()
        diff = diff_timelines(art, art)
        assert not diff.regressed
        assert "verdict: OK" in diff.render()

    def test_served_drop_beyond_tolerance_regresses(self):
        base = small_artifact()
        cur = TimelineArtifact.from_dict(base.to_dict())
        cur.series["served"] = [0, 1, 0]
        diff = diff_timelines(base, cur)
        assert diff.regressed
        assert any("served dropped" in r for r in diff.regressions)

    def test_improvements_never_gate(self):
        base = small_artifact()
        cur = TimelineArtifact.from_dict(base.to_dict())
        cur.series["served"] = [0, 4, 4]
        diff = diff_timelines(base, cur)
        assert not diff.regressed
        assert diff.improvements

    def test_p99_noise_under_absolute_floor_does_not_gate(self):
        base = small_artifact()
        diff = diff_timelines(
            base, base,
            DiffTolerances(max_p99_increase=0.0, p99_floor_ms=1e9),
        )
        assert not diff.regressed

    def test_window_width_mismatch_is_not_comparable(self):
        base = small_artifact()
        other = TimelineArtifact.from_dict(base.to_dict())
        other.window_s = 0.25
        diff = diff_timelines(base, other)
        assert diff.regressed
        assert any("not comparable" in r for r in diff.regressions)

    def test_shed_rate_increase_regresses(self):
        base = small_artifact()
        cur = TimelineArtifact.from_dict(base.to_dict())
        cur.series["shed"] = [2, 0, 0]
        diff = diff_timelines(base, cur)
        assert any("shed rate up" in r for r in diff.regressions)
        assert diff.to_dict()["regressed"] is True


class TestSloObjective:
    def test_parse_both_operators(self):
        lo = SloObjective.parse("goodput_ratio>=0.99")
        hi = SloObjective.parse("p99_ms <= 250")
        assert (lo.metric, lo.op, lo.threshold) == (
            "goodput_ratio", ">=", 0.99
        )
        assert (hi.metric, hi.op, hi.threshold) == ("p99_ms", "<=", 250.0)
        assert lo.name == "goodput_ratio>=0.99"

    @pytest.mark.parametrize(
        "text", ["goodput_ratio", "p99_ms<=fast", ">=0.5", "x==1"]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ReproError):
            SloObjective.parse(text)

    def test_budgets(self):
        assert SloObjective.parse(
            "goodput_ratio>=0.99"
        ).budget() == pytest.approx(0.01)
        assert SloObjective.parse(
            "p99_ms<=250"
        ).budget() == pytest.approx(0.01)
        assert SloObjective.parse("queue_depth_mean<=4").budget() == 1.0

    def test_rule_validation(self):
        with pytest.raises(ReproError):
            BurnRateRule(short_windows=3, long_windows=2)
        with pytest.raises(ReproError):
            BurnRateRule(factor=0.0)


def degraded_artifact(bad_windows, total=10, served_per_window=10):
    """A timeline where the given windows serve nothing at all."""
    requests, spans = [], []
    for w in range(total):
        t = w + 0.5
        if w in bad_windows:
            requests += [(t, TIMED_OUT, t, NAN)] * served_per_window
        else:
            spans.append((t, t + 0.01, served_per_window, 0.0))
            requests += [(t, SERVED, t + 0.01, t)] * served_per_window
    r = TimelineRecorder(1.0, source="slo-test")
    return r.finish(
        rows(*requests), batches(*spans),
        horizon_s=float(total), makespan_s=float(total),
    )


class TestSloMonitor:
    def test_sustained_burn_fires_and_resolves(self):
        art = degraded_artifact({2, 3, 4, 5})
        monitor = SloMonitor(
            [SloObjective.parse("goodput_ratio>=0.99")],
            BurnRateRule(short_windows=1, long_windows=3, factor=1.0),
        )
        report = monitor.evaluate(art)
        assert report.firing
        alert = report.alerts[0]
        assert alert.fired_at_s == 2.0
        assert alert.resolved
        assert report.peak_burn["goodput_ratio>=0.99"] > 1.0
        assert "FIRED" in report.render()

    def test_long_window_suppresses_a_single_blip(self):
        # One bad window out of ten: the short window burns hot but the
        # 5-window long mean stays under the factor, so nothing pages.
        art = degraded_artifact({5})
        monitor = SloMonitor(
            [SloObjective.parse("goodput_ratio>=0.9")],
            BurnRateRule(short_windows=1, long_windows=5, factor=4.0),
        )
        report = monitor.evaluate(art)
        assert not report.firing
        assert report.peak_burn["goodput_ratio>=0.9"] > 0.0

    def test_unresolved_alert_reaches_end_of_run(self):
        art = degraded_artifact({7, 8, 9})
        monitor = SloMonitor(
            [SloObjective.parse("goodput_ratio>=0.99")],
            BurnRateRule(short_windows=1, long_windows=2),
        )
        report = monitor.evaluate(art)
        assert report.firing
        assert not report.alerts[-1].resolved
        assert report.to_dict()["firing"] is True

    def test_monitor_requires_objectives(self):
        with pytest.raises(ReproError):
            SloMonitor([])

    def test_record_mirrors_alerts_into_provenance(self):
        art = degraded_artifact({2, 3, 4})
        monitor = SloMonitor(
            [SloObjective.parse("goodput_ratio>=0.99")],
            BurnRateRule(short_windows=1, long_windows=2),
        )
        report = monitor.evaluate(art)
        obs = Observability.on()
        monitor.record(report, obs)
        fired = obs.provenance.alerts(event="fired")
        assert len(fired) == len(report.alerts)
        assert fired[0].objective == "goodput_ratio>=0.99"
        resolved = obs.provenance.alerts(event="resolved")
        assert len(resolved) == sum(a.resolved for a in report.alerts)

    def test_apply_drives_degradation_hooks(self):
        art = degraded_artifact({2, 3, 4})
        monitor = SloMonitor(
            [SloObjective.parse("goodput_ratio>=0.99")],
            BurnRateRule(short_windows=1, long_windows=2),
        )
        report = monitor.evaluate(art)

        calls = []

        class StubDegradation:
            def note_slo_alert(self, tenant, network, **kw):
                calls.append((network, kw["objective"]))

        n = monitor.apply(report, StubDegradation(), "lenet")
        assert n == len(report.alerts) == len(calls)
        assert calls[0] == ("lenet", "goodput_ratio>=0.99")
        assert monitor.apply(report, None, "lenet") == 0


class TestServingIntegration:
    def run_sim(self, **cfg_kw):
        from repro.serving import BatchPolicy, ServingConfig
        from repro.serving.simulator import (
            ServingSimulator, poisson_tenant,
        )

        sim = ServingSimulator(
            None,
            [poisson_tenant("lenet", 300.0, 1.0, seed=9)],
            ServingConfig(
                policy=BatchPolicy(max_batch_size=8),
                timeline_window_s=0.25,
                **cfg_kw,
            ),
        )
        return sim, sim.run()

    def test_timeline_conserves_report_totals(self):
        sim, report = self.run_sim()
        art = sim.timeline
        assert art is not None
        assert art.total("offered") == report.offered
        assert art.total("served") == report.served
        assert art.total("shed") == report.shed
        assert art.total("timed_out") == report.timed_out
        assert art.total("late") == report.late
        assert art.total("batches") == report.extra["batch_count"]

    def test_same_seed_reruns_are_digest_identical(self):
        a, _ = self.run_sim()
        b, _ = self.run_sim()
        assert a.timeline.digest() == b.timeline.digest()

    def test_slos_produce_a_report(self):
        sim, _ = self.run_sim(
            slos=(SloObjective.parse("goodput_ratio>=0.5"),),
        )
        assert sim.slo_report is not None
        assert sim.slo_report.objectives[0].metric == "goodput_ratio"


class TestClusterIntegration:
    def run_cluster(self):
        from repro.cluster import (
            ClusterConfig, ClusterSimulator, ClusterTenant, DeviceMix,
        )
        from repro.serving import BatchPolicy
        from repro.workloads import PoissonArrivals

        sim = ClusterSimulator(
            [ClusterTenant("squeezenet", PoissonArrivals(80.0, 2.0, seed=4))],
            DeviceMix.parse("jetson-agx-xavier:2"),
            2,
            ClusterConfig(
                policy=BatchPolicy(
                    max_batch_size=8, max_wait_s=0.0,
                    max_queue_depth=64, deadline_s=0.5,
                ),
                seed=4,
                timeline_window_s=0.5,
            ),
        )
        return sim, sim.run()

    def test_timeline_conserves_report_totals(self):
        sim, report = self.run_cluster()
        art = sim.timeline
        assert art is not None
        assert art.total("offered") == report.offered
        assert art.total("served") == report.served
        assert art.total("shed") == report.shed
        assert art.total("timed_out") == report.timed_out
        assert art.total("late") == report.late
        assert art.total("batches") == sum(
            r.batches for r in report.replicas
        )

    def test_cross_process_digests_are_bit_identical(self):
        script = (
            "from repro.cluster import ClusterConfig, ClusterSimulator, "
            "ClusterTenant, DeviceMix\n"
            "from repro.serving import BatchPolicy\n"
            "from repro.workloads import PoissonArrivals\n"
            "sim = ClusterSimulator(\n"
            "    [ClusterTenant('squeezenet', "
            "PoissonArrivals(80.0, 2.0, seed=4))],\n"
            "    DeviceMix.parse('jetson-agx-xavier:2'), 2,\n"
            "    ClusterConfig(policy=BatchPolicy(max_batch_size=8, "
            "max_wait_s=0.0, max_queue_depth=64, deadline_s=0.5), "
            "seed=4, timeline_window_s=0.5))\n"
            "sim.run()\n"
            "print(sim.timeline.digest())\n"
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(digests) == 1
        assert len(next(iter(digests))) == 64

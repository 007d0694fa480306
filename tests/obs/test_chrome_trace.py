"""Merged Chrome-trace export: kernel timeline + request lifecycle."""

import json
import math

from repro.obs.export import REQUEST_PID, SIM_PID, chrome_trace
from repro.sim.engine import SERVED, SHED, TIMED_OUT, RequestTable
from repro.sim.trace import Trace, TraceEvent

#: tenant names the test tables' tenant column indexes.
TENANTS = ("lenet",)


def kernel_trace():
    trace = Trace()
    trace.add(TraceEvent("gpu", "conv1", 0.0, 0.001, "kernel"))
    trace.add(TraceEvent("cpu", "relu1", 0.001, 0.0015, "kernel"))
    trace.add(TraceEvent("copy", "memcpy:x", 0.0015, 0.002, "copy"))
    return trace


def served_request(arrival=0.0, dispatch=0.001, finish=0.002):
    """(arrival, status, dispatch, finish, batch size) of a table row."""
    return (arrival, SERVED, dispatch, finish, 2)


def shed_request(arrival=0.5):
    return (arrival, SHED, math.nan, arrival, 0)


def request_table(*requests):
    """A request table with one row per request; the row index is the
    request id."""
    table = RequestTable(len(requests))
    for arrival, status, dispatch, finish, size in requests:
        idx = table.append(arrival, 0)
        table.status[idx] = status
        table.dispatch_s[idx] = dispatch
        table.finish_s[idx] = finish
        table.batch_size[idx] = size
    return table


class TestMergedTrace:
    def events(self, *requests, kernel_trace=None):
        table = request_table(*requests) if requests else None
        doc = json.loads(chrome_trace(kernel_trace, table, TENANTS))
        assert "traceEvents" in doc
        return doc["traceEvents"]

    def test_valid_json_with_both_sides(self):
        evs = self.events(served_request(), kernel_trace=kernel_trace())
        pids = {e["pid"] for e in evs}
        assert pids == {SIM_PID, REQUEST_PID}

    def test_kernel_only_degrades_gracefully(self):
        evs = self.events(kernel_trace=kernel_trace())
        assert {e["pid"] for e in evs} == {SIM_PID}
        slices = [e for e in evs if e["ph"] == "X"]
        assert {s["name"] for s in slices} == {"conv1", "relu1", "memcpy:x"}

    def test_requests_only_degrades_gracefully(self):
        evs = self.events(served_request())
        assert {e["pid"] for e in evs} == {REQUEST_PID}

    def test_empty_trace_is_valid(self):
        assert self.events() == []
        # An empty request table contributes no process metadata.
        doc = json.loads(chrome_trace(None, RequestTable(), TENANTS))
        assert doc["traceEvents"] == []

    def test_timestamps_monotone_after_metadata(self):
        evs = self.events(served_request(), shed_request(),
                          kernel_trace=kernel_trace())
        body = [e for e in evs if e["ph"] != "M"]
        ts = [e["ts"] for e in body]
        assert ts == sorted(ts)

    def test_metadata_first(self):
        evs = self.events(served_request(), kernel_trace=kernel_trace())
        phases = [e["ph"] for e in evs]
        last_meta = max(i for i, p in enumerate(phases) if p == "M")
        first_body = min(i for i, p in enumerate(phases) if p != "M")
        assert last_meta < first_body

    def test_flow_events_are_paired_by_id(self):
        reqs = [served_request(arrival=i * 0.01,
                               dispatch=i * 0.01 + 0.005,
                               finish=i * 0.01 + 0.008)
                for i in range(5)]
        evs = self.events(*reqs)
        starts = {e["id"]: e["ts"] for e in evs if e["ph"] == "s"}
        finishes = {e["id"]: e["ts"] for e in evs if e["ph"] == "f"}
        assert set(starts) == set(finishes) == {str(i) for i in range(5)}
        for rid in starts:
            assert starts[rid] <= finishes[rid]
        for e in evs:
            if e["ph"] == "f":
                assert e["bp"] == "e"

    def test_async_track_spans_arrival_to_finish(self):
        evs = self.events(shed_request(),
                          served_request(arrival=0.25, finish=0.75))
        begin = next(e for e in evs if e["ph"] == "b")
        end = next(e for e in evs if e["ph"] == "e")
        assert begin["id"] == end["id"] == "1"
        assert begin["ts"] == 0.25e6
        assert end["ts"] == 0.75e6
        assert begin["args"] == {"tenant": "lenet", "batch_size": 2}

    def test_shed_request_is_instant_event(self):
        evs = self.events(shed_request())
        instants = [e for e in evs if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "shed:req0"
        assert instants[0]["s"] == "t"
        assert not [e for e in evs if e["ph"] in ("s", "f")]

    def test_undispatched_request_has_no_flow(self):
        # Abandoned in its queue: a lifecycle track, but no dispatch.
        evs = self.events((0.1, TIMED_OUT, math.nan, 0.3, 0))
        assert [e["ph"] for e in evs if e["ph"] != "M"] == ["b", "e"]

    def test_microsecond_units(self):
        evs = self.events(kernel_trace=kernel_trace())
        import pytest

        conv = next(e for e in evs if e.get("name") == "conv1")
        assert conv["ts"] == 0
        assert conv["dur"] == pytest.approx(1000)  # 0.001 s

    def test_process_names_label_both_pids(self):
        evs = self.events(served_request(), kernel_trace=kernel_trace())
        names = {e["pid"]: e["args"]["name"] for e in evs
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {SIM_PID: "simulator", REQUEST_PID: "requests"}

    def test_records_have_required_fields(self):
        evs = self.events(kernel_trace=kernel_trace())
        slices = [e for e in evs if e["ph"] == "X"]
        assert len(slices) == 3
        for record in slices:
            assert {"name", "ts", "dur", "pid", "tid"} <= set(record)

    def test_thread_names_metadata(self):
        evs = self.events(kernel_trace=kernel_trace())
        names = [e["args"]["name"] for e in evs
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert sorted(names) == ["copy", "cpu", "gpu"]

    def test_process_name_and_sort_index_metadata(self):
        evs = self.events(kernel_trace=kernel_trace())
        meta = [e for e in evs if e["ph"] == "M"]
        assert {m["name"] for m in meta} == {
            "process_name", "thread_name", "thread_sort_index",
        }
        for m in meta:
            # A process record names the process, so it carries no tid.
            assert ("tid" in m) == (m["name"] != "process_name")
        sort_index = {m["tid"]: m["args"]["sort_index"] for m in meta
                      if m["name"] == "thread_sort_index"}
        assert sort_index == {1: 1, 2: 2, 3: 3}


class TestEndToEndServingTrace:
    def test_simulated_run_exports_loadable_trace(self):
        from repro.obs import Observability
        from repro.serving.simulator import ServingSimulator, poisson_tenant

        obs = Observability.on()
        sim = ServingSimulator(
            None, [poisson_tenant("lenet", 150.0, 0.3, seed=3)], obs=obs
        )
        report = sim.run()
        doc = json.loads(chrome_trace(sim.trace, sim.table, ["lenet"]))
        evs = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        # one flow pair per served request
        starts = [e for e in evs if e["ph"] == "s"]
        finishes = [e for e in evs if e["ph"] == "f"]
        assert len(starts) == len(finishes) == report.served
        # kernel intervals exist alongside request events
        assert any(e["pid"] == SIM_PID and e["ph"] == "X" for e in evs)
        body = [e for e in evs if e["ph"] != "M"]
        assert all(e["ts"] >= 0 for e in body)
        ts = [e["ts"] for e in body]
        assert ts == sorted(ts)


class TestClusterPerfettoExport:
    """The fleet simulator's batch-slice trace through chrome_trace."""

    def run_cluster(self, *, obs=None, rate=60.0):
        from repro.cluster import (
            ClusterConfig, ClusterSimulator, ClusterTenant, DeviceMix,
        )
        from repro.workloads import PoissonArrivals

        sim = ClusterSimulator(
            [ClusterTenant("squeezenet", PoissonArrivals(rate, 1.0, seed=2))],
            DeviceMix.parse("jetson-agx-xavier:2"),
            2,
            ClusterConfig(seed=2),
            obs=obs,
        )
        return sim, sim.run()

    def test_cluster_run_exports_loadable_trace(self):
        from repro.obs import Observability

        sim, report = self.run_cluster(obs=Observability.on())
        assert sim.trace is not None
        doc = json.loads(chrome_trace(kernel_trace=sim.trace))
        evs = doc["traceEvents"]
        slices = [e for e in evs if e["ph"] == "X"]
        # one complete slice per dispatched batch, all on the sim pid
        batch_total = sum(
            sum(p.batch_histogram.values()) for p in report.pools
        )
        assert slices and len(slices) == batch_total
        assert all(e["pid"] == SIM_PID for e in slices)
        assert all(e["dur"] >= 0 for e in slices)
        assert any("batch" in e["name"] for e in slices)
        ts = [e["ts"] for e in evs if e["ph"] != "M"]
        assert ts == sorted(ts)

    def test_disabled_observability_records_no_trace(self):
        sim, report = self.run_cluster(obs=None)
        assert sim.trace is None
        assert report.served > 0

    def test_empty_cluster_trace_exports_cleanly(self):
        # A fleet that admits traffic but never dispatches (the horizon
        # closes before any batch forms) still yields valid JSON.
        doc = json.loads(chrome_trace(kernel_trace=Trace()))
        assert doc["traceEvents"] == []
        assert doc["displayTimeUnit"] == "ms"

    def test_no_inputs_at_all_is_an_empty_trace(self):
        doc = json.loads(chrome_trace())
        assert doc == {"traceEvents": [], "displayTimeUnit": "ms"}

"""Tests for the module-qualified project call graph."""

import json

from repro.analysis.callgraph import build_call_graph, module_name_for
from repro.analysis.lint import LintContext

from .conftest import REPO_ROOT, build_graph


class TestModuleNames:
    def test_src_prefix_is_stripped(self):
        assert module_name_for("src/repro/tuning/queue.py") == "repro.tuning.queue"

    def test_fixture_trees_keep_their_shape(self):
        assert module_name_for("sim/rng.py") == "sim.rng"

    def test_package_init_names_the_package(self):
        assert module_name_for("src/repro/analysis/__init__.py") == "repro.analysis"


class TestResolution:
    def test_self_method_calls_resolve(self, tmp_path):
        graph = build_graph(tmp_path, [("call_shapes.py", "store/shapes.py")])
        assert "store.shapes.Shared._helper" in graph.callees_of(
            "store.shapes.Shared.put"
        )

    def test_attr_typed_cross_class_calls_resolve(self, tmp_path):
        graph = build_graph(tmp_path, [("call_shapes.py", "tuning/shapes.py")])
        # self.left.prod() resolves through the annotated __init__ param.
        assert "tuning.shapes.Left.prod" in graph.callees_of(
            "tuning.shapes.Right.poke"
        )
        assert "tuning.shapes.Right.poke" in graph.callers_of(
            "tuning.shapes.Left.prod"
        )
        assert "tuning.shapes.Right.prod_inner" in graph.callees_of(
            "tuning.shapes.Left.poke"
        )

    def test_plain_function_calls_resolve(self, tmp_path):
        graph = build_graph(tmp_path, [("taint_bad.py", "sim/rng.py")])
        sites = graph.call_sites_of("sim.rng.untainted")
        assert len(sites) == 2
        assert {s.caller for s in sites} == {"sim.rng.run"}

    def test_dynamic_calls_produce_no_edge(self, tmp_path):
        target = tmp_path / "sim" / "dyn.py"
        target.parent.mkdir()
        target.write_text(
            "def run(callback):\n"
            "    callback()\n"
            "    getattr(run, '__call__')()\n"
        )
        graph = build_call_graph(
            [LintContext.for_file(target, "sim/dyn.py")]
        )
        assert graph.callees_of("sim.dyn.run") == set()


class TestDump:
    def test_to_dict_is_deterministic_json(self, tmp_path):
        plants = [
            ("taint_bad.py", "sim/rng.py"),
            ("call_shapes.py", "store/shapes.py"),
        ]
        one = build_graph(tmp_path / "a", plants).to_dict()
        two = build_graph(tmp_path / "b", plants).to_dict()
        assert one["schema"] == "repro.analysis-callgraph"
        assert one["version"] == 1
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)

    def test_repo_graph_resolves_the_lease_failure_path(self):
        """The real tree's expire_leases -> _record_failure edge exists."""
        queue_py = REPO_ROOT / "src" / "repro" / "tuning" / "queue.py"
        ctx = LintContext.for_file(queue_py, "src/repro/tuning/queue.py")
        graph = build_call_graph([ctx])
        callees = graph.callees_of("repro.tuning.queue.JobQueue.expire_leases")
        assert "repro.tuning.queue.JobQueue._record_failure" in callees

"""Tests for lock escape analysis and the REPRO220 lock-order pass."""

import ast

from repro.analysis.callgraph import build_call_graph
from repro.analysis.lint import LintContext
from repro.analysis.locks import (
    LockOrderAnalysis,
    analyze_class_escapes,
    check_file,
    check_lock_order,
    proven_lock_held,
)

from .conftest import FIXTURES, build_graph, plant_fixture


def class_from(fixture: str) -> ast.ClassDef:
    tree = ast.parse((FIXTURES / fixture).read_text())
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            return node
    raise AssertionError(f"no class in {fixture}")


class TestEscapeAnalysis:
    def test_lock_held_helpers_are_proven(self):
        cls = class_from("escape_ok.py")
        proof = analyze_class_escapes(cls, {"_lock"})
        assert set(proof.proven) == {"_helper", "_reset", "_clear"}
        assert proof.unproven == {}

    def test_transitive_proof_through_proven_caller(self):
        # _clear is only called from _reset, which is itself proven:
        # the fixed point must chain the proof.
        cls = class_from("escape_ok.py")
        assert "_clear" in proven_lock_held(cls)

    def test_unlocked_call_site_blocks_the_proof(self):
        cls = class_from("escape_bad.py")
        proof = analyze_class_escapes(cls, {"_lock"})
        assert proof.proven == {}
        assert "called without the lock from put" in proof.unproven["_helper"]

    def test_escaped_value_reference_blocks_the_proof(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def run(self, pool):\n"
            "        with self._lock:\n"
            "            pool.submit(self._work)\n"
            "    def _work(self):\n"
            "        pass\n"
        )
        cls = ast.parse(src).body[1]
        assert isinstance(cls, ast.ClassDef)
        proof = analyze_class_escapes(cls, {"_lock"})
        assert "escapes as a value" in proof.unproven["_work"]


class TestRepro201Integration:
    def test_proven_helper_no_longer_flags(self, tmp_path):
        target = plant_fixture(tmp_path, "escape_ok.py", "store/shared.py")
        assert check_file(target) == []

    def test_unproven_helper_still_flags(self, tmp_path):
        target = plant_fixture(tmp_path, "escape_bad.py", "store/shared.py")
        findings = check_file(target)
        assert [f.rule for f in findings] == ["REPRO201"]
        assert findings[0].symbol == "Shared._helper"


class TestLockOrder:
    def test_opposite_order_is_a_cycle(self, tmp_path):
        graph = build_graph(tmp_path, [("lockorder_bad.py", "tuning/order.py")])
        analysis = LockOrderAnalysis(graph).build()
        assert analysis.cycles() == [(
            "tuning.order.Left._left_lock",
            "tuning.order.Right._right_lock",
        )]
        findings = analysis.check()
        assert [f.rule for f in findings] == ["REPRO220"]
        assert "potential deadlock" in findings[0].message

    def test_consistent_order_is_clean(self, tmp_path):
        graph = build_graph(tmp_path, [("lockorder_ok.py", "tuning/pair.py")])
        analysis = LockOrderAnalysis(graph).build()
        # Edges exist (a held while b is taken) but no cycle.
        assert ("tuning.pair.Pair._a_lock", "tuning.pair.Pair._b_lock") in (
            analysis.edges
        )
        assert analysis.cycles() == []
        assert analysis.check() == []

    def test_reentrant_self_acquisition_is_not_an_edge(self, tmp_path):
        target = tmp_path / "tuning" / "reent.py"
        target.parent.mkdir()
        target.write_text(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            self.inner()\n"
            "    def inner(self):\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        graph = build_call_graph(
            [LintContext.for_file(target, "tuning/reent.py")]
        )
        analysis = LockOrderAnalysis(graph).build()
        assert analysis.edges == {}

    def test_pragma_suppresses_the_cycle(self, tmp_path):
        # The finding anchors at the lexically smallest edge — the
        # Left._left_lock -> Right._right_lock acquisition in Left.poke.
        text = (FIXTURES / "lockorder_bad.py").read_text().replace(
            "self.right.prod_inner()",
            "self.right.prod_inner()  # repro-analysis: ignore[REPRO220]",
        )
        target = tmp_path / "tuning" / "order.py"
        target.parent.mkdir()
        target.write_text(text)
        graph = build_call_graph(
            [LintContext.for_file(target, "tuning/order.py")]
        )
        assert check_lock_order(graph) == []

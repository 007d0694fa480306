"""Tests for the REPRO201 lock-discipline heuristic."""

import pathlib

from repro.analysis.locks import check_file, is_threaded_module

from .conftest import plant_fixture


class TestLockHeuristic:
    def test_flags_unlocked_mutations(self, tmp_path):
        target = plant_fixture(tmp_path, "lock_bad.py", "serving/registry.py")
        findings = check_file(target)
        assert [f.rule for f in findings] == ["REPRO201"] * 3
        symbols = sorted(f.symbol for f in findings)
        assert symbols == [
            "Registry.drain", "Registry.note_miss", "Registry.put",
        ]

    def test_init_is_exempt(self, tmp_path):
        target = plant_fixture(tmp_path, "lock_bad.py", "serving/registry.py")
        assert all("__init__" not in f.symbol for f in check_file(target))

    def test_locked_mutations_are_clean(self, tmp_path):
        target = plant_fixture(tmp_path, "lock_ok.py", "serving/registry.py")
        assert check_file(target) == []

    def test_suppression_pragma(self, tmp_path):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        self.n += 1  # repro-analysis: ignore[REPRO201]\n"
        )
        target = tmp_path / "serving" / "c.py"
        target.parent.mkdir()
        target.write_text(src)
        assert check_file(target) == []


class TestScoping:
    def test_threaded_module_paths(self):
        assert is_threaded_module(pathlib.Path("src/repro/serving/queue.py"))
        assert is_threaded_module(pathlib.Path("src/repro/core/plan_cache.py"))
        assert not is_threaded_module(pathlib.Path("src/repro/core/engine.py"))

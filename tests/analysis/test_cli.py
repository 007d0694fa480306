"""End-to-end CLI contract: exit codes of `repro analyze` and
`repro check-plan` as subprocesses, the way CI invokes them."""

import json
import os
import subprocess
import sys

from .conftest import FIXTURES, GOLDEN_ARTIFACTS, GOLDEN_SCENARIOS, REPO_ROOT


def run_cli(*args, cwd=None, env_extra=None, pythonpath_extra=()):
    env = dict(os.environ)
    path = [str(REPO_ROOT / "src"), *map(str, pythonpath_extra)]
    env["PYTHONPATH"] = os.pathsep.join(path)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=cwd or REPO_ROOT,
    )


class TestCheckPlan:
    def test_golden_artifacts_exit_zero(self):
        result = run_cli(
            "check-plan",
            str(GOLDEN_ARTIFACTS / "lenet.plan.json"),
            str(GOLDEN_ARTIFACTS / "alexnet.plan.json"),
            str(GOLDEN_SCENARIOS / "edge_storm.json"),
        )
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout

    def test_corrupt_artifact_exits_two(self, tmp_path):
        data = json.loads((GOLDEN_ARTIFACTS / "lenet.plan.json").read_text())
        data["checksum"] = "0" * 64
        corrupt = tmp_path / "corrupt.plan.json"
        corrupt.write_text(json.dumps(data))
        result = run_cli("check-plan", str(corrupt))
        assert result.returncode == 2
        assert "REPRO302" in result.stdout

    def test_json_format(self, tmp_path):
        result = run_cli(
            "check-plan", "--format", "json",
            str(GOLDEN_ARTIFACTS / "lenet.plan.json"),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["clean"] is True

    def test_missing_file_exits_two(self, tmp_path):
        result = run_cli("check-plan", str(tmp_path / "nope.json"))
        assert result.returncode == 2


class TestAnalyze:
    def test_violation_without_baseline_exits_one(self, tmp_path):
        bad = tmp_path / "sim" / "timeline.py"
        bad.parent.mkdir()
        bad.write_text((FIXTURES / "wall_clock_bad.py").read_text())
        result = run_cli(
            "analyze", str(tmp_path), "--no-baseline", "--no-catalogs",
        )
        assert result.returncode == 1
        assert "REPRO101" in result.stdout

    def test_write_baseline_then_clean(self, tmp_path):
        bad = tmp_path / "sim" / "timeline.py"
        bad.parent.mkdir()
        bad.write_text((FIXTURES / "wall_clock_bad.py").read_text())
        baseline = tmp_path / "baseline.json"
        first = run_cli(
            "analyze", str(tmp_path), "--no-catalogs",
            "--baseline", str(baseline), "--write-baseline",
        )
        assert first.returncode == 0, first.stderr
        second = run_cli(
            "analyze", str(tmp_path), "--no-catalogs",
            "--baseline", str(baseline),
        )
        assert second.returncode == 0, second.stdout
        assert "0 new finding(s)" in second.stdout

    def test_rule_selection(self, tmp_path):
        bad = tmp_path / "sim" / "timeline.py"
        bad.parent.mkdir()
        bad.write_text((FIXTURES / "wall_clock_bad.py").read_text())
        result = run_cli(
            "analyze", str(tmp_path), "--no-baseline", "--no-catalogs",
            "--rules", "REPRO106",
        )
        assert result.returncode == 0, result.stdout

    def test_unknown_rule_exits_two(self, tmp_path):
        result = run_cli(
            "analyze", str(tmp_path), "--no-baseline", "--no-catalogs",
            "--rules", "REPRO999",
        )
        assert result.returncode == 2

    def test_json_format(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        result = run_cli(
            "analyze", str(tmp_path), "--no-baseline", "--no-catalogs",
            "--format", "json",
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["clean"] is True
        assert payload["files_analyzed"] == 1


class TestDataflowFamilies:
    """Each new rule family catches its deliberate violation with exit 1,
    exactly as CI runs it."""

    def plant(self, tmp_path, fixture, dest):
        target = tmp_path / dest
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text((FIXTURES / fixture).read_text())
        return target

    def test_unseeded_rng_exits_one(self, tmp_path):
        self.plant(tmp_path, "taint_bad.py", "sim/rng.py")
        result = run_cli(
            "analyze", str(tmp_path), "--no-baseline", "--no-catalogs",
            "--rules", "REPRO21x",
        )
        assert result.returncode == 1
        assert "REPRO210" in result.stdout
        assert "REPRO211" in result.stdout

    def test_raw_manifest_write_exits_one(self, tmp_path):
        self.plant(tmp_path, "durability_bad.py", "store/writer.py")
        result = run_cli(
            "analyze", str(tmp_path), "--no-baseline", "--no-catalogs",
            "--rules", "REPRO23x",
        )
        assert result.returncode == 1
        assert "REPRO230" in result.stdout
        assert "REPRO231" in result.stdout

    def test_lease_release_reorder_exits_one(self, tmp_path):
        result = run_cli(
            "analyze", str(tmp_path), "--no-baseline", "--no-catalogs",
            "--rules", "REPRO24x",
            env_extra={
                "REPRO_ANALYSIS_QUEUE_CLASS": "buggy_queue:ReorderQueue",
            },
            pythonpath_extra=[FIXTURES],
        )
        assert result.returncode == 1
        assert "REPRO240" in result.stdout
        assert "complete-postcondition" in result.stdout

    def test_real_queue_model_check_exits_zero(self, tmp_path):
        result = run_cli(
            "analyze", str(tmp_path), "--no-baseline", "--no-catalogs",
            "--rules", "REPRO24x",
        )
        assert result.returncode == 0, result.stdout

    def test_all_families_on_clean_tree_exit_zero(self, tmp_path):
        self.plant(tmp_path, "taint_ok.py", "sim/rng.py")
        self.plant(tmp_path, "durability_ok.py", "store/writer.py")
        result = run_cli(
            "analyze", str(tmp_path), "--no-baseline", "--no-catalogs",
            "--rules", "REPRO21x,REPRO23x,REPRO24x",
        )
        assert result.returncode == 0, result.stdout

    def test_graph_dump_is_written(self, tmp_path):
        self.plant(tmp_path, "taint_ok.py", "sim/rng.py")
        graph_file = tmp_path / "callgraph.json"
        result = run_cli(
            "analyze", str(tmp_path / "sim"), "--no-baseline",
            "--no-catalogs", "--graph", str(graph_file),
        )
        assert result.returncode == 0, result.stdout
        assert f"call graph written to {graph_file}" in result.stderr
        payload = json.loads(graph_file.read_text())
        assert payload["schema"] == "repro.analysis-callgraph"
        # Module names derive from paths relative to the repo root, so
        # the tmp tree gets absolute-path-shaped names; the graph's
        # content (functions and edges) is what matters here.
        assert any(
            fn["qualname"].endswith(".rng.spawn")
            for fn in payload["functions"]
        )
        assert payload["edges"]

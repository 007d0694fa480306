"""Smoke test of the end-to-end benchmark: every workload at reduced
scale, untraced and traced, plus the command-line contract.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

#: reduced size per workload, and a per-layer metric it must exercise
SMOKE = {
    "serve-mixed": (0.1, "obs.timeline_record_calls"),
    "serve-overload": (0.05, "sim.engine.bulk_arrivals"),
    "cluster-fleet": (0.25, "cluster.route_calls"),
    "compile-catalog": (0.5, "tuning.attempts"),
    "numpy-infer": (0.5, "setup.nn.init_param_calls"),
}


def test_smoke_covers_every_workload():
    assert set(SMOKE) == {w["name"] for w in BENCH["workloads"]}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_untraced_run_emits_end_to_end_metrics(name):
    scale, _ = SMOKE[name]
    result = harness.run_workload(name, seconds=0.2, scale=scale)
    assert result["errors"] == [] and result["failed"] == 0
    # setup_s is added by run.py, from several processes
    assert set(result["metrics"]) == set(END_TO_END) - {"setup_s"}
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run_partitions_the_timed_phase(name):
    scale, exercised = SMOKE[name]
    result = harness.run_workload(name, seconds=0.4, scale=scale, trace=True)
    metrics = result["per_layer"]
    assert result["errors"] == [] and result["failed"] == 0
    assert set(metrics) == set(PER_LAYER)
    assert metrics["trace.timed_s"] > 0
    assert metrics["trace.partition_error"] <= 0.01
    assert metrics[exercised] > 0
    trace = json.loads(Path(result["trace_file"]).read_text())
    assert {event["name"] for event in trace["traceEvents"]} >= {"setup", "rep"}


def test_tampered_digest_is_a_check_failure():
    result = harness.run_workload(
        "serve-overload", seconds=0.2, scale=0.05,
        expected={"digests": {"7": "0" * 64}},
    )
    assert result["errors"]


def _checkout(tmp_path: Path, *, with_sources: bool) -> Path:
    """A copy of the benchmark (and, optionally, links to the sources)."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src")
        (tmp_path / "tests").symlink_to(ROOT / "tests")
    return tmp_path


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_result_line_carries_every_metric_with_its_unit(tmp_path):
    root = _checkout(tmp_path, with_sources=True)
    proc = _run(root, "--workload", "serve-overload", "--seconds", "0.3")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {m: v["unit"] for m, v in line["metrics"].items()} == END_TO_END


def test_tampered_expected_digest_fails_the_run(tmp_path):
    root = _checkout(tmp_path, with_sources=True)
    expected = root / "benchmarks" / "e2e" / "expected.json"
    doc = json.loads(expected.read_text())
    doc["workloads"]["serve-overload"]["digests"]["7"] = "0" * 64
    expected.write_text(json.dumps(doc))
    proc = _run(root, "--workload", "serve-overload", "--seconds", "0.3")
    assert proc.returncode != 0
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_benchmark_alone_fails_without_a_result(tmp_path):
    root = _checkout(tmp_path, with_sources=False)
    proc = _run(root, "--workload", "serve-overload", "--seconds", "0.3")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spread_table_reports_quartiles_against_bounds():
    runs = [
        {"workload": "w", "metrics": {"work_per_s": value}}
        for value in (90.0, 100.0, 110.0, 100.0)
    ]
    table = run.spread_table(runs, {"work_per_s": {"bound": 0.25}})
    assert "work_per_s" in table.splitlines()[1]
    assert "OVER" not in table

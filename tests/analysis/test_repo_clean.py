"""The repo must stay clean under its own analyzer.

This is the in-process equivalent of the CI `analyze` job: every
finding in ``src/`` is either fixed or carried in the committed
baseline with a justification — and the baseline carries no dead
entries.
"""

import subprocess

from repro.analysis import Baseline, analyze_paths
from repro.analysis.baseline import BaselineEntry

from .conftest import REPO_ROOT


def test_repo_is_clean_under_committed_baseline():
    baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
    report = analyze_paths(
        [str(REPO_ROOT / "src")], baseline=baseline, root=REPO_ROOT,
    )
    assert report.clean, "\n".join(f.render() for f in report.new)
    assert not report.stale_baseline, [
        e.fingerprint for e in report.stale_baseline
    ]


def test_every_baseline_entry_is_justified():
    baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
    assert baseline.entries, "baseline should document the known findings"
    for entry in baseline.entries:
        assert entry.justification
        assert "TODO" not in entry.justification, entry.fingerprint


def test_stale_entry_detection_fires():
    """A fingerprint that matches nothing (here: an entry of REPRO201,
    a rule that no longer exists) must surface as stale, not vanish."""
    baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
    ghost = BaselineEntry(
        fingerprint="cc39168bb776d9e5",
        rule="REPRO201",
        path="src/repro/core/plan_cache.py",
        symbol="PlanCache._load",
        justification="its rule was deleted with the lock checker",
    )
    padded = Baseline(entries=[*baseline.entries, ghost])
    report = analyze_paths(
        [str(REPO_ROOT / "src")], baseline=padded, root=REPO_ROOT,
    )
    assert report.clean
    assert [e.fingerprint for e in report.stale_baseline] == [ghost.fingerprint]


def test_no_tracked_bytecode():
    """``git ls-files '*.pyc'`` must stay empty (and __pycache__ dirs
    untracked) — bytecode in the index breaks clean checkouts."""
    tracked = subprocess.run(
        ["git", "ls-files", "*.pyc", "**/__pycache__/*"],
        capture_output=True, text=True, cwd=REPO_ROOT, check=True,
    )
    assert tracked.stdout.strip() == "", tracked.stdout

"""The claim rule of ``tools/ab.py``: a gain holds when the working tree
wins at least 9 pairs in 10, ties counting for neither side, its median
beats the base median by more than the base's interquartile range, in
the metric's better direction, and it fails no larger share of its
operations than the base.  ``--record`` appends each comparison as one
row to a JSON list, naming the working tree it measured."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab_tool", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def test_ten_wins_past_the_spread_hold():
    change = [b + 20.0 for b in BASE]
    assert ab.compare(BASE, change, "higher") == (10, True)
    assert ab.compare(change, BASE, "lower") == (10, True)


def test_nine_wins_hold_and_eight_do_not():
    nine = [b + 20.0 for b in BASE[:9]] + [BASE[9] - 1.0]
    assert ab.compare(BASE, nine, "higher") == (9, True)
    eight = [b + 20.0 for b in BASE[:8]] + [BASE[8] - 1.0, BASE[9] - 1.0]
    assert ab.compare(BASE, eight, "higher") == (8, False)


def test_ties_count_for_neither_side():
    change = [b + 20.0 for b in BASE[:9]] + [BASE[9]]
    assert ab.compare(BASE, change, "higher") == (9, True)
    change = [b + 20.0 for b in BASE[:8]] + BASE[8:]
    assert ab.compare(BASE, change, "higher") == (8, False)


def test_wins_inside_the_base_spread_do_not_hold():
    q1, _, q3 = ab.quartiles(BASE)
    change = [b + (q3 - q1) / 2 for b in BASE]
    assert ab.compare(BASE, change, "higher") == (10, False)


@pytest.mark.parametrize("values", [[3.0], [3.0, 5.0]])
def test_quartiles_of_short_samples(values):
    q1, median, q3 = ab.quartiles(values)
    assert q1 <= median <= q3


def test_failing_a_larger_share_of_operations_voids_the_gain():
    change = [b + 20.0 for b in BASE]
    assert ab.compare(BASE, change, "higher", fails_more=True) == (10, False)


def test_failed_share_pools_the_runs():
    runs = [
        {"attempted": 30, "failed": 0},
        {"attempted": 10, "failed": 2},
    ]
    assert ab.failed_share(runs) == 2 / 40
    assert ab.failed_share([{"attempted": 0, "failed": 0}]) == 0.0


SPECS = [
    {"name": "work_per_s", "unit": "1/s", "better": "higher"},
    {"name": "setup_s", "unit": "s", "better": "lower"},
]


def runs_of(work, setup, failed=0):
    return [
        {
            "attempted": 10, "failed": failed,
            "metrics": {
                "work_per_s": {"value": w, "unit": "1/s"},
                "setup_s": {"value": s, "unit": "s"},
            },
        }
        for w, s in zip(work, setup)
    ]


def test_summary_holds_quartiles_wins_and_rule_per_metric():
    runs = {
        "base": runs_of(BASE, [1.0] * 10),
        "change": runs_of([b + 20.0 for b in BASE], [1.0] * 10, failed=1),
    }
    metrics = ab.summarize(SPECS, runs)
    work = metrics["work_per_s"]
    assert work["base"] == dict(zip(("q1", "median", "q3"), ab.quartiles(BASE)))
    assert work["change"]["median"] == work["base"]["median"] + 20.0
    # Ten wins past the spread, but the change failed more operations.
    assert (work["wins"], work["holds"]) == (10, False)
    assert (metrics["setup_s"]["wins"], metrics["setup_s"]["holds"]) == (0, False)
    assert ab.operations(runs) == {
        "base": {"attempted": 100, "failed": 0},
        "change": {"attempted": 100, "failed": 10},
    }


def test_record_appends_one_row_per_line(tmp_path):
    path = tmp_path / "BENCH_e2e.json"
    first = {"workload": "cluster-fleet", "pairs": 10, "seed": None}
    second = {"workload": "serve-mixed", "pairs": 3, "seed": 11}
    ab.record(path, first)
    ab.record(path, second)
    assert json.loads(path.read_text()) == [first, second]
    lines = path.read_text().splitlines()
    assert lines[0] == "[" and lines[-1] == "]"
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == [
        first, second,
    ]
    assert not list(tmp_path.glob("*.tmp"))


def git_in(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com",
         *args],
        cwd=repo, check=True, capture_output=True, text=True,
    ).stdout.strip()


def test_worktree_tree_names_the_measured_files(tmp_path):
    """A row names the tree it measured: HEAD's tree when clean, and
    otherwise the tree a commit of every edit, new files included,
    would have.  The real index is left as it was."""
    repo = tmp_path / "repo"
    repo.mkdir()
    git_in(repo, "init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "a.py").write_text("a = 1\n")
    git_in(repo, "add", "-A")
    git_in(repo, "commit", "-q", "-m", "base")
    assert ab.worktree_tree(repo) == git_in(repo, "rev-parse", "HEAD^{tree}")

    (repo / "a.py").write_text("a = 2\n")
    (repo / "new.py").write_text("b = 3\n")
    (repo / "ignored.txt").write_text("scratch\n")
    status = git_in(repo, "status", "--porcelain")
    measured = ab.worktree_tree(repo)
    assert git_in(repo, "status", "--porcelain") == status
    assert git_in(repo, "diff", "--cached", "--name-only") == ""
    assert measured != git_in(repo, "rev-parse", "HEAD^{tree}")

    git_in(repo, "add", "a.py", "new.py")
    git_in(repo, "commit", "-q", "-m", "change")
    assert measured == git_in(repo, "rev-parse", "HEAD^{tree}")

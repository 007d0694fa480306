"""Paired A/B runs of the end-to-end benchmark: a git revision against
the working tree.

Usage:
    python tools/ab.py REV --workload W --pairs N [--seed S] [--record PATH]

Checks REV out into a temporary git worktree and precompiles both
trees' ``src`` with ``compileall``, so that neither side's ``setup_s``
includes bytecode compilation.  It then runs the unchanged
``benchmarks/e2e/run.py`` of each tree once per pair, alternating which
side runs first; ``--seed`` is passed on only when given.  It prints
how many operations each side attempted and failed and, for each
end-to-end metric of ``BENCHMARK.json``, both sides' median and
quartiles, how many pairs the working tree won, and whether the claim
rule holds: the working tree wins at least 9 pairs in 10, its median
beats REV's by more than REV's interquartile range, and it fails no
larger share of its operations than REV.  The worktree is removed on
exit.

``--record PATH`` appends the comparison as one row to the JSON list in
``PATH`` (created when missing), one row per line: both heads (REV's
commit, and the working tree's ``HEAD`` with whether it had uncommitted
edits), nproc, the Python and NumPy versions, the workload, the seed
(null: ``run.py``'s default), the pair count, each side's attempted and
failed operations, whether every run passed its checks and, per
end-to-end metric, both sides' median and quartiles, the win count and
whether the rule holds.

Standard library only.  The exit code is 0 when every run passed its
checks, 1 when one failed and 2 when a run produced no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
RUNNER = Path("benchmarks") / "e2e" / "run.py"
#: a claim needs this share of won pairs
WIN_SHARE = 0.9


class ABError(Exception):
    """A run produced no result."""


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def precompile(tree: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"],
        cwd=tree, check=True,
    )


def run_once(tree: Path, args: argparse.Namespace) -> dict:
    """One ``run.py`` run in ``tree``; returns its summary line."""
    command = [sys.executable, str(RUNNER), "--workload", args.workload]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise ABError(
            f"{tree}: run.py exited with code {proc.returncode}\n"
            f"{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def failed_share(summaries: Sequence[dict]) -> float:
    """Share of the attempted operations that failed over ``summaries``."""
    attempted = sum(s["attempted"] for s in summaries)
    return sum(s["failed"] for s in summaries) / attempted if attempted else 0.0


def compare(
    base: List[float], change: List[float], better: str,
    fails_more: bool = False,
) -> Tuple[int, bool]:
    """(pairs the change won, whether the claim rule holds).  No gain
    holds when the change fails a larger share of operations."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, base_median, q3 = quartiles(base)
    gain = sign * (statistics.median(change) - base_median)
    holds = (
        not fails_more
        and wins >= math.ceil(WIN_SHARE * len(base))
        and gain > q3 - q1
    )
    return wins, holds


def summarize(
    specs: Sequence[dict], runs: Dict[str, List[dict]]
) -> Dict[str, dict]:
    """Per end-to-end metric: unit, direction, each side's quartiles,
    the change's win count and whether the claim rule holds."""
    fails_more = failed_share(runs["change"]) > failed_share(runs["base"])
    metrics: Dict[str, dict] = {}
    for spec in specs:
        name = spec["name"]
        base, change = (
            [s["metrics"][name]["value"] for s in runs[side]]
            for side in ("base", "change")
        )
        wins, holds = compare(base, change, spec["better"], fails_more)
        row = metrics[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "wins": wins, "holds": holds,
        }
        for side, values in (("base", base), ("change", change)):
            q1, median, q3 = quartiles(values)
            row[side] = {"q1": q1, "median": median, "q3": q3}
    return metrics


def operations(runs: Dict[str, List[dict]]) -> Dict[str, Dict[str, int]]:
    """Each side's attempted and failed operations over its runs."""
    return {
        side: {
            key: sum(s[key] for s in summaries)
            for key in ("attempted", "failed")
        }
        for side, summaries in runs.items()
    }


def report(
    rev: str,
    args: argparse.Namespace,
    metrics: Dict[str, dict],
    runs: Dict[str, List[dict]],
) -> str:
    seed = "run.py's seed" if args.seed is None else f"seed {args.seed}"
    lines = [
        f"{args.workload}, {seed}, {args.pairs} pairs: "
        f"{args.rev} ({rev[:12]}) against the working tree",
        "operations failed: " + ", ".join(
            f"{side} {ops['failed']} of {ops['attempted']}"
            for side, ops in operations(runs).items()
        ),
        f"{'metric':<14} {'unit':<5} {'better':<7} "
        f"{'base median [q1, q3]':>32} {'change median [q1, q3]':>32} "
        f"{'wins':>7}  rule",
    ]
    for name, row in metrics.items():
        cells = [
            f"{row[side]['median']:.6g} "
            f"[{row[side]['q1']:.6g}, {row[side]['q3']:.6g}]"
            for side in ("base", "change")
        ]
        verdict = "holds" if row["holds"] else "does not hold"
        lines.append(
            f"{name:<14} {row['unit']:<5} {row['better']:<7} "
            f"{cells[0]:>32} {cells[1]:>32} "
            f"{row['wins']:>3}/{args.pairs:<3}  {verdict}"
        )
    return "\n".join(lines)


def host_facts() -> dict:
    """nproc and the Python and NumPy versions the runs used."""
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def record(path: Path, row: dict) -> None:
    """Append ``row`` to the JSON list in ``path``, one row per line."""
    rows = json.loads(path.read_text()) if path.exists() else []
    rows.append(row)
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in rows)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(f"[\n{lines}\n]\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("rev", help="the base revision, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, help="default: run.py's")
    parser.add_argument(
        "--record", type=Path, metavar="PATH",
        help="append the comparison as one row to this JSON list",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    specs = bench["end_to_end"]
    rev = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")

    # A SIGTERM unwinds through the finally below, like Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    worktree = Path(tempfile.mkdtemp(prefix="ab-")) / "base"
    git("worktree", "add", "--detach", str(worktree), rev)
    try:
        trees = {"base": worktree, "change": ROOT}
        for tree in trees.values():
            precompile(tree)
        runs: Dict[str, List[dict]] = {side: [] for side in trees}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(trees[side], args))
            print(
                f"pair {pair + 1}/{args.pairs}: " + ", ".join(
                    f"{spec['name']} "
                    f"{runs['base'][-1]['metrics'][spec['name']]['value']:.6g}"
                    f" -> "
                    f"{runs['change'][-1]['metrics'][spec['name']]['value']:.6g}"
                    for spec in specs
                ),
                flush=True,
            )
        metrics = summarize(specs, runs)
        print(report(rev, args, metrics, runs))
        correct = all(s["correct"] for side in runs.values() for s in side)
        if args.record is not None:
            record(args.record, {
                "base": rev,
                "change": git("rev-parse", "HEAD"),
                "change_dirty": bool(
                    git("status", "--porcelain", "--untracked-files=no")
                ),
                **host_facts(),
                "workload": args.workload,
                "seed": args.seed,
                "pairs": args.pairs,
                "operations": operations(runs),
                "correct": correct,
                "metrics": metrics,
            })
        if not correct:
            print("error: a run failed its output checks", file=sys.stderr)
        return 0 if correct else 1
    except ABError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(worktree)],
            cwd=ROOT, capture_output=True,
        )
        git("worktree", "prune")
        shutil.rmtree(worktree.parent, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

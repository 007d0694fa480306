"""The analysis driver behind ``repro analyze``.

One run = lint rules over every Python file under the given paths,
the interprocedural dataflow passes (seed-taint, durability) over a
project-wide call graph, the lease-protocol model check, and
(optionally) the in-process catalog verifiers — filtered through the
committed baseline into *new* findings (fail CI) and *baselined*
findings (explicitly accepted, with justification).

Rule selection accepts **families**: ``REPRO21x`` expands to every
registered rule sharing the first two digits (REPRO210, REPRO211), so
CI can say ``--rules REPRO21x,REPRO23x,REPRO24x`` and keep working as
families grow.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from ..errors import ReproError
from ..fsutil import atomic_write_text
from . import dataflow, durability, protocol
from .baseline import Baseline, BaselineEntry
from .callgraph import CallGraph, build_call_graph
from .findings import Finding, FindingCollector
from .lint import LintContext, LintRule, rules_by_id

#: Directory names never worth analyzing.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}

#: Non-lint rules the runner drives directly (id -> short description).
EXTRA_RULES: Dict[str, str] = {
    dataflow.RULE_UNSEEDED: "RNG constructed without a seed",
    dataflow.RULE_UNTAINTED: "RNG seed not derived from a taint source",
    durability.RULE_RAW_WRITE: "non-atomic durable write",
    durability.RULE_RENAME_NO_FSYNC: "rename after write without fsync",
    protocol.RULE_ID: "lease-protocol invariant violation",
}

_FAMILY_RE = re.compile(r"^(REPRO\d\d)x$")


def collect_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                out.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    out.append(candidate)
        else:
            raise ReproError(f"no such file or directory: {path}")
    return out


def _display(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        resolved = path.resolve()
        resolved_root = root.resolve()
        if resolved.is_relative_to(resolved_root):
            return resolved.relative_to(resolved_root).as_posix()
    return path.as_posix()


def known_rule_ids() -> Set[str]:
    """Every rule id the runner can drive."""
    return {r.id for r in rules_by_id(None)} | set(EXTRA_RULES)


def expand_rule_ids(wanted: Iterable[str]) -> List[str]:
    """Expand family tokens (``REPRO21x``) and validate ids."""
    known = known_rule_ids()
    out: List[str] = []
    for token in wanted:
        family = _FAMILY_RE.match(token)
        if family:
            members = sorted(
                rule for rule in known if rule.startswith(family.group(1))
            )
            if not members:
                raise ReproError(
                    f"rule family {token} matches nothing; available: "
                    f"{sorted(known)}"
                )
            out.extend(members)
        elif token in known:
            out.append(token)
        else:
            raise ReproError(
                f"unknown analysis rules ['{token}']; available: "
                f"{sorted(known)} (families like REPRO21x also work)"
            )
    return out


@dataclass
class AnalysisReport:
    """Outcome of one ``repro analyze`` run."""

    new: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[BaselineEntry] = field(default_factory=list)
    files_analyzed: int = 0

    @property
    def clean(self) -> bool:
        return not self.new

    def to_dict(self) -> dict:
        return {
            "files_analyzed": self.files_analyzed,
            "new_findings": [f.to_dict() for f in self.new],
            "baselined_findings": [f.to_dict() for f in self.baselined],
            "stale_baseline_entries": [
                e.to_dict() for e in self.stale_baseline
            ],
            "clean": self.clean,
        }

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render_text(self) -> str:
        lines: List[str] = []
        for finding in self.new:
            lines.append(finding.render())
        if self.new:
            lines.append("")
        lines.append(
            f"{len(self.new)} new finding(s), {len(self.baselined)} "
            f"baselined, {self.files_analyzed} file(s) analyzed"
        )
        if self.baselined:
            for finding in self.baselined:
                lines.append(f"  baselined: {finding.render()}")
        if self.stale_baseline:
            lines.append(
                f"warning: {len(self.stale_baseline)} stale baseline "
                f"entr(ies) no longer match anything — prune them:"
            )
            for entry in self.stale_baseline:
                lines.append(
                    f"  stale: {entry.rule} {entry.path} "
                    f"[{entry.symbol}] {entry.fingerprint}"
                )
        return "\n".join(lines)


def _lint_contexts(
    files: Sequence[Path], root: Optional[Path]
) -> List[LintContext]:
    return [
        LintContext.for_file(path, _display(path, root)) for path in files
    ]


def _run_lint(
    ctx: LintContext, rules: Sequence[LintRule]
) -> List[Finding]:
    out: List[Finding] = []
    for rule in rules:
        if not rule.applies(ctx):
            continue
        for finding in rule.check(ctx):
            if not ctx.suppressed(finding.line, finding.rule):
                out.append(finding)
    return out


def analyze_paths(
    paths: Sequence[Union[str, Path]],
    *,
    rules: Optional[Iterable[str]] = None,
    baseline: Optional[Baseline] = None,
    include_catalogs: bool = True,
    root: Optional[Union[str, Path]] = None,
    graph_out: Optional[Union[str, Path]] = None,
) -> AnalysisReport:
    """Run the full static analysis over ``paths``.

    ``rules`` narrows the run to specific rule ids or families
    (``REPRO21x``); by default every pass runs.  ``root`` makes
    reported paths repo-relative, which is what baseline fingerprints
    should use.  ``graph_out`` dumps the project call graph as
    deterministic JSON.
    """
    if rules is None:
        active_ids = sorted(known_rule_ids())
    else:
        active_ids = expand_rule_ids(rules)
    active_set = set(active_ids)
    lint_rules = rules_by_id(
        [r for r in active_ids if r not in EXTRA_RULES]
    )
    root_path = Path(root) if root is not None else None
    collector = FindingCollector()
    files = collect_python_files(paths)
    contexts = _lint_contexts(files, root_path)

    for ctx in contexts:
        collector.extend(_run_lint(ctx, lint_rules))

    # Interprocedural passes share one call graph over all analyzed files.
    graph_rules = {
        dataflow.RULE_UNSEEDED, dataflow.RULE_UNTAINTED,
        durability.RULE_RAW_WRITE, durability.RULE_RENAME_NO_FSYNC,
    }
    graph: Optional[CallGraph] = None
    if active_set.intersection(graph_rules) or graph_out is not None:
        graph = build_call_graph(contexts)
    if graph is not None:
        if active_set.intersection(
            {dataflow.RULE_UNSEEDED, dataflow.RULE_UNTAINTED}
        ):
            collector.extend(
                f for f in dataflow.check_seed_taint(graph)
                if f.rule in active_set
            )
        if active_set.intersection(
            {durability.RULE_RAW_WRITE, durability.RULE_RENAME_NO_FSYNC}
        ):
            collector.extend(
                f for f in durability.check_durability(graph)
                if f.rule in active_set
            )
        if graph_out is not None:
            atomic_write_text(
                Path(graph_out),
                json.dumps(graph.to_dict(), indent=1, sort_keys=True) + "\n",
            )

    if protocol.RULE_ID in active_set:
        collector.extend(protocol.check_lease_protocol())

    if include_catalogs:
        from .verifiers import verify_catalogs

        collector.extend(verify_catalogs())
    findings = collector.sorted()
    base = baseline if baseline is not None else Baseline.empty()
    new, baselined, stale = base.split(findings)
    return AnalysisReport(
        new=new,
        baselined=baselined,
        stale_baseline=stale,
        files_analyzed=len(files),
    )


__all__ = [
    "AnalysisReport",
    "EXTRA_RULES",
    "analyze_paths",
    "collect_python_files",
    "expand_rule_ids",
    "known_rule_ids",
]

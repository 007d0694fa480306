"""repro.analysis — domain-aware static analysis for this codebase.

Four complementary passes, all exposed through ``repro analyze`` and
``repro check-plan`` (and gated in CI):

* **Lint** (:mod:`repro.analysis.lint`) — AST rules encoding this
  repo's determinism and robustness contracts: no wall-clock or
  unseeded randomness in virtual-clock code, no bare/swallowed
  exceptions in the engine and backends, provenance records on tuner /
  degradation decision branches, no bare unit magnitudes outside
  :mod:`repro.units`.
* **Dataflow** (:mod:`repro.analysis.callgraph` +
  :mod:`repro.analysis.dataflow` / :mod:`repro.analysis.durability`) —
  interprocedural passes over a project-wide call graph: REPRO21x
  seed-taint (every RNG descends from an explicit seed), REPRO23x
  durability discipline (durable writes go through
  ``fsutil.atomic_write_text``).
* **Protocol** (:mod:`repro.analysis.protocol`) — REPRO240, an
  exhaustive two-worker model check of the tuning lease protocol
  against the real :class:`~repro.tuning.queue.JobQueue`.
* **Verifiers** (:mod:`repro.analysis.verifiers`) — static validation
  of plan artifacts, fault scenarios, device specs, and network graphs
  *without executing them*: checksums, partition-fraction ranges,
  allocation coverage, zero-copy-implies-unified-memory, roofline
  consistency, window disjointness, and graph dataflow.

Intentional findings live in a committed baseline file
(:mod:`repro.analysis.baseline`) with per-entry justifications; anything
not baselined fails the run.  See ``docs/analysis.md``.
"""

from __future__ import annotations

from .baseline import (
    Baseline,
    BaselineEntry,
    DEFAULT_BASELINE_NAME,
    find_default_baseline,
)
from .callgraph import CallGraph, build_call_graph
from .dataflow import check_seed_taint
from .durability import check_durability
from .findings import Finding, FindingCollector
from .lint import ALL_RULES, LintContext, LintRule, lint_file, rules_by_id
from .protocol import LeaseModelChecker, check_lease_protocol
from .runner import (
    AnalysisReport,
    EXTRA_RULES,
    analyze_paths,
    collect_python_files,
    expand_rule_ids,
    known_rule_ids,
)
from .verifiers import (
    verify_artifact_file,
    verify_catalogs,
    verify_device_spec,
    verify_fault_scenario,
    verify_fault_scenario_data,
    verify_network_graph,
    verify_plan_artifact_data,
    verify_plan_store,
)

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "CallGraph",
    "DEFAULT_BASELINE_NAME",
    "EXTRA_RULES",
    "Finding",
    "FindingCollector",
    "LeaseModelChecker",
    "LintContext",
    "LintRule",
    "analyze_paths",
    "build_call_graph",
    "check_durability",
    "check_lease_protocol",
    "check_seed_taint",
    "collect_python_files",
    "expand_rule_ids",
    "find_default_baseline",
    "known_rule_ids",
    "lint_file",
    "rules_by_id",
    "verify_artifact_file",
    "verify_catalogs",
    "verify_device_spec",
    "verify_fault_scenario",
    "verify_fault_scenario_data",
    "verify_network_graph",
    "verify_plan_artifact_data",
    "verify_plan_store",
]

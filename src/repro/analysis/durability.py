"""REPRO23x — durability discipline for store/plan/manifest/lease files.

PR 9's crash-safety story (torn-write chaos tests, killed-coordinator
restarts) only holds if **every durable artifact goes through
:func:`repro.fsutil.atomic_write_text`** — tmp sibling, ``fsync``, then
``os.replace``.  A single raw ``write_text`` in the store or the tuning
workers re-opens the torn-file window those tests closed (the tuning
queue itself writes no file: the store is the fleet's only durable
record).  This pass makes the discipline structural:

* **REPRO230** — a raw write sink in durability scope:
  ``open(..., "w"/"a")``, ``<path>.write_text(...)`` /
  ``write_bytes(...)``, or ``json.dump(obj, handle)``.  Replace with
  ``atomic_write_text`` (serialize first, write once).
* **REPRO231** — a hand-rolled "atomic" rename: a function that both
  writes a file and ``os.replace``/``os.rename``/``Path.replace``-s it
  without an ``os.fsync`` in between.  A crash between the write and
  the rename publishes an empty or torn file on some filesystems; the
  fix is, again, ``atomic_write_text``.

Scope: the packages whose files survive a process (``store``,
``tuning``) plus the known durable-artifact modules elsewhere
(plan cache, analysis baseline, fault scenarios/injector, compiled
plan artifacts).  :mod:`repro.fsutil` itself is exempt — it is the
sink the rule points at.  Deliberate torn writes in chaos-injection
code carry ``# repro-analysis: ignore[REPRO230]`` pragmas.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set

from .callgraph import CallGraph, ModuleInfo, _spelled_name
from .findings import Finding
from .lint import enclosing_symbols

RULE_RAW_WRITE = "REPRO230"
RULE_RENAME_NO_FSYNC = "REPRO231"

#: Path parts whose files are durable artifacts.
DURABILITY_PARTS: Set[str] = {"store", "tuning"}
#: Specific durable-artifact modules outside those parts.
DURABILITY_FILES: Set[str] = {
    "plan_cache.py", "baseline.py", "scenario.py", "injector.py",
    "artifact.py",
}
#: Modules exempt by name — the atomic sink implementation itself.
EXEMPT_MODULES: Set[str] = {"fsutil"}

_WRITE_MODES = ("w", "a", "x")
_PATH_WRITERS = {"write_text", "write_bytes"}
_RENAMERS = {"os.rename", "os.replace"}


def in_durability_scope(module: ModuleInfo) -> bool:
    path = module.ctx.path
    if module.name.rsplit(".", 1)[-1] in EXEMPT_MODULES:
        return False
    return (
        bool(DURABILITY_PARTS.intersection(path.parts))
        or path.name in DURABILITY_FILES
    )


def _open_write_mode(call: ast.Call, canonical: str) -> bool:
    """Is this an ``open(...)`` (or ``os.open``-free builtin) for writing?"""
    if canonical not in ("open", "io.open"):
        return False
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in _WRITE_MODES)
    return True  # dynamic mode: assume the worst


def _is_path_write(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _PATH_WRITERS:
        return func.attr
    return None


def _is_json_dump(canonical: str) -> bool:
    return canonical == "json.dump"


def _is_rename(call: ast.Call, canonical: str) -> bool:
    if canonical in _RENAMERS:
        return True
    func = call.func
    # Path.replace / Path.rename take exactly one positional target;
    # str.replace takes two — the arity keeps string munging out.
    if (
        isinstance(func, ast.Attribute)
        and func.attr in ("replace", "rename")
        and len(call.args) == 1
        and not call.keywords
    ):
        return True
    return False


def _canonical(call: ast.Call, module: ModuleInfo) -> str:
    spelled = _spelled_name(call.func)
    if spelled is None:
        return ""
    head, _, rest = spelled.partition(".")
    target = module.aliases.get(head, head)
    return f"{target}.{rest}" if rest else target


def _function_bodies(
    tree: ast.Module,
) -> Iterator[Sequence[ast.stmt]]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


def _calls_in(body: Sequence[ast.stmt]) -> Iterator[ast.Call]:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield node


class DurabilityAnalysis:
    """Per-module sink scan + per-function rename/fsync pairing."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph

    def check(self) -> List[Finding]:
        findings: List[Finding] = []
        for _, module in sorted(self.graph.modules.items()):
            if not in_durability_scope(module):
                continue
            findings.extend(self._check_module(module))
        return findings

    def _check_module(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        symbols = enclosing_symbols(module.tree)

        def emit(rule: str, node: ast.Call, message: str) -> None:
            line = node.lineno
            if self.graph.suppressed(module, line, rule):
                return
            findings.append(Finding(
                rule=rule,
                path=module.display_path,
                line=line,
                symbol=symbols.get(line, ""),
                message=message,
            ))

        # REPRO230: raw write sinks anywhere in the module.
        for call in ast.walk(module.tree):
            if not isinstance(call, ast.Call):
                continue
            canonical = _canonical(call, module)
            writer = _is_path_write(call)
            if writer is not None:
                emit(
                    RULE_RAW_WRITE, call,
                    f".{writer}() writes a durable file non-atomically; "
                    f"use fsutil.atomic_write_text",
                )
            elif _open_write_mode(call, canonical):
                emit(
                    RULE_RAW_WRITE, call,
                    'open(..., "w") writes a durable file non-atomically; '
                    "use fsutil.atomic_write_text",
                )
            elif _is_json_dump(canonical):
                emit(
                    RULE_RAW_WRITE, call,
                    "json.dump to a raw handle is non-atomic; "
                    "json.dumps + fsutil.atomic_write_text",
                )

        # REPRO231: per function, write + rename with no fsync between.
        for body in _function_bodies(module.tree):
            calls = list(_calls_in(body))
            wrote = any(
                _is_path_write(call) is not None
                or _open_write_mode(call, _canonical(call, module))
                for call in calls
            )
            fsynced = any(
                _canonical(call, module) == "os.fsync" for call in calls
            )
            if not wrote or fsynced:
                continue
            for call in calls:
                if _is_rename(call, _canonical(call, module)):
                    emit(
                        RULE_RENAME_NO_FSYNC, call,
                        "rename after write without os.fsync: a crash can "
                        "publish a torn file; use fsutil.atomic_write_text",
                    )
        return findings


def check_durability(graph: CallGraph) -> List[Finding]:
    """Run the REPRO23x pass over a built call graph."""
    return DurabilityAnalysis(graph).check()


__all__ = [
    "DURABILITY_FILES",
    "DURABILITY_PARTS",
    "DurabilityAnalysis",
    "RULE_RAW_WRITE",
    "RULE_RENAME_NO_FSYNC",
    "check_durability",
    "in_durability_scope",
]

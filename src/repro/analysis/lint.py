"""AST-based lint framework with repo-specific rules.

The rules encode invariants this codebase actually depends on:

* **REPRO101 — wall-clock call in virtual-clock code.**  Everything
  under ``sim/``, ``serving/``, ``faults/``, ``workloads/``,
  ``cluster/`` and the tuner runs on the *virtual* clock; a single
  ``time.time()`` there
  silently breaks replay determinism and the cross-process digest
  gates.
* **REPRO102 — unseeded randomness in virtual-clock code.**  Module
  level ``random.*`` and ``np.random.*`` draw from hidden global
  state; only explicitly seeded generators
  (``np.random.default_rng(seed)``) keep runs reproducible.
* **REPRO103 — bare ``except:``** and **REPRO104 — swallowed
  exception** in the engine and backends (``core/``, ``compile/``,
  ``baselines/``): resilience decisions must be explicit (retry,
  degrade, re-raise), never silent.
* **REPRO105 — provenance-free decision branch** in the tuner and the
  degradation manager: a public method that both branches and mutates
  state must leave a record in the provenance log (the "why did the
  plan change" audit trail the obs layer exists for).
* **REPRO106 — unit-suspicious numeric literal** outside ``units.py``:
  bare magnitudes like ``1e9`` or ``1024 ** 3`` are how GB-vs-GiB and
  FLOPs-vs-bytes bugs are born; spell them via :mod:`repro.units`.
* **REPRO110 — wall-clock call in timeline telemetry.**
  ``repro.obs.timeline`` sits under ``obs`` (outside REPRO101's scope)
  but produces sha256-digest-gated artifacts; wall-clock reads there
  break cross-process bit-identity only intermittently, so the module
  gets a dedicated rule.

Suppression: a trailing ``# repro-analysis: ignore[REPRO1xx]`` comment
silences one rule on that line; repo-wide intentional hits live in the
committed baseline file (see :mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from .. import units
from ..errors import ReproError
from .findings import Finding

#: Directories (path parts) whose code runs on the virtual clock.
#: ``tuning`` and ``store`` joined with the PR 9 fleet: their replay
#: determinism (byte-identical double-run manifests) depends on the
#: same no-wall-clock / no-hidden-RNG discipline.
VIRTUAL_CLOCK_PARTS: Set[str] = {
    "sim", "serving", "faults", "workloads", "cluster", "tuning", "store",
}
#: File names that run on the virtual clock wherever they live.
VIRTUAL_CLOCK_FILES: Set[str] = {"tuner.py"}
#: Path parts of the engine, compiler and baselines (exception discipline).
ENGINE_PARTS: Set[str] = {"core", "compile", "baselines"}
#: File names whose decision branches must log provenance.
DECISION_FILES: Set[str] = {"tuner.py", "degradation.py"}

_IGNORE_RE = re.compile(r"#\s*repro-analysis:\s*ignore\[([A-Z0-9,\s]+)\]")

#: Wall-clock callables that must never run on virtual-clock paths.
WALL_CLOCK_CALLS: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: np.random attributes that are fine (explicitly seeded constructors).
_SEEDED_NP_FACTORIES: Set[str] = {"default_rng", "Generator", "SeedSequence"}
#: Names that mark a provenance-recording call site.
PROVENANCE_MARKERS: Set[str] = {
    "provenance",
    "_emit",
    "_record_partition",
    "record_partition",
    "record_placement",
    "record_degradation",
}
#: Container mutators whose receiver is shared state (concurrency rule
#: reuses this set).
MUTATING_METHODS: Set[str] = {
    "append", "extend", "insert", "add", "remove", "discard", "pop",
    "popitem", "clear", "update", "setdefault", "move_to_end",
}

#: Magnitudes that smell like hand-rolled unit conversions.  Expressed
#: through :mod:`repro.units` so this module never trips its own rule.
SUSPICIOUS_MAGNITUDES: Set[float] = {units.MB, units.GB, units.GB * 1000.0}
_POW_BASE = int(units.KIB)          # 1024 ** n
_SHIFT_MIN_BITS = 20                # 1 << 20 and up


@dataclass
class LintContext:
    """Everything a rule needs to know about one file."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    ignores: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def for_file(cls, path: Path, display_path: Optional[str] = None) -> "LintContext":
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise ReproError(f"cannot parse {path}: {exc}") from exc
        ignores: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _IGNORE_RE.search(line)
            if match:
                rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
                ignores[lineno] = rules
        return cls(
            path=path,
            display_path=display_path or str(path),
            source=source,
            tree=tree,
            ignores=ignores,
        )

    # -- path categories ------------------------------------------------------

    @property
    def parts(self) -> Sequence[str]:
        return self.path.parts

    @property
    def is_units_module(self) -> bool:
        return self.path.name == "units.py"

    @property
    def is_virtual_clock(self) -> bool:
        return (
            bool(VIRTUAL_CLOCK_PARTS.intersection(self.parts))
            or self.path.name in VIRTUAL_CLOCK_FILES
        )

    @property
    def is_engine(self) -> bool:
        return bool(set(ENGINE_PARTS).intersection(self.parts))

    @property
    def is_decision_module(self) -> bool:
        return self.path.name in DECISION_FILES

    @property
    def is_analysis_module(self) -> bool:
        return "analysis" in self.parts

    def suppressed(self, line: int, rule: str) -> bool:
        return rule in self.ignores.get(line, set())


def enclosing_symbols(tree: ast.Module) -> Dict[int, str]:
    """Map line number -> dotted enclosing def/class symbol."""
    spans: List[tuple] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = f"{prefix}.{child.name}" if prefix else child.name
                end = getattr(child, "end_lineno", child.lineno)
                spans.append((child.lineno, end or child.lineno, name))
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, "")
    out: Dict[int, str] = {}
    # Inner (later, narrower) spans overwrite outer ones.
    for start, end, name in sorted(spans, key=lambda s: (s[0], -(s[1]))):
        for line in range(start, end + 1):
            out[line] = name
    return out


class LintRule:
    """Base class: one rule = one id + applicability + a check pass."""

    id: str = "REPRO000"
    title: str = ""

    def applies(self, ctx: LintContext) -> bool:  # pragma: no cover - trivial
        return True

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------------

    def finding(
        self, ctx: LintContext, node: ast.AST, message: str,
        *, severity: str = "error",
    ) -> Finding:
        line = getattr(node, "lineno", 0)
        symbol = enclosing_symbols(ctx.tree).get(line, "")
        return Finding(
            rule=self.id,
            path=ctx.display_path,
            line=line,
            symbol=symbol,
            message=message,
            severity=severity,
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve ``a.b.c`` attribute chains to a dotted string."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Alias -> canonical dotted name, from module-level imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def _canonical_call(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a call target, resolving import aliases."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    canonical_head = aliases.get(head, head)
    return f"{canonical_head}.{rest}" if rest else canonical_head


class WallClockRule(LintRule):
    """REPRO101: wall-clock reads are forbidden on the virtual clock."""

    id = "REPRO101"
    title = "wall-clock call in virtual-clock code"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.is_virtual_clock

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, aliases)
            if canonical in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call {canonical}() in virtual-clock code; "
                    f"use the simulation timeline instead",
                )


class UnseededRandomRule(LintRule):
    """REPRO102: global-state RNG draws are forbidden on the virtual clock."""

    id = "REPRO102"
    title = "unseeded randomness in virtual-clock code"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.is_virtual_clock

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, aliases)
            if canonical is None:
                continue
            if canonical.startswith("random."):
                fn = canonical.split(".", 1)[1]
                if fn == "Random" and (node.args or node.keywords):
                    continue  # random.Random(seed) is reproducible
                yield self.finding(
                    ctx, node,
                    f"module-level {canonical}() draws from hidden global "
                    f"state; pass a seeded generator instead",
                )
            elif canonical.startswith("numpy.random."):
                fn = canonical.rsplit(".", 1)[1]
                if fn in _SEEDED_NP_FACTORIES:
                    if fn == "default_rng" and not (node.args or node.keywords):
                        yield self.finding(
                            ctx, node,
                            "np.random.default_rng() without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                    continue
                yield self.finding(
                    ctx, node,
                    f"global np.random.{fn}() call; use a passed "
                    f"np.random.Generator (default_rng(seed))",
                )


class BareExceptRule(LintRule):
    """REPRO103: bare ``except:`` in engine/backends code."""

    id = "REPRO103"
    title = "bare except in engine/backend code"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.is_engine

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt too; "
                    "name the exception family (ReproError subclasses)",
                )


def _body_is_noop(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True


class SwallowedExceptionRule(LintRule):
    """REPRO104: an except block whose body does nothing at all."""

    id = "REPRO104"
    title = "swallowed exception in engine/backend code"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.is_engine

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and _body_is_noop(node.body):
                caught = dotted_name(node.type) if node.type else "everything"
                yield self.finding(
                    ctx, node,
                    f"exception handler for {caught} swallows the error "
                    f"silently; log, degrade, or re-raise",
                )


def _assigns_attribute(node: ast.stmt) -> bool:
    """Does this statement mutate attribute state (x.y = / x.y += /
    x.y[k] = / self.attr.mutator())?"""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        func = node.value.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and isinstance(func.value, ast.Attribute)
        )
    else:
        return False
    for target in targets:
        if isinstance(target, ast.Attribute):
            return True
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            return True
        if isinstance(target, (ast.Tuple, ast.List)) and any(
            isinstance(el, ast.Attribute) for el in target.elts
        ):
            return True
    return False


class ProvenanceRule(LintRule):
    """REPRO105: decision branches must leave a provenance record.

    In the tuner and the degradation manager, a *public* function that
    both branches (``if``) and mutates attribute state is a decision
    point; it must reference the provenance log (directly or through a
    recording helper) so `repro trace` can explain the choice.
    """

    id = "REPRO105"
    title = "provenance-free decision branch"

    def applies(self, ctx: LintContext) -> bool:
        return ctx.is_decision_module

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            has_branch = any(
                isinstance(n, ast.If) for n in ast.walk(node)
            )
            mutates = any(
                _assigns_attribute(n)
                for n in ast.walk(node)
                if isinstance(n, ast.stmt)
            )
            if not (has_branch and mutates):
                continue
            names = {
                n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
            } | {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            }
            if names.intersection(PROVENANCE_MARKERS):
                continue
            yield self.finding(
                ctx, node,
                f"decision function {node.name}() branches and mutates "
                f"state without recording provenance; emit a decision "
                f"record (obs.provenance) on every taken branch",
            )


class UnitLiteralRule(LintRule):
    """REPRO106: bare magnitude literals outside units.py."""

    id = "REPRO106"
    title = "unit-suspicious numeric literal"

    def applies(self, ctx: LintContext) -> bool:
        return not ctx.is_units_module and not ctx.is_analysis_module

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Constant) and isinstance(
                node.value, (int, float)
            ) and not isinstance(node.value, bool):
                if float(node.value) in SUSPICIOUS_MAGNITUDES:
                    yield self.finding(
                        ctx, node,
                        f"bare magnitude {node.value:g}; spell it via "
                        f"repro.units (MB/GB/MEGA/GIGA/...) so the unit "
                        f"is explicit",
                    )
            elif isinstance(node, ast.BinOp):
                if (
                    isinstance(node.op, ast.Pow)
                    and isinstance(node.left, ast.Constant)
                    and node.left.value == _POW_BASE
                    and isinstance(node.right, ast.Constant)
                    and isinstance(node.right.value, int)
                    and node.right.value >= 2
                ):
                    yield self.finding(
                        ctx, node,
                        f"bare binary magnitude {_POW_BASE}**"
                        f"{node.right.value}; use repro.units.MIB/GIB",
                    )
                elif (
                    isinstance(node.op, ast.LShift)
                    and isinstance(node.left, ast.Constant)
                    and node.left.value == 1
                    and isinstance(node.right, ast.Constant)
                    and isinstance(node.right.value, int)
                    and node.right.value >= _SHIFT_MIN_BITS
                ):
                    yield self.finding(
                        ctx, node,
                        f"bare binary magnitude 1<<{node.right.value}; "
                        f"use repro.units.MIB/GIB",
                    )


class TimelineWallClockRule(LintRule):
    """REPRO110: wall-clock reads are forbidden in timeline telemetry.

    ``repro.obs.timeline`` lives under ``obs`` — deliberately outside
    ``VIRTUAL_CLOCK_PARTS``, so REPRO101 never scans it — yet its
    artifacts are digest-gated for cross-process bit-identity.  A single
    ``time.time()`` leaking into a window boundary or a meta field
    breaks that gate only intermittently (two fast runs can land in the
    same second), which is the worst way to break it; the timeline
    module therefore gets its own dedicated rule.
    """

    id = "REPRO110"
    title = "wall-clock call in timeline telemetry"

    def applies(self, ctx: LintContext) -> bool:
        return "obs" in ctx.parts and ctx.path.name == "timeline.py"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, aliases)
            if canonical in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call {canonical}() in repro.obs.timeline; "
                    f"timeline artifacts are digest-gated and must be a "
                    f"pure function of the virtual clock",
                )


#: Every registered lint rule, in id order.
ALL_RULES: Sequence[LintRule] = (
    WallClockRule(),
    UnseededRandomRule(),
    BareExceptRule(),
    SwallowedExceptionRule(),
    ProvenanceRule(),
    UnitLiteralRule(),
    TimelineWallClockRule(),
)


def rules_by_id(ids: Optional[Iterable[str]] = None) -> List[LintRule]:
    """Resolve rule ids (None = all); raises ReproError on unknown ids."""
    if ids is None:
        return list(ALL_RULES)
    known = {r.id: r for r in ALL_RULES}
    wanted = list(ids)
    unknown = [i for i in wanted if i not in known]
    if unknown:
        raise ReproError(
            f"unknown lint rules {unknown}; available: {sorted(known)}"
        )
    return [known[i] for i in wanted]


def lint_file(
    path: Path,
    rules: Optional[Sequence[LintRule]] = None,
    *,
    display_path: Optional[str] = None,
) -> List[Finding]:
    """Run the lint rules over one file."""
    ctx = LintContext.for_file(path, display_path)
    active = list(rules) if rules is not None else list(ALL_RULES)
    out: List[Finding] = []
    for rule in active:
        if not rule.applies(ctx):
            continue
        for finding in rule.check(ctx):
            if not ctx.suppressed(finding.line, finding.rule):
                out.append(finding)
    return out


__all__ = [
    "ALL_RULES",
    "LintContext",
    "LintRule",
    "lint_file",
    "rules_by_id",
    "WALL_CLOCK_CALLS",
    "PROVENANCE_MARKERS",
    "MUTATING_METHODS",
    "SUSPICIOUS_MAGNITUDES",
]

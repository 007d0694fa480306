"""REPRO201 / REPRO220 — the lock checker.

Three passes over one notion of lock scope (:func:`_walk_statements`):

**REPRO201 lock discipline.**
The modules known to be exercised from multiple threads (the plan cache
and the serving layer) follow one convention: a class that owns a
``self._lock`` (or ``self._<anything>_lock``) protects *all* of its
mutable attributes with it.  This pass walks every class that creates a
lock attribute and reports attribute mutations — assignments, augmented
assignments, subscript stores, and calls of known container mutators on
``self.<attr>`` — that are not lexically inside a ``with self._lock:``
block.

**Escape analysis (no rule id of its own — it sharpens REPRO201).**
A private helper that mutates shared state without taking the lock is
fine *if the lock is always already held when it runs*.  This pass
proves it, per class, as a fixed point:

  a private method ``_m`` is **proven lock-held** when
  (1) it never escapes — every ``self._m`` reference in the class is a
      direct call, never a value (no callbacks, no ``getattr``), and
  (2) every internal call site is lexically inside ``with self._lock``,
      inside ``__init__`` (construction happens-before sharing), or
      inside another method already proven lock-held.

Proven methods are exempt from REPRO201; everything else still flags.
The proof is deliberately per-class and intraprocedural — a helper
called from *outside* its class is never proven.

**REPRO220 lock order.**
Every ``with self.<lock>`` acquisition is a node; an edge ``A -> B``
means some code path acquires ``B`` (directly, or transitively through
project calls) while holding ``A``.  Any strongly connected component
with two or more locks is a potential deadlock: two threads entering
the cycle from different ends can block each other forever.  Self
re-acquisition (``A -> A``) is not reported — the repo's shared classes
use ``RLock`` where they re-enter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar,
    Union,
)

from .callgraph import CallGraph, ModuleInfo, lock_attributes
from .findings import Finding
from .lint import MUTATING_METHODS, LintContext, dotted_name

RULE_ID = "REPRO201"
RULE_ORDER = "REPRO220"

#: Path parts of modules known to be shared across threads.  ``sim``
#: covers :mod:`repro.sim.engine`, the struct-of-arrays event core both
#: threaded simulators instantiate per run; ``tuning`` and ``store``
#: hold the tuning fleet (scheduler thread + worker pool over a shared
#: queue and content-addressed store).
THREADED_PARTS: Set[str] = {"serving", "cluster", "sim", "tuning", "store"}
#: File names of modules known to be shared across threads.
THREADED_FILES: Set[str] = {"plan_cache.py"}

_State = TypeVar("_State")


def is_threaded_module(path: Path) -> bool:
    return (
        bool(THREADED_PARTS.intersection(path.parts))
        or path.name in THREADED_FILES
    )


# ---------------------------------------------------------------------------
# Lock scope
# ---------------------------------------------------------------------------

def _is_lock_with(stmt: ast.With, locks: Set[str]) -> bool:
    for item in stmt.items:
        expr = item.context_expr
        dotted = dotted_name(expr)
        if dotted is not None and any(
            dotted == f"self.{lock}" for lock in locks
        ):
            return True
    return False


def _walk_statements(
    body: Sequence[ast.stmt],
    state: _State,
    enter: Callable[[ast.With, _State], _State],
) -> Iterator[Tuple[ast.stmt, _State]]:
    """Yield ``(stmt, state)`` for every statement in pre-order.

    ``state`` is the lock scope a statement runs in; ``enter(with_stmt,
    state)`` gives the scope inside a ``with`` block.  Exception
    handlers run in the scope of their ``try``.
    """
    for stmt in body:
        yield stmt, state
        inner = enter(stmt, state) if isinstance(stmt, ast.With) else state
        for field_name in ("body", "orelse", "finalbody"):
            children = getattr(stmt, field_name, None)
            if children:
                yield from _walk_statements(children, inner, enter)
        if isinstance(stmt, ast.Try):
            for handler in stmt.handlers:
                yield from _walk_statements(handler.body, state, enter)


def _locked_statements(
    body: Sequence[ast.stmt], locks: Set[str]
) -> Iterator[Tuple[ast.stmt, bool]]:
    """``(stmt, lock lexically held)`` for every statement of ``body``."""
    return _walk_statements(
        body, False,
        lambda stmt, locked: locked or _is_lock_with(stmt, locks),
    )


# ---------------------------------------------------------------------------
# Escape analysis (per-class proof that helpers run with the lock held)
# ---------------------------------------------------------------------------

@dataclass
class EscapeProof:
    """The outcome of the per-class lock escape analysis."""

    #: method name -> one-line proof ("all N call sites hold the lock").
    proven: Dict[str, str] = field(default_factory=dict)
    #: method name -> why the proof failed (for docs and debugging).
    unproven: Dict[str, str] = field(default_factory=dict)


def _own_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
    """The statement's direct expressions (not nested statement bodies)."""
    for _, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    yield item
                elif isinstance(item, ast.withitem):
                    yield item.context_expr


def _self_method_calls(expr: ast.expr) -> Iterator[str]:
    """Names of methods invoked as ``self.<m>(...)`` anywhere in ``expr``."""
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            yield node.func.attr


def _call_sites_by_callee(
    cls: ast.ClassDef, locks: Set[str]
) -> Dict[str, List[Tuple[str, bool]]]:
    """callee method -> [(caller method, lock lexically held)] within the
    class."""
    sites: Dict[str, List[Tuple[str, bool]]] = {}
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt, locked in _locked_statements(method.body, locks):
            for expr in _own_exprs(stmt):
                for callee in _self_method_calls(expr):
                    sites.setdefault(callee, []).append((method.name, locked))
    return sites


def _escaped_methods(cls: ast.ClassDef, candidates: Set[str]) -> Set[str]:
    """Candidates referenced as values (``self._m`` without a call)."""
    call_funcs = {
        id(node.func)
        for node in ast.walk(cls)
        if isinstance(node, ast.Call)
    }
    escaped: Set[str] = set()
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in candidates
            and id(node) not in call_funcs
        ):
            escaped.add(node.attr)
    return escaped


def analyze_class_escapes(cls: ast.ClassDef, locks: Set[str]) -> EscapeProof:
    """Prove which private methods of ``cls`` only run with a lock held."""
    proof = EscapeProof()
    if not locks:
        return proof
    methods = {
        stmt.name
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    # Public methods are callable from outside the class; dunders are
    # invoked by the runtime.  Neither can be proven from internal
    # evidence alone.
    candidates = {
        name for name in methods
        if name.startswith("_") and not name.startswith("__")
    }
    escaped = _escaped_methods(cls, candidates)
    for name in sorted(escaped):
        proof.unproven[name] = "escapes as a value (referenced without a call)"
    sites = _call_sites_by_callee(cls, locks)

    proven: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name in sorted(candidates - proven - escaped):
            calls = sites.get(name, [])
            if not calls:
                continue
            if all(
                locked or caller == "__init__" or caller in proven
                for caller, locked in calls
            ):
                proven.add(name)
                changed = True
    for name in sorted(proven):
        count = len(sites[name])
        proof.proven[name] = (
            f"all {count} internal call site(s) hold the lock "
            f"(lexically, via __init__, or via a proven caller)"
        )
    for name in sorted(candidates - proven - escaped):
        calls = sites.get(name, [])
        if not calls:
            proof.unproven[name] = "no internal call sites (cannot prove)"
        else:
            unlocked = [c for c, locked in calls if not locked]
            proof.unproven[name] = (
                f"called without the lock from {', '.join(sorted(set(unlocked)))}"
            )
    return proof


def proven_lock_held(cls: ast.ClassDef, locks: Optional[Set[str]] = None) -> Set[str]:
    """Method names of ``cls`` proven to always run with the lock held."""
    if locks is None:
        locks = lock_attributes(cls)
    return set(analyze_class_escapes(cls, locks).proven)


# ---------------------------------------------------------------------------
# REPRO201 — shared-state mutation outside the lock
# ---------------------------------------------------------------------------

def _self_mutation(stmt: ast.stmt) -> Optional[str]:
    """The mutated ``self.<attr>`` name, if this statement mutates one."""

    def attr_of(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    if isinstance(stmt, ast.Assign):
        targets: Sequence[ast.expr] = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            return attr_of(func.value)
        return None
    else:
        return None
    for target in targets:
        name = attr_of(target)
        if name is not None:
            return name
        if isinstance(target, ast.Subscript):
            name = attr_of(target.value)
            if name is not None:
                return name
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                name = attr_of(element)
                if name is not None:
                    return name
    return None


def check_class(
    ctx: LintContext, cls: ast.ClassDef
) -> Iterator[Finding]:
    locks = lock_attributes(cls)
    if not locks:
        return
    proven = proven_lock_held(cls, locks)
    lock_list = ", ".join(sorted(locks))
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name == "__init__":
            continue  # construction happens-before sharing
        if method.name in proven:
            continue  # escape analysis: only runs with the lock held
        for stmt, locked in _locked_statements(method.body, locks):
            if locked:
                continue
            attr = _self_mutation(stmt)
            if attr is None or attr in locks:
                continue
            line = getattr(stmt, "lineno", method.lineno)
            if ctx.suppressed(line, RULE_ID):
                continue
            yield Finding(
                rule=RULE_ID,
                path=ctx.display_path,
                line=line,
                symbol=f"{cls.name}.{method.name}",
                message=(
                    f"shared attribute self.{attr} mutated outside "
                    f"`with self.{lock_list}` in threaded module"
                ),
            )


def check_file(
    path: Union[Path, LintContext], *, display_path: Optional[str] = None
) -> List[Finding]:
    """Run REPRO201 over one file (threaded modules get it by default
    from the runner; any file can be checked explicitly).  Accepts a
    path or an already-parsed :class:`LintContext`."""
    ctx = (
        path if isinstance(path, LintContext)
        else LintContext.for_file(path, display_path)
    )
    out: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            out.extend(check_class(ctx, node))
    return out


# ---------------------------------------------------------------------------
# REPRO220 — global lock-acquisition-order graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LockEdge:
    """``holder`` is held when ``acquired`` is (or may be) taken."""

    holder: str                   # lock id: module.Class.<attr>
    acquired: str
    path: str                     # display path of the acquisition site
    line: int
    symbol: str


class LockOrderAnalysis:
    """Builds the lock graph over a project call graph and finds cycles."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.edges: Dict[Tuple[str, str], LockEdge] = {}
        self._locks_memo: Dict[str, Set[str]] = {}
        self._callee_index: Dict[int, str] = {
            id(site.node): site.callee for site in self.graph.calls
        }

    # -- lock identity --------------------------------------------------------

    def _lock_id(self, qualname: str, stmt: ast.With) -> Optional[str]:
        fn = self.graph.function(qualname)
        if fn is None or not fn.cls:
            return None
        cls = self.graph.classes.get(f"{fn.module}.{fn.cls}")
        if cls is None:
            return None
        for item in stmt.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in cls.lock_attrs
            ):
                return f"{cls.qualname}.{expr.attr}"
        return None

    # -- transitive acquisition -----------------------------------------------

    def locks_acquired(self, qualname: str) -> Set[str]:
        """Every lock ``qualname`` may acquire, directly or via project
        calls (memoized; cycles contribute nothing extra)."""
        memoized = self._locks_memo.get(qualname)
        if memoized is not None:
            return memoized
        self._locks_memo[qualname] = set()  # cycle guard
        fn = self.graph.function(qualname)
        acquired: Set[str] = set()
        if fn is not None:
            for node in ast.walk(fn.node):
                if isinstance(node, ast.With):
                    lock = self._lock_id(qualname, node)
                    if lock is not None:
                        acquired.add(lock)
            for callee in self.graph.callees_of(qualname):
                acquired |= self.locks_acquired(callee)
        self._locks_memo[qualname] = acquired
        return acquired

    # -- edge collection ------------------------------------------------------

    def _add_edge(self, edge: LockEdge) -> None:
        if edge.holder == edge.acquired:
            return  # RLock re-entry; not an ordering hazard
        self.edges.setdefault((edge.holder, edge.acquired), edge)

    def _walk(
        self, body: Sequence[ast.stmt], qualname: str, module: ModuleInfo
    ) -> None:
        def enter(stmt: ast.With, held: Tuple[str, ...]) -> Tuple[str, ...]:
            lock = self._lock_id(qualname, stmt)
            return held if lock is None else held + (lock,)

        symbol = _symbol_of(qualname)
        for stmt, held in _walk_statements(body, (), enter):
            if not held:
                continue
            acquired: List[Tuple[str, int]] = []
            if isinstance(stmt, ast.With):
                lock = self._lock_id(qualname, stmt)
                if lock is not None:
                    acquired.append((lock, stmt.lineno))
            for expr in _own_exprs(stmt):
                for call in ast.walk(expr):
                    if not isinstance(call, ast.Call):
                        continue
                    callee = self._callee_index.get(id(call))
                    if callee is None:
                        continue
                    acquired.extend(
                        (lock, call.lineno)
                        for lock in self.locks_acquired(callee)
                    )
            for lock, line in acquired:
                for holder in held:
                    self._add_edge(LockEdge(
                        holder=holder,
                        acquired=lock,
                        path=module.display_path,
                        line=line,
                        symbol=symbol,
                    ))

    def build(self) -> "LockOrderAnalysis":
        for fn in self.graph.functions.values():
            module = self.graph.modules.get(fn.module)
            if module is None:
                continue
            self._walk(fn.node.body, fn.qualname, module)
        return self

    # -- cycle detection ------------------------------------------------------

    def cycles(self) -> List[Tuple[str, ...]]:
        """Strongly connected components with >= 2 locks, canonically
        ordered (rotated so the smallest lock id leads)."""
        adjacency: Dict[str, Set[str]] = {}
        for holder, acquired in self.edges:
            adjacency.setdefault(holder, set()).add(acquired)
            adjacency.setdefault(acquired, set())
        sccs = _tarjan(adjacency)
        out: List[Tuple[str, ...]] = []
        for component in sccs:
            if len(component) >= 2:
                out.append(tuple(sorted(component)))
        return sorted(out)

    def check(self) -> List[Finding]:
        findings: List[Finding] = []
        for cycle in self.cycles():
            anchor = self._anchor_for(cycle)
            chain = " -> ".join((*cycle, cycle[0]))
            if anchor is not None and self.graph.modules.get(
                _module_of_path(self.graph, anchor.path)
            ) is not None:
                module = self.graph.modules[
                    _module_of_path(self.graph, anchor.path)
                ]
                if self.graph.suppressed(module, anchor.line, RULE_ORDER):
                    continue
            findings.append(Finding(
                rule=RULE_ORDER,
                path=anchor.path if anchor else "<project>",
                line=anchor.line if anchor else 0,
                symbol=anchor.symbol if anchor else "",
                message=(
                    f"lock-order cycle (potential deadlock): {chain}; "
                    f"acquire these locks in one global order"
                ),
            ))
        return findings

    def _anchor_for(self, cycle: Tuple[str, ...]) -> Optional[LockEdge]:
        members = set(cycle)
        best: Optional[LockEdge] = None
        for (holder, acquired), edge in sorted(self.edges.items()):
            if holder in members and acquired in members:
                if best is None:
                    best = edge
        return best


def _symbol_of(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qualname


def _module_of_path(graph: CallGraph, path: str) -> str:
    for name, module in graph.modules.items():
        if module.display_path == path:
            return name
    return ""


def _tarjan(adjacency: Dict[str, Set[str]]) -> List[List[str]]:
    """Iterative Tarjan SCC (no recursion limit surprises)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in sorted(adjacency):
        if root in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [
            (root, iter(sorted(adjacency[root])))
        ]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(adjacency[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def check_lock_order(graph: CallGraph) -> List[Finding]:
    """Run the REPRO220 pass over a built call graph."""
    return LockOrderAnalysis(graph).build().check()


__all__ = [
    "EscapeProof",
    "LockEdge",
    "LockOrderAnalysis",
    "RULE_ID",
    "RULE_ORDER",
    "analyze_class_escapes",
    "check_file",
    "check_lock_order",
    "is_threaded_module",
    "proven_lock_held",
]

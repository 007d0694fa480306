"""Project-wide, module-qualified call graph for interprocedural passes.

Every rule before this module was *lexical*: it saw one file at a time
and stopped at function boundaries.  The dataflow rule families
(REPRO21x seed-taint, REPRO23x durability) need to answer questions
like "is this RNG's seed argument tainted at *every* call site of the
enclosing function?" — which requires knowing, for the whole analyzed
tree at once, which function calls which.

The graph is deliberately modest and deliberately honest about it:

* names are **module-qualified** (``repro.tuning.queue.JobQueue.claim``),
  derived from the display path, so fixture trees in tests get the same
  resolution as the real package;
* ``self.method()`` resolves within the enclosing class;
* ``self.attr.method()`` resolves through *attribute types* inferred
  from ``__init__`` (annotated parameters assigned to ``self.attr``,
  or direct ``self.attr = ClassName(...)`` constructions);
* cross-module calls resolve through import aliases, including
  relative imports (``from ..fsutil import atomic_write_text``);
* anything dynamic (callbacks, ``getattr``, duck typing) simply
  produces no edge — passes must treat "no edge" as "unknown", never
  as "safe".

``repro analyze --graph FILE`` dumps the graph as deterministic JSON.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .lint import LintContext

#: Sentinel function name for module-level (top-of-file) code.
MODULE_SCOPE = "<module>"

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_name_for(display_path: str) -> str:
    """Dotted module name for a repo-relative display path.

    ``src/repro/tuning/queue.py`` -> ``repro.tuning.queue``; fixture
    trees without a ``src/`` prefix keep their own shape
    (``sim/timeline.py`` -> ``sim.timeline``).
    """
    parts = list(Path(display_path).with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve_relative(package: str, level: int, module: Optional[str]) -> str:
    """Absolute module named by ``from <level dots><module> import ...``."""
    base_parts = package.split(".") if package else []
    # level=1 means "the current package"; each extra level goes up one.
    if level > 1:
        base_parts = base_parts[: max(0, len(base_parts) - (level - 1))]
    if module:
        base_parts.append(module)
    return ".".join(base_parts)


def _module_aliases(module: str, tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted target, resolving relative imports."""
    package = module.rsplit(".", 1)[0] if "." in module else ""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    head = name.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(package, node.level, node.module)
            else:
                base = node.module or ""
            for name in node.names:
                target = f"{base}.{name.name}" if base else name.name
                aliases[name.asname or name.name] = target
    return aliases


@dataclass
class FunctionInfo:
    """One def in the analyzed tree."""

    qualname: str                 # module.Class.method or module.func
    module: str
    name: str
    cls: str                      # "" for free functions
    node: FunctionNode
    lineno: int
    params: Tuple[str, ...]       # declared parameter names, minus self/cls


@dataclass
class ClassInfo:
    """One class in the analyzed tree, with the attribute types calls
    resolve through."""

    qualname: str                 # module.Class
    module: str
    name: str
    node: ast.ClassDef
    #: self.<attr> -> project class qualname, from __init__ evidence.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class CallSite:
    """One resolved call edge occurrence."""

    caller: str                   # qualname (``mod.<module>`` at top level)
    callee: str                   # qualname of the resolved target
    module: str                   # caller's module
    node: ast.Call


@dataclass
class ModuleInfo:
    """One parsed file plus its lint context (for pragma suppression)."""

    name: str
    ctx: LintContext
    aliases: Dict[str, str]

    @property
    def tree(self) -> ast.Module:
        return self.ctx.tree

    @property
    def display_path(self) -> str:
        return self.ctx.display_path


def _param_names(node: FunctionNode) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def _annotation_class(expr: Optional[ast.expr]) -> Optional[str]:
    """The (possibly dotted) class name an annotation spells, unwrapping
    ``Optional[...]`` one level."""
    if expr is None:
        return None
    if isinstance(expr, ast.Subscript):
        head = expr.value
        if isinstance(head, ast.Name) and head.id == "Optional":
            return _annotation_class(expr.slice)
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value  # string annotation
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        parts: List[str] = []
        node: ast.expr = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
    return None


class CallGraph:
    """The resolved project: modules, defs, classes, and call edges."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: List[CallSite] = []
        self._callees: Dict[str, Set[str]] = {}
        self._callers: Dict[str, Set[str]] = {}
        self._sites_by_callee: Dict[str, List[CallSite]] = {}

    # -- queries --------------------------------------------------------------

    def callees_of(self, qualname: str) -> Set[str]:
        return self._callees.get(qualname, set())

    def callers_of(self, qualname: str) -> Set[str]:
        return self._callers.get(qualname, set())

    def call_sites_of(self, callee: str) -> List[CallSite]:
        return self._sites_by_callee.get(callee, [])

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def module_of(self, qualname: str) -> Optional[ModuleInfo]:
        fn = self.functions.get(qualname)
        if fn is not None:
            return self.modules.get(fn.module)
        if qualname.endswith(f".{MODULE_SCOPE}"):
            return self.modules.get(qualname.rsplit(".", 1)[0])
        return None

    def suppressed(self, module: ModuleInfo, line: int, rule: str) -> bool:
        return module.ctx.suppressed(line, rule)

    # -- construction ---------------------------------------------------------

    def _add_edge(self, site: CallSite) -> None:
        self.calls.append(site)
        self._callees.setdefault(site.caller, set()).add(site.callee)
        self._callers.setdefault(site.callee, set()).add(site.caller)
        self._sites_by_callee.setdefault(site.callee, []).append(site)

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Deterministic JSON form (the ``--graph`` dump)."""
        return {
            "schema": "repro.analysis-callgraph",
            "version": 1,
            "modules": {
                name: info.display_path
                for name, info in sorted(self.modules.items())
            },
            "functions": [
                {
                    "qualname": fn.qualname,
                    "module": fn.module,
                    "line": fn.lineno,
                    "params": list(fn.params),
                }
                for _, fn in sorted(self.functions.items())
            ],
            "classes": [
                {
                    "qualname": cls.qualname,
                    "attr_types": dict(sorted(cls.attr_types.items())),
                }
                for _, cls in sorted(self.classes.items())
            ],
            "edges": sorted(
                {(s.caller, s.callee) for s in self.calls}
            ),
        }


class _DefCollector(ast.NodeVisitor):
    """First pass: register every def/class of one module."""

    def __init__(self, graph: CallGraph, module: ModuleInfo) -> None:
        self.graph = graph
        self.module = module
        self.class_stack: List[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = f"{self.module.name}.{node.name}"
        self.graph.classes[qualname] = ClassInfo(
            qualname=qualname,
            module=self.module.name,
            name=node.name,
            node=node,
        )
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_def(self, node: FunctionNode) -> None:
        cls = self.class_stack[-1] if self.class_stack else ""
        prefix = f"{self.module.name}.{cls}." if cls else f"{self.module.name}."
        qualname = f"{prefix}{node.name}"
        # Innermost definition wins on (rare) name collisions.
        self.graph.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=self.module.name,
            name=node.name,
            cls=cls,
            node=node,
            lineno=node.lineno,
            params=_param_names(node),
        )
        # Nested defs resolve like free functions of the module; their
        # bodies are visited but their names are rarely call targets.
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)


def _infer_attr_types(graph: CallGraph, cls: ClassInfo, module: ModuleInfo) -> None:
    """Fill ``cls.attr_types`` from ``__init__`` assignments."""
    init = next(
        (
            stmt for stmt in cls.node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__init__"
        ),
        None,
    )
    if init is None:
        return
    param_types: Dict[str, str] = {}
    args = init.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        spelled = _annotation_class(arg.annotation)
        if spelled is None:
            continue
        resolved = _resolve_class_name(graph, module, spelled)
        if resolved is not None:
            param_types[arg.arg] = resolved
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = node.value
            if isinstance(value, ast.Name) and value.id in param_types:
                cls.attr_types[target.attr] = param_types[value.id]
            elif isinstance(value, ast.Call):
                spelled_call = _spelled_name(value.func)
                if spelled_call is None:
                    continue
                resolved = _resolve_class_name(graph, module, spelled_call)
                if resolved is not None:
                    cls.attr_types[target.attr] = resolved


def _spelled_name(expr: ast.expr) -> Optional[str]:
    parts: List[str] = []
    node: ast.expr = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve_class_name(
    graph: CallGraph, module: ModuleInfo, spelled: str
) -> Optional[str]:
    """Project class qualname for a name as spelled in ``module``."""
    local = f"{module.name}.{spelled}"
    if local in graph.classes:
        return local
    head, _, rest = spelled.partition(".")
    target = module.aliases.get(head)
    if target is not None:
        candidate = f"{target}.{rest}" if rest else target
        if candidate in graph.classes:
            return candidate
    if spelled in graph.classes:
        return spelled
    return None


class _CallResolver(ast.NodeVisitor):
    """Second pass: resolve call targets to project qualnames."""

    def __init__(self, graph: CallGraph, module: ModuleInfo) -> None:
        self.graph = graph
        self.module = module
        self.class_stack: List[str] = []
        self.func_stack: List[str] = []

    @property
    def caller(self) -> str:
        if self.func_stack:
            return self.func_stack[-1]
        return f"{self.module.name}.{MODULE_SCOPE}"

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_def(self, node: FunctionNode) -> None:
        cls = self.class_stack[-1] if self.class_stack else ""
        prefix = f"{self.module.name}.{cls}." if cls else f"{self.module.name}."
        self.func_stack.append(f"{prefix}{node.name}")
        self.generic_visit(node)
        self.func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_def(node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = self._resolve(node)
        if callee is not None:
            self.graph._add_edge(CallSite(
                caller=self.caller,
                callee=callee,
                module=self.module.name,
                node=node,
            ))
        self.generic_visit(node)

    # -- resolution -----------------------------------------------------------

    def _resolve(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolve_bare(func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(func)
        return None

    def _resolve_bare(self, name: str) -> Optional[str]:
        mod = self.module.name
        local_fn = f"{mod}.{name}"
        if local_fn in self.graph.functions:
            return local_fn
        if local_fn in self.graph.classes:
            init = f"{local_fn}.__init__"
            return init if init in self.graph.functions else None
        target = self.module.aliases.get(name)
        if target is None:
            return None
        if target in self.graph.functions:
            return target
        if target in self.graph.classes:
            init = f"{target}.__init__"
            return init if init in self.graph.functions else None
        return None

    def _resolve_attribute(self, func: ast.Attribute) -> Optional[str]:
        value = func.value
        # self.method(...)
        if (
            isinstance(value, ast.Name)
            and value.id == "self"
            and self.class_stack
        ):
            qualname = (
                f"{self.module.name}.{self.class_stack[-1]}.{func.attr}"
            )
            if qualname in self.graph.functions:
                return qualname
            return None
        # self.attr.method(...): through inferred attribute types.
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and self.class_stack
        ):
            cls_qual = f"{self.module.name}.{self.class_stack[-1]}"
            cls = self.graph.classes.get(cls_qual)
            if cls is None:
                return None
            target_cls = cls.attr_types.get(value.attr)
            if target_cls is None:
                return None
            qualname = f"{target_cls}.{func.attr}"
            if qualname in self.graph.functions:
                return qualname
            return None
        # module.func(...) / package.module.Class.method(...) via aliases.
        spelled = _spelled_name(func)
        if spelled is None:
            return None
        head, _, rest = spelled.partition(".")
        target = self.module.aliases.get(head)
        if target is None or not rest:
            return None
        candidate = f"{target}.{rest}"
        if candidate in self.graph.functions:
            return candidate
        if candidate in self.graph.classes:
            init = f"{candidate}.__init__"
            return init if init in self.graph.functions else None
        return None


def build_call_graph(contexts: Sequence[LintContext]) -> CallGraph:
    """Build the project call graph from parsed lint contexts."""
    graph = CallGraph()
    for ctx in contexts:
        name = module_name_for(ctx.display_path)
        module = ModuleInfo(
            name=name,
            ctx=ctx,
            aliases=_module_aliases(name, ctx.tree),
        )
        graph.modules[name] = module
    for module in graph.modules.values():
        _DefCollector(graph, module).visit(module.tree)
    for module in graph.modules.values():
        for cls in list(graph.classes.values()):
            if cls.module == module.name:
                _infer_attr_types(graph, cls, module)
    for module in graph.modules.values():
        _CallResolver(graph, module).visit(module.tree)
    return graph


__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "MODULE_SCOPE",
    "ModuleInfo",
    "build_call_graph",
    "module_name_for",
]

"""Pass A — project-wide symbol table and call graph.

A :class:`Project` is built once per ``repro-analyze`` run from every
file under the analyzed roots.  It records, per module: the import
alias table, module-level functions, classes (with their methods,
class-level assignments and base-class names resolved to dotted paths
where possible), and module-level bindings.  On top of that it exposes
the resolution queries the flow passes share:

* :meth:`Project.resolve_call` — best-effort mapping of a call site to
  the fully-qualified name of the callee (imported names, same-module
  functions, ``module.attr`` chains, ``self.method`` through the
  static MRO);
* :meth:`Project.mro_attr` / :meth:`Project.mro_method` — static
  attribute/method lookup through the declared base-class chain;
* :attr:`Project.calls` — the call graph (caller qualname → ordered
  callee qualnames), restricted to calls that resolve to functions
  defined inside the project.

Everything is deterministic: modules, functions and call edges are
stored and iterated in sorted order, so downstream passes emit
byte-identical findings regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.context import ModuleContext, dotted_name


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: ModuleContext
    class_name: str | None = None
    nesting: int = 0

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def is_module_level(self) -> bool:
        return self.class_name is None and self.nesting == 0

    def param_names(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        names.extend(a.arg for a in args.kwonlyargs)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    """One class definition: methods, class attrs, declared bases."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    ctx: ModuleContext
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    class_attrs: dict[str, ast.expr] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One analyzed file."""

    name: str
    ctx: ModuleContext
    #: local alias → canonical dotted name, from ``import`` statements.
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level name → assignment value nodes (all assignments seen).
    bindings: dict[str, list[ast.AST]] = field(default_factory=dict)
    #: module-level names bound only by an import statement.
    import_names: set[str] = field(default_factory=set)


def module_imports(tree: ast.AST) -> dict[str, str]:
    """Local name → canonical dotted name for a module's imports."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


class Project:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: caller qualname → callee qualnames (project functions only),
        #: in call-site source order, de-duplicated.
        self.calls: dict[str, list[str]] = {}
        #: every parsed file: display path → context.  Keyed by path,
        #: not module name: outside the package tree a module name is
        #: the file stem, so two ``conftest.py`` would collide.
        self.contexts: dict[str, ModuleContext] = {}
        #: files that failed to parse: display path → SyntaxError.
        self.parse_errors: dict[str, SyntaxError] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: list[Path], display_paths: dict[Path, str] | None = None) -> "Project":
        project = cls()
        for path in sorted(files):
            shown = (display_paths or {}).get(path, str(path))
            source = path.read_text(encoding="utf-8")
            try:
                ctx = ModuleContext.build(path, source, display_path=shown)
            except SyntaxError as error:
                project.parse_errors[shown] = error
                continue
            project.contexts[shown] = ctx
            project._index_module(ctx)
        project._link_calls()
        return project

    def _index_module(self, ctx: ModuleContext) -> None:
        info = ModuleInfo(name=ctx.module, ctx=ctx, imports=module_imports(ctx.tree))
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    info.import_names.add(local)
        self._index_body(info, ctx.tree.body, class_name=None, nesting=0)
        self.modules[info.name] = info

    def _index_body(
        self,
        info: ModuleInfo,
        body: list[ast.stmt],
        class_name: str | None,
        nesting: int,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = (
                    f"{info.name}.{class_name}.{stmt.name}"
                    if class_name
                    else f"{info.name}.{stmt.name}"
                )
                function = FunctionInfo(
                    qualname=qual,
                    module=info.name,
                    name=stmt.name,
                    node=stmt,
                    ctx=info.ctx,
                    class_name=class_name,
                    nesting=nesting,
                )
                if class_name is None and nesting == 0:
                    info.functions[stmt.name] = function
                if class_name is not None and nesting == 0:
                    self.classes[f"{info.name}.{class_name}"].methods[
                        stmt.name
                    ] = function
                self.functions[qual] = function
                # Nested defs are indexed too (pool safety needs to see
                # them as *unpicklable*), one nesting level deeper.
                self._index_body(
                    info, stmt.body, class_name=class_name, nesting=nesting + 1
                )
            elif isinstance(stmt, ast.ClassDef) and class_name is None and nesting == 0:
                cls_info = ClassInfo(
                    qualname=f"{info.name}.{stmt.name}",
                    module=info.name,
                    name=stmt.name,
                    node=stmt,
                    ctx=info.ctx,
                )
                for base in stmt.bases:
                    resolved = self._resolve_dotted(info, dotted_name(base))
                    if resolved is not None:
                        cls_info.bases.append(resolved)
                self.classes[cls_info.qualname] = cls_info
                info.classes[stmt.name] = cls_info
                for child in stmt.body:
                    if isinstance(child, ast.Assign) and len(child.targets) == 1:
                        target = child.targets[0]
                        if isinstance(target, ast.Name):
                            cls_info.class_attrs[target.id] = child.value
                    elif isinstance(child, ast.AnnAssign) and child.value is not None:
                        if isinstance(child.target, ast.Name):
                            cls_info.class_attrs[child.target.id] = child.value
                self._index_body(info, stmt.body, class_name=stmt.name, nesting=0)
            elif isinstance(stmt, ast.Assign):
                if class_name is None and nesting == 0:
                    for target in stmt.targets:
                        for name_node in ast.walk(target):
                            if isinstance(name_node, ast.Name):
                                info.bindings.setdefault(name_node.id, []).append(
                                    stmt.value
                                )
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    class_name is None
                    and nesting == 0
                    and isinstance(stmt.target, ast.Name)
                    and stmt.value is not None
                ):
                    info.bindings.setdefault(stmt.target.id, []).append(stmt.value)
            elif isinstance(stmt, (ast.If, ast.Try, ast.With)):
                # Conditional module-level code (try/except import guards,
                # platform branches) still defines module bindings.
                for inner in ast.iter_child_nodes(stmt):
                    if isinstance(inner, ast.stmt):
                        self._index_body(info, [inner], class_name, nesting)
                    elif isinstance(inner, (ast.ExceptHandler,)):
                        self._index_body(info, inner.body, class_name, nesting)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve_dotted(self, info: ModuleInfo, dotted: str | None) -> str | None:
        """Canonicalize a dotted chain through the module's imports."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in info.imports:
            base = info.imports[head]
            return f"{base}.{rest}" if rest else base
        if head in info.functions or head in info.classes:
            resolved = f"{info.name}.{head}"
            return f"{resolved}.{rest}" if rest else resolved
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        enclosing: FunctionInfo | None = None,
    ) -> str | None:
        """Fully-qualified callee of a call site, where statically evident.

        Handles: bare names (same-module or imported), ``mod.attr``
        chains through import aliases, and ``self.method(...)`` through
        the enclosing class's static MRO.  Returns ``None`` for anything
        dynamic.
        """
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and enclosing is not None
            and enclosing.class_name is not None
        ):
            cls = self.classes.get(f"{enclosing.module}.{enclosing.class_name}")
            if cls is not None:
                method = self.mro_method(cls, func.attr)
                if method is not None:
                    return method.qualname
            return None
        return self._resolve_dotted(module, dotted_name(func))

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------
    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """The class plus its project-defined bases, depth-first."""
        chain: list[ClassInfo] = []
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            chain.append(current)
            for base in current.bases:
                base_cls = self.classes.get(base)
                if base_cls is not None:
                    stack.append(base_cls)
        return chain

    def mro_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        for klass in self.mro(cls):
            if name in klass.methods:
                return klass.methods[name]
        return None

    def mro_attr(self, cls: ClassInfo, name: str) -> tuple[ClassInfo, ast.expr] | None:
        """(defining class, value node) of a class attribute, through bases."""
        for klass in self.mro(cls):
            if name in klass.class_attrs:
                return klass, klass.class_attrs[name]
        return None

    def base_chain(self, cls: ClassInfo) -> set[str]:
        """All base qualnames, including ones outside the project."""
        names: set[str] = set()
        stack = [cls]
        seen: set[str] = set()
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            for base in current.bases:
                names.add(base)
                base_cls = self.classes.get(base)
                if base_cls is not None:
                    stack.append(base_cls)
        return names

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------
    def _link_calls(self) -> None:
        for qualname in sorted(self.functions):
            function = self.functions[qualname]
            module = self.modules.get(function.module)
            if module is None:
                continue
            callees: list[str] = []
            for node in ast.walk(function.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = self.resolve_call(module, node, enclosing=function)
                if resolved is None:
                    continue
                target = self.functions.get(resolved)
                if target is None:
                    # Constructor call: route to __init__ when defined.
                    cls = self.classes.get(resolved)
                    if cls is not None:
                        init = self.mro_method(cls, "__init__")
                        if init is not None:
                            target = init
                if target is not None and target.qualname not in callees:
                    callees.append(target.qualname)
            self.calls[qualname] = callees

    def reachable_from(self, qualname: str) -> list[str]:
        """Call-graph closure (project functions only), BFS order."""
        order: list[str] = []
        seen: set[str] = set()
        queue = [qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            queue.extend(self.calls.get(current, []))
        return order

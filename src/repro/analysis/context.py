"""Per-file analysis context shared by every rule.

One :class:`ModuleContext` is built per analyzed file: the parsed AST with
parent links, the inferred dotted module name (which the scoped rules
match their package lists against), and small AST classification
helpers used by several rules.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

#: ``# repro-analyze: module=repro.parallel.foo`` — overrides the module
#: name inferred from the file path.  Used by rule fixtures, which live
#: outside the package tree but must exercise package-scoped rules.
_MODULE_MARKER = re.compile(r"#\s*repro-analyze:\s*module=([\w.]+)")

#: Dict views are iteration-order hazards; everything reached through
#: one of these attributes is treated as unordered.
DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})

#: Calls that consume an iterable without observing its order, so an
#: unordered argument is harmless.
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "sum", "min", "max", "len", "any", "all", "set", "frozenset", "Counter"}
)


def infer_module_name(path: Path) -> str:
    """Dotted module name from a file path.

    Everything from the last ``repro`` path component onward; files
    outside the package tree fall back to their stem (fixtures override
    via the module marker comment).
    """
    parts = list(path.parts)
    name = path.stem
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        dotted = [p for p in parts[start:-1]]
        if name != "__init__":
            dotted.append(name)
        return ".".join(dotted)
    return name


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` chains; None for anything more dynamic."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one file."""

    path: Path
    display_path: str
    source: str
    tree: ast.AST
    module: str = ""
    lines: list[str] = field(default_factory=list)
    _parents: dict[int, ast.AST] = field(default_factory=dict)

    @classmethod
    def build(cls, path: Path, source: str, display_path: str | None = None) -> "ModuleContext":
        tree = ast.parse(source, filename=str(path))
        ctx = cls(
            path=path,
            display_path=display_path if display_path is not None else str(path),
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )
        ctx.module = cls._module_name(path, ctx.lines)
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                ctx._parents[id(child)] = parent
        return ctx

    @staticmethod
    def _module_name(path: Path, lines: list[str]) -> str:
        for line in lines[:20]:
            marker = _MODULE_MARKER.search(line)
            if marker:
                return marker.group(1)
        return infer_module_name(path)

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def in_packages(self, prefixes: tuple[str, ...]) -> bool:
        """Does this module live under one of the dotted prefixes?"""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )

    # ------------------------------------------------------------------
    # AST classification helpers
    # ------------------------------------------------------------------
    def is_dict_view(self, node: ast.AST) -> bool:
        """``x.keys()`` / ``x.values()`` / ``x.items()``."""
        return (
            isinstance(node, ast.Call)
            and not node.args
            and not node.keywords
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in DICT_VIEW_METHODS
        )

    def is_set_expr(self, node: ast.AST) -> bool:
        """A syntactically evident set: display, comprehension, set()/frozenset()."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"}
        )

    def is_unordered(self, node: ast.AST) -> bool:
        return self.is_dict_view(node) or self.is_set_expr(node)

    def consumed_order_insensitively(self, node: ast.AST) -> bool:
        """Is ``node`` an argument of sorted()/sum()/... (order laundered)?"""
        parent = self.parent(node)
        return (
            isinstance(parent, ast.Call)
            and node in parent.args
            and isinstance(parent.func, ast.Name)
            and parent.func.id in ORDER_INSENSITIVE_CONSUMERS
        )

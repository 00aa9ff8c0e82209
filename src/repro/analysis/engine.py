"""The AST walk behind the custom lint pass.

One visitor walks a module and calls each enabled rule's hooks:

* :class:`LintRule` — the no-op hook base every AST rule subclasses,
  with a stable ``id`` (``RPR...``) and a one-line ``description``.
* :class:`RuleContext` — what the walk shows a rule at each hook:
  module name, alias-resolved dotted paths, the enclosing function
  stack (and whether it is async), and ``emit``.
* :func:`walk_module` — run the given rules over one parsed module.

The fixed rule list and the entry points live in
:mod:`repro.analysis.lint`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "LintFinding",
    "LintRule",
    "RuleContext",
    "record_import",
    "walk_module",
]


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def record_import(
    aliases: dict[str, str], node: ast.Import | ast.ImportFrom
) -> None:
    """Add the local names an import statement binds to ``aliases``."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            head = alias.name.split(".")[0]
            aliases[alias.asname or head] = alias.name if alias.asname else head
    elif node.module and node.level == 0:
        for alias in node.names:
            aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"


@dataclass
class _FunctionFrame:
    """One entry of the enclosing-function stack."""

    name: str
    is_async: bool


class RuleContext:
    """Per-file state the walk shares with every rule."""

    def __init__(self, module: str, path: str) -> None:
        self.module = module
        self.path = path
        self.findings: list[LintFinding] = []
        #: Local alias -> canonical dotted module/attribute path.
        self.aliases: dict[str, str] = {}
        #: Enclosing (possibly nested) function definitions, outermost
        #: first; empty at module level.
        self.function_stack: list[_FunctionFrame] = []
        #: Names of functions defined inside enclosing functions
        #: (closure candidates for RPR004).
        self.nested_defs: set[str] = set()
        #: Names of every ``async def`` in the module (pre-scanned).
        self.async_defs: set[str] = set()

    # -- queries ------------------------------------------------------

    def dotted(self, node: ast.expr) -> str | None:
        """Canonical dotted path of a Name/Attribute chain, alias-resolved."""
        chain = self.attribute_chain(node)
        if not chain:
            return None
        return ".".join((self.aliases.get(chain[0], chain[0]), *chain[1:]))

    def attribute_chain(self, node: ast.expr) -> tuple[str, ...]:
        """The raw (unresolved) name parts of an attribute chain,
        outermost name first; empty when the chain does not bottom out
        in a plain name (e.g. a call result)."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return ()
        parts.append(current.id)
        return tuple(reversed(parts))

    def in_async_function(self) -> bool:
        """Whether the innermost enclosing function is ``async def``."""
        return bool(self.function_stack) and self.function_stack[-1].is_async

    def current_function(self) -> str | None:
        """Name of the innermost enclosing function (None at module level)."""
        return self.function_stack[-1].name if self.function_stack else None

    def module_matches(self, prefixes: Sequence[str]) -> bool:
        """Whether the module equals or sits under one of the prefixes."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )

    # -- output -------------------------------------------------------

    def emit(self, rule: str, node: ast.AST, message: str) -> None:
        """Record one finding."""
        self.findings.append(
            LintFinding(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )


class LintRule:
    """Base class of one AST rule: every hook is a no-op.

    Subclasses set ``id`` and ``description`` (both public contract)
    and override the hooks they need.  A fresh instance is created per
    linted file, so hooks may keep per-file state on ``self``.
    """

    id: str = ""
    description: str = ""

    def begin_module(self, ctx: RuleContext, tree: ast.Module) -> None:
        """Called once before the walk (pre-scan hook)."""

    def visit_call(
        self, ctx: RuleContext, node: ast.Call, dotted: str | None
    ) -> None:
        """Called for every ``ast.Call`` (dotted is alias-resolved)."""

    def visit_assign(
        self, ctx: RuleContext, node: ast.Assign | ast.AugAssign
    ) -> None:
        """Called for every assignment / augmented assignment."""

    def visit_expr(self, ctx: RuleContext, node: ast.Expr) -> None:
        """Called for every expression statement (discarded result)."""


class _Walker(ast.NodeVisitor):
    """Single-file walk dispatching to the enabled rules."""

    def __init__(self, ctx: RuleContext, rules: Sequence[LintRule]) -> None:
        self.ctx = ctx
        self.rules = rules

    def visit_Import(self, node: ast.Import) -> None:
        record_import(self.ctx.aliases, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        record_import(self.ctx.aliases, node)

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, is_async: bool
    ) -> None:
        if self.ctx.function_stack:
            self.ctx.nested_defs.add(node.name)
        self.ctx.function_stack.append(_FunctionFrame(node.name, is_async))
        self.generic_visit(node)
        self.ctx.function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, is_async=True)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.ctx.dotted(node.func)
        for rule in self.rules:
            rule.visit_call(self.ctx, node, dotted)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for rule in self.rules:
            rule.visit_assign(self.ctx, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        for rule in self.rules:
            rule.visit_assign(self.ctx, node)
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        for rule in self.rules:
            rule.visit_expr(self.ctx, node)
        self.generic_visit(node)


def walk_module(
    tree: ast.Module, module: str, path: str, rules: Sequence[LintRule]
) -> list[LintFinding]:
    """Run ``rules`` over the parsed module ``module`` read from ``path``."""
    ctx = RuleContext(module, path)
    ctx.async_defs = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
    }
    for rule in rules:
        rule.begin_module(ctx, tree)
    _Walker(ctx, rules).visit(tree)
    return ctx.findings

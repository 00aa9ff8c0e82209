"""One cost model: only ``repro.core.context`` derives Sec. 4.1's quantities.

``cost_rows`` is the one implementation of ``cpm`` and ``ep + em``;
``RMContext.ready_at`` is the predicted task's ready time and
``RMContext.runs_first`` the run-first rule.  Every other module of
``repro.core`` reads them from the context, so none of them may touch
the raw task data those rules are made of.
"""

import ast
from pathlib import Path

import repro.core

CORE = Path(repro.core.__file__).resolve().parent
OWNER = CORE / "context.py"

# Task-type cost data, and the predicted task's arrival.
_ATTRIBUTES = {"wcet", "migration_time", "migration_energy", "arrival"}
_METHODS = {"cm", "em"}


def _offences(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ATTRIBUTES:
            yield node.lineno, f".{node.attr}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _METHODS
        ):
            yield node.lineno, f".{node.func.attr}()"
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            # "Stays on its current resource": part of both the cost rule
            # and the run-first rule.
            for operand in (node.left, *node.comparators):
                if (
                    isinstance(operand, ast.Attribute)
                    and operand.attr == "current_resource"
                ):
                    yield node.lineno, "current_resource =="


def test_only_the_context_derives_costs_and_rules():
    offenders = [
        f"{path.relative_to(CORE)}:{line} {what}"
        for path in sorted(CORE.rglob("*.py"))
        if path != OWNER
        for line, what in _offences(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_the_context_is_where_they_live():
    found = {what for _, what in _offences(ast.parse(OWNER.read_text()))}
    assert {".wcet", ".migration_time", ".arrival", "current_resource =="} <= found

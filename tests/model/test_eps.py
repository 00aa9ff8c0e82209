"""One tolerance: ``repro.model.EPS`` is the only ``*EPS`` the engine defines."""

import ast
from pathlib import Path

import repro
from repro.model import EPS

SRC = Path(repro.__file__).resolve().parent
OWNER = SRC / "model" / "__init__.py"


def _assigned_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno


def test_no_module_but_repro_model_assigns_an_eps():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path != OWNER
        for name, line in _assigned_names(ast.parse(path.read_text()))
        if name.endswith("EPS")
    ]
    assert offenders == []
    assert "EPS" in dict(_assigned_names(ast.parse(OWNER.read_text())))


def test_timeline_reexports_the_one_eps():
    from repro.sched import timeline

    assert timeline.EPS is EPS == 1e-9

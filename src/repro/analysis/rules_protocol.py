"""Protocol-exhaustiveness rules for the wire layer (RPR2xx).

The live service's wire contract is declared in one place —
``serve/protocol.py`` exports :data:`CONTROL_OPS` (the frame family) and
:data:`ERROR_CODES` (the stable machine-readable error identifiers) —
but *honoured* in three: the server must dispatch every declared op, the
client must be able to send it, and every error code must actually be
emitted somewhere (a declared-but-dead code is a contract nobody keeps;
an emitted-but-undeclared code is a contract nobody knows about).

These are cross-file checks: :func:`check_protocol` runs over any
scanned directory containing a ``protocol.py`` + ``server.py`` pair:

``RPR201`` — control op declared but unhandled.
    An op in ``CONTROL_OPS`` that the server's dispatch never compares
    against (or that the client cannot send) is dead protocol surface.
``RPR202`` — error code declared but never emitted.
    A code in ``ERROR_CODES`` with no ``ProtocolError(code, ...)`` or
    ``error_payload(code, ...)`` site in the package.
``RPR203`` — error code emitted but not declared.
    An emit site using a code missing from ``ERROR_CODES``; clients
    cannot rely on codes the registry does not promise to keep stable.

The extraction is deliberately syntactic (string literals in comparisons
against ``.op``, ``"op"`` dict values, first-argument literals of the
emit helpers): the wire layer is written in exactly that style, and the
rigidity is the point — a handler added in a shape the checker cannot
see *should* fail CI until the dispatch stays greppable.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.engine import LintFinding

__all__ = [
    "PROTOCOL_RULES",
    "ProtocolSurface",
    "check_protocol",
    "extract_surface",
    "is_protocol_package",
]

#: Rule id -> one-line description of each id :func:`check_protocol`
#: emits.
PROTOCOL_RULES = {
    "RPR201": "wire-protocol surface declared but unhandled (or vice versa)",
    "RPR202": "error code declared in ERROR_CODES but never emitted",
    "RPR203": "error code emitted but missing from ERROR_CODES",
}

_PROTOCOL_FILE = "protocol.py"
_SERVER_FILE = "server.py"
_CLIENT_FILE = "client.py"

#: Helpers whose first positional argument is a stable error code.
_EMIT_HELPERS = frozenset({"ProtocolError", "error_payload"})


class ProtocolSurface:
    """Everything the checker extracts from one protocol package."""

    def __init__(self) -> None:
        #: op -> (path, line) of the CONTROL_OPS declaration.
        self.declared_ops: dict[str, tuple[str, int]] = {}
        #: code -> (path, line) of the ERROR_CODES declaration.
        self.declared_codes: dict[str, tuple[str, int]] = {}
        self.has_error_registry = False
        #: code -> first (path, line) emitting it.
        self.emitted_codes: dict[str, tuple[str, int]] = {}
        #: ops the server dispatch handles.
        self.server_ops: set[str] = set()
        #: ops the client can put on the wire.
        self.client_ops: set[str] = set()


def _string_elts(node: ast.expr) -> list[tuple[str, int]]:
    """String constants inside a set/tuple/list literal (possibly
    wrapped in a ``frozenset(...)`` call), with line numbers."""
    if isinstance(node, ast.Call) and node.args:
        return _string_elts(node.args[0])
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        return [
            (elt.value, elt.lineno)
            for elt in node.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        ]
    return []


def _collect_declarations(
    tree: ast.Module, path: str, surface: ProtocolSurface
) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        names = {
            target.id for target in node.targets if isinstance(target, ast.Name)
        }
        if "CONTROL_OPS" in names:
            for op, line in _string_elts(node.value):
                surface.declared_ops[op] = (path, line)
        if "ERROR_CODES" in names:
            surface.has_error_registry = True
            for code, line in _string_elts(node.value):
                surface.declared_codes[code] = (path, line)


def _collect_emits(
    tree: ast.Module, path: str, surface: ProtocolSurface
) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name not in _EMIT_HELPERS or not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            surface.emitted_codes.setdefault(
                first.value, (path, node.lineno)
            )


def _collect_op_handling(tree: ast.Module, into: set[str]) -> None:
    """Ops a module handles: string literals compared against an ``.op``
    attribute, plus ``"op"`` values of dict literals (response echoes
    and client frame builders)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            left = node.left
            involves_op = (
                isinstance(left, ast.Attribute) and left.attr == "op"
            ) or (isinstance(left, ast.Name) and left.id == "op")
            if involves_op:
                for comparator in node.comparators:
                    if isinstance(comparator, ast.Constant) and isinstance(
                        comparator.value, str
                    ):
                        into.add(comparator.value)
                    else:
                        into.update(
                            value for value, _ in _string_elts(comparator)
                        )
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values, strict=True):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "op"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    into.add(value.value)


def extract_surface(directory: Path) -> ProtocolSurface:
    """Parse the package's protocol/server/client trio into a surface."""
    surface = ProtocolSurface()
    for filename in (_PROTOCOL_FILE, _SERVER_FILE, _CLIENT_FILE):
        file = directory / filename
        if not file.is_file():
            continue
        try:
            tree = ast.parse(
                file.read_text(encoding="utf-8"), filename=str(file)
            )
        except SyntaxError:
            # The per-file pass reports unparsable sources as RPR000;
            # the cross-file surface just works with what it can read.
            continue
        path = str(file)
        _collect_emits(tree, path, surface)
        if filename == _PROTOCOL_FILE:
            _collect_declarations(tree, path, surface)
        elif filename == _SERVER_FILE:
            _collect_op_handling(tree, surface.server_ops)
        elif filename == _CLIENT_FILE:
            _collect_op_handling(tree, surface.client_ops)
    return surface


def is_protocol_package(directory: Path) -> bool:
    """Whether ``directory`` holds a protocol/server pair to check."""
    return (directory / _PROTOCOL_FILE).is_file() and (
        directory / _SERVER_FILE
    ).is_file()


def check_protocol(directory: Path) -> list[LintFinding]:
    """RPR201-203 findings of one protocol package, sorted by location."""
    surface = extract_surface(directory)
    protocol_path = str(directory / _PROTOCOL_FILE)
    findings: list[LintFinding] = []

    def emit(rule: str, path: str, line: int, message: str) -> None:
        findings.append(
            LintFinding(rule=rule, path=path, line=line, col=0, message=message)
        )

    has_client = (directory / _CLIENT_FILE).is_file()
    for op, (path, line) in sorted(surface.declared_ops.items()):
        if op not in surface.server_ops:
            emit(
                "RPR201",
                path,
                line,
                f"control op {op!r} is declared in CONTROL_OPS but the "
                "server dispatch never handles it",
            )
        if has_client and op not in surface.client_ops:
            emit(
                "RPR201",
                path,
                line,
                f"control op {op!r} is declared in CONTROL_OPS but the "
                "client cannot send it",
            )

    if not surface.has_error_registry:
        emit(
            "RPR203",
            protocol_path,
            1,
            "protocol.py declares no ERROR_CODES registry; stable "
            "error codes must be declared in one place",
        )
    else:
        for code, (path, line) in sorted(surface.declared_codes.items()):
            if code not in surface.emitted_codes:
                emit(
                    "RPR202",
                    path,
                    line,
                    f"error code {code!r} is declared in ERROR_CODES "
                    "but no handler ever emits it",
                )
        for code, (path, line) in sorted(surface.emitted_codes.items()):
            if code not in surface.declared_codes:
                emit(
                    "RPR203",
                    path,
                    line,
                    f"error code {code!r} is emitted here but missing "
                    "from ERROR_CODES; clients cannot rely on "
                    "undeclared codes",
                )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings

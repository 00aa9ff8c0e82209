"""Custom lint rules the generic linters cannot express.

The rule set is fixed: :data:`AST_RULES` lists the per-file rules in id
order, and the protocol check runs on each scanned directory that holds
a protocol package.  The families:

* :mod:`repro.analysis.rules_core` — determinism and picklability:
  ``RPR001`` unseeded randomness (with a helper-taint dataflow leg),
  ``RPR002`` wall-clock reads, ``RPR003`` registry bypass, ``RPR004``
  unpicklable ``RunSpec`` factories.
* :mod:`repro.analysis.rules_async` — async safety of :mod:`repro.serve`:
  ``RPR101`` blocking calls in ``async def``, ``RPR102`` unawaited
  coroutines, ``RPR103`` shared engine state mutated off the dispatch
  queue, ``RPR104`` OS-clock reads bypassing ``WallClock`` and
  ``PlatformState.time``.
* :mod:`repro.analysis.rules_protocol` — the wire contract: ``RPR201``
  declared-but-unhandled control ops, ``RPR202`` declared-but-dead error
  codes, ``RPR203`` emitted-but-undeclared error codes (cross-file
  checks over protocol/server/client trios).

``RPR000`` (file does not parse) is reported by :func:`lint_source`
itself.  The only setting is which rule ids run (``rules=``, built by
:func:`select_rules`); every allowlist is a constant next to the rule
that reads it.

Findings can be suppressed per line with ``# noqa: RPR00x`` (bare
``# noqa`` also works), or — for intentional, reviewed exemptions — via
the committed baseline file (:mod:`repro.analysis.baseline`).

:data:`LINT_RULES` (rule id -> one-line description) is the public
contract of the pass: ids and descriptions are stable.
"""

from __future__ import annotations

import ast
import re
from fnmatch import fnmatch
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.engine import LintFinding, LintRule, walk_module
from repro.analysis.rules_async import (
    AsyncBlockingCallRule,
    ServeClockRule,
    SharedStateRule,
    UnawaitedCoroutineRule,
)
from repro.analysis.rules_core import (
    RandomnessRule,
    RegistryBypassRule,
    RunSpecRule,
    WallClockRule,
)
from repro.analysis.rules_protocol import (
    PROTOCOL_RULES,
    check_protocol,
    is_protocol_package,
)

__all__ = [
    "AST_RULES",
    "LINT_RULES",
    "LintFinding",
    "findings_to_payload",
    "lint_file",
    "lint_package",
    "lint_paths",
    "lint_source",
    "render_findings",
    "select_rules",
]

#: The per-file rules, in the order the walk calls them.
AST_RULES: tuple[type[LintRule], ...] = (
    RandomnessRule,
    WallClockRule,
    RegistryBypassRule,
    RunSpecRule,
    AsyncBlockingCallRule,
    UnawaitedCoroutineRule,
    SharedStateRule,
    ServeClockRule,
)

#: Rule id -> one-line description (the lint pass's public contract).
LINT_RULES: dict[str, str] = dict(
    sorted(
        {
            "RPR000": "file does not parse",
            **{rule.id: rule.description for rule in AST_RULES},
            **PROTOCOL_RULES,
        }.items()
    )
)

_ALL_RULES = frozenset(LINT_RULES)

#: ``fnmatch`` patterns (against POSIX-style paths) that directory
#: walks skip: the deliberately-bad lint fixtures.
EXCLUDE_GLOBS = ("*tests/analysis/fixtures/*",)

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def select_rules(tokens: Iterable[str]) -> frozenset[str]:
    """Expand rule selectors (exact ids or prefixes) to enabled ids.

    ``select_rules(["RPR10"])`` enables the whole async family;
    ``select_rules(["RPR001", "RPR2"])`` mixes an id and a family.
    Unknown selectors, and a selection that names no rule at all, raise
    ``ValueError`` so typos fail loudly.
    """
    selected: set[str] = set()
    for token in tokens:
        token = token.strip().upper()
        if not token:
            continue
        matches = {rule for rule in LINT_RULES if rule.startswith(token)}
        if not matches:
            raise ValueError(
                f"unknown rule selector {token!r} "
                f"(known rules: {', '.join(LINT_RULES)})"
            )
        selected |= matches
    if not selected:
        raise ValueError("no rule selected; name a rule id or a family prefix")
    return frozenset(selected)


def _suppressed(lines: Sequence[str], finding: LintFinding) -> bool:
    """Whether the finding's source line carries a matching ``# noqa``."""
    if not 1 <= finding.line <= len(lines):
        return False
    match = _NOQA_RE.search(lines[finding.line - 1])
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    return finding.rule in {c.strip().upper() for c in codes.split(",")}


def _derive_module(path: Path) -> str:
    """Best-effort dotted module name for ``path``: ``repro.x.y`` inside
    the package, ``tests.x.y`` inside the test tree, the stem otherwise."""
    parts = list(path.with_suffix("").parts)
    for anchor in ("repro", "tests"):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or [parts[0] if parts else "repro"]
    return ".".join(parts)


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    rules: frozenset[str] = _ALL_RULES,
) -> list[LintFinding]:
    """Lint one source text; returns findings sorted by location."""
    if module is None:
        module = _derive_module(Path(path))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintFinding(
                rule="RPR000",
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]
    enabled = [cls() for cls in AST_RULES if cls.id in rules]
    lines = source.splitlines()
    findings = [
        f
        for f in walk_module(tree, module, path, enabled)
        if not _suppressed(lines, f)
    ]
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_file(
    path: str | Path,
    *,
    module: str | None = None,
    rules: frozenset[str] = _ALL_RULES,
) -> list[LintFinding]:
    """Lint one file on disk."""
    path = Path(path)
    return lint_source(
        path.read_text(encoding="utf-8"),
        path=str(path),
        module=module,
        rules=rules,
    )


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for file in sorted(entry.rglob("*.py")):
                posix = file.as_posix()
                if not any(fnmatch(posix, glob) for glob in EXCLUDE_GLOBS):
                    yield file
        elif not entry.exists():
            raise ValueError(f"{entry}: no such file or directory")
        elif entry.suffix != ".py":
            raise ValueError(f"{entry}: not a .py file or a directory")
        else:
            # Explicitly-named files are always linted: EXCLUDE_GLOBS
            # prunes directory walks, it does not veto direct requests.
            yield entry


def lint_paths(
    paths: Iterable[str | Path],
    *,
    rules: frozenset[str] = _ALL_RULES,
) -> list[LintFinding]:
    """Lint every ``.py`` file under the given files/directories (AST
    rules per file, then the protocol check per scanned directory).

    Raises ``ValueError`` naming the first path that is neither a
    directory nor an existing ``.py`` file.
    """
    files = list(_iter_python_files(paths))
    findings: list[LintFinding] = []
    for file in files:
        findings.extend(lint_file(file, rules=rules))
    for directory in sorted({file.parent for file in files}):
        if is_protocol_package(directory):
            findings.extend(
                f for f in check_protocol(directory) if f.rule in rules
            )
    return findings


def lint_package(
    *, rules: frozenset[str] = _ALL_RULES, include_tests: bool = True
) -> list[LintFinding]:
    """Lint the ``repro`` package's own source tree (and, from a source
    checkout, the test suite alongside it).

    This is what ``repro analyze --self`` and the CI ``static-analysis``
    job run; a clean result — modulo the committed, justified baseline —
    is part of the repo's contract.
    """
    package_root = Path(__file__).resolve().parent.parent
    roots: list[Path] = [package_root]
    tests = package_root.parent.parent / "tests"
    if include_tests and tests.is_dir():
        roots.append(tests)
    return lint_paths(roots, rules=rules)


def render_findings(findings: Sequence[LintFinding]) -> str:
    """Human-readable report, one finding per line plus a tally."""
    if not findings:
        return "lint: clean (0 findings)"
    lines = [f.render() for f in findings]
    lines.append(f"lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def findings_to_payload(
    findings: Sequence[LintFinding],
    *,
    suppressed: int = 0,
    unused_baseline: Sequence[str] = (),
) -> dict:
    """The stable ``--json`` schema of ``repro analyze`` lint output."""
    return {
        "version": 1,
        "findings": [
            {
                "rule": f.rule,
                "path": str(f.path),
                "line": f.line,
                "col": f.col,
                "message": f.message,
            }
            for f in findings
        ],
        "suppressed": suppressed,
        "unused_baseline": list(unused_baseline),
    }

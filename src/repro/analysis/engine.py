"""The pluggable rule engine behind the custom lint pass.

:mod:`repro.analysis.lint` began life (PR 2) as a hardcoded four-rule
visitor; this module is the framework it grew into.  The pieces:

* :class:`LintRule` — one rule: a stable ``id`` (``RPR...``), a one-line
  ``description`` (both a public contract, pinned by tests), and visitor
  hooks the engine calls while walking a module's AST.  Rules register
  themselves with :func:`register_rule` and are instantiated per file.
* :class:`ProjectRule` — a cross-file rule (e.g. the RPR2xx protocol
  exhaustiveness checker) that inspects a directory of related sources
  instead of one AST.
* :class:`LintConfig` — every allowlist and name-set the rules consult,
  as data.  Nothing about *where* a timer or a constructor is legal is
  hardcoded in rule logic; per-path policy lives here and tests can
  build narrower or wider configs.
* :class:`RuleContext` — what the engine shows a rule at each hook:
  module name, alias-resolved dotted paths, the enclosing function
  stack (and whether it is async), and ``emit``.
* :func:`lint_source` / :func:`lint_file` / :func:`lint_paths` /
  :func:`lint_package` — the entry points, unchanged in shape since
  PR 2 but now driving whichever rules the config enables, applying
  ``# noqa`` suppression, and running project rules over any scanned
  directory that looks like a protocol package.

Baseline suppression (committed, justified exemptions) is layered on
top by :mod:`repro.analysis.baseline`; the engine itself only produces
raw findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "LintConfig",
    "LintFinding",
    "LintRule",
    "ProjectRule",
    "PROJECT_RULE_REGISTRY",
    "RULE_REGISTRY",
    "RuleContext",
    "SATELLITE_RULE_DESCRIPTIONS",
    "all_rule_descriptions",
    "all_rule_ids",
    "findings_to_payload",
    "lint_file",
    "lint_package",
    "lint_paths",
    "lint_source",
    "register_rule",
    "register_satellite_rule",
    "render_findings",
    "select_rules",
]

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)

_RULE_ID_RE = re.compile(r"^RPR\d{3}$")


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


@dataclass(frozen=True)
class LintConfig:
    """Which rules run and where exemptions apply — policy as data.

    Every name-set the rules consult lives here so per-path policy is
    configurable (and testable) instead of frozen into rule logic.
    The defaults encode the repository's own contracts.

    Attributes
    ----------
    rules:
        Enabled rule ids; defaults to every registered rule.
    exclude_globs:
        ``fnmatch`` patterns (against POSIX-style paths) skipped by the
        directory walkers — deliberately-bad lint fixtures by default.
    stdlib_random_fns:
        Module-level functions of stdlib ``random`` (global state) that
        RPR001 flags.
    numpy_random_safe:
        ``numpy.random`` attributes that are *not* the legacy
        global-state API.
    wall_clock_names:
        Wall-clock reads RPR002 bans everywhere.
    monotonic_names:
        Monotonic duration timers RPR002 confines to
        ``monotonic_allowed_prefixes``.
    monotonic_allowed_prefixes:
        Module prefixes where monotonic duration timers are legitimate
        (observability layers, the wall-clock adapter, tests).
    registry_classes:
        Registered classes whose direct construction bypasses the
        registry (RPR003).
    registry_allowed_prefixes:
        Module prefixes allowed to construct those classes directly.
    blocking_call_names:
        Exact dotted calls RPR101 flags inside ``async def``.
    blocking_call_prefixes:
        Dotted prefixes (e.g. ``socket.``) RPR101 flags inside
        ``async def``.
    blocking_constructors:
        Class names whose construction performs blocking I/O
        (``ServeClient`` opens a socket in ``__init__``).
    async_known_coroutines:
        Dotted names known to return coroutines (RPR102 flags their
        bare-statement calls even without a local ``async def``).
    serve_prefixes:
        Module prefixes holding event-loop engine logic; RPR103 and
        RPR104 apply only there.
    clock_exempt_prefixes:
        Modules inside ``serve_prefixes`` that *implement* the live
        ``WallClock`` and may read the OS clock (RPR104).
    shared_state_roots:
        Attribute names naming loop/thread-shared engine objects
        (RPR103 watches attribute chains through them).
    shared_state_mutators:
        Method names that mutate those objects; calling one outside the
        dispatcher is a finding.
    dispatcher_functions:
        ``async def`` names allowed to mutate shared engine state (the
        dispatch-queue consumer).
    """

    rules: frozenset[str] = field(default_factory=lambda: all_rule_ids())
    exclude_globs: tuple[str, ...] = ("*tests/analysis/fixtures/*",)

    # -- RPR001 -------------------------------------------------------
    stdlib_random_fns: frozenset[str] = frozenset(
        {
            "betavariate", "choice", "choices", "expovariate", "gammavariate",
            "gauss", "getrandbits", "getstate", "lognormvariate",
            "normalvariate", "paretovariate", "randbytes", "randint",
            "random", "randrange", "sample", "seed", "setstate", "shuffle",
            "triangular", "uniform", "vonmisesvariate", "weibullvariate",
        }
    )
    numpy_random_safe: frozenset[str] = frozenset(
        {
            "BitGenerator", "Generator", "MT19937", "PCG64", "PCG64DXSM",
            "Philox", "RandomState", "SFC64", "SeedSequence", "default_rng",
        }
    )

    # -- RPR002 -------------------------------------------------------
    wall_clock_names: frozenset[str] = frozenset(
        {
            "time.asctime", "time.ctime", "time.gmtime", "time.localtime",
            "time.strftime", "time.time", "time.time_ns",
            "datetime.date.today", "datetime.datetime.now",
            "datetime.datetime.today", "datetime.datetime.utcnow",
        }
    )
    monotonic_names: frozenset[str] = frozenset(
        {
            "time.monotonic", "time.monotonic_ns", "time.perf_counter",
            "time.perf_counter_ns", "time.process_time",
            "time.process_time_ns",
        }
    )
    monotonic_allowed_prefixes: tuple[str, ...] = (
        "repro.experiments",
        "repro.cli",
        "repro.analysis",
        "repro.faults",
        "repro.obs",
        "repro.serve.clock",
        "repro.serve.smoke",
        "repro.serve.chaos",
        "tests",
    )

    # -- RPR003 -------------------------------------------------------
    registry_classes: frozenset[str] = frozenset(
        {
            "HeuristicResourceManager", "MilpResourceManager",
            "ExactResourceManager", "OraclePredictor", "ComposedPredictor",
            "TypeNoisePredictor", "ArrivalNoisePredictor",
        }
    )
    registry_allowed_prefixes: tuple[str, ...] = (
        "repro.registry",
        "repro.core",
        "repro.predict",
        "tests",
    )

    # -- RPR101 -------------------------------------------------------
    blocking_call_names: frozenset[str] = frozenset(
        {
            "time.sleep",
            "socket.create_connection", "socket.getaddrinfo",
            "socket.gethostbyname", "socket.socket",
            "subprocess.call", "subprocess.check_call",
            "subprocess.check_output", "subprocess.run",
            "os.system", "os.wait", "os.waitpid",
            "urllib.request.urlopen",
            "open",
        }
    )
    blocking_call_prefixes: tuple[str, ...] = ("socket.", "subprocess.")
    blocking_constructors: frozenset[str] = frozenset({"ServeClient"})

    # -- RPR102 -------------------------------------------------------
    async_known_coroutines: frozenset[str] = frozenset(
        {"asyncio.sleep", "asyncio.gather", "asyncio.wait_for"}
    )

    # -- RPR103 / RPR104 ----------------------------------------------
    serve_prefixes: tuple[str, ...] = ("repro.serve",)
    clock_exempt_prefixes: tuple[str, ...] = ("repro.serve.clock",)
    shared_state_roots: frozenset[str] = frozenset({"engine", "depository"})
    shared_state_mutators: frozenset[str] = frozenset(
        {
            "admit", "advance", "apply_mapping", "catch_up", "decide",
            "drain", "mark_reprovisioned", "record_completion",
            "record_decision", "record_shed", "remap", "score_forecast",
        }
    )
    dispatcher_functions: frozenset[str] = frozenset({"_dispatch_loop"})


def module_matches(module: str, prefixes: Sequence[str]) -> bool:
    """Whether ``module`` equals or sits under one of the prefixes."""
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


@dataclass
class _FunctionFrame:
    """One entry of the enclosing-function stack."""

    name: str
    is_async: bool


class RuleContext:
    """Per-file state the engine shares with every rule."""

    def __init__(self, module: str, config: LintConfig) -> None:
        self.module = module
        self.config = config
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
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        head = self.aliases.get(current.id, current.id)
        parts.append(head)
        return ".".join(reversed(parts))

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
        return module_matches(self.module, prefixes)

    # -- output -------------------------------------------------------

    def emit(self, rule: str, node: ast.AST, message: str) -> None:
        """Record one finding (path is stamped by :func:`lint_source`)."""
        if rule not in self.config.rules:
            return
        self.findings.append(
            LintFinding(
                rule=rule,
                path="",
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )


class LintRule:
    """Base class of one registered AST rule.

    Subclasses set ``id`` and ``description`` (both public contract —
    pinned by the rule-id stability test) and override whichever hooks
    they need.  A fresh instance is created per linted file, so hooks
    may keep per-file state on ``self``.
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

    def enter_function(
        self, ctx: RuleContext, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """Called when the walk enters a function definition."""

    def end_module(self, ctx: RuleContext) -> None:
        """Called once after the walk (flush hook)."""


class ProjectRule:
    """Base class of one cross-file rule.

    ``check`` receives a directory of related sources (e.g. the serve
    package) and returns findings with real paths already attached.
    :func:`lint_paths` runs every registered project rule over each
    scanned directory that :meth:`applies_to` accepts.
    """

    id: str = ""
    description: str = ""

    def applies_to(self, directory: Path) -> bool:
        raise NotImplementedError

    def check(self, directory: Path, config: LintConfig) -> list[LintFinding]:
        raise NotImplementedError


#: Rule id -> rule class (AST rules).
RULE_REGISTRY: dict[str, type[LintRule]] = {}

#: Rule id -> rule class (cross-file rules).
PROJECT_RULE_REGISTRY: dict[str, type[ProjectRule]] = {}

#: Rule id -> description for ids emitted by a registered rule beyond
#: its own (e.g. the protocol checker's RPR202/RPR203 satellites).
SATELLITE_RULE_DESCRIPTIONS: dict[str, str] = {}


def register_satellite_rule(rule_id: str, description: str) -> None:
    """Declare an extra rule id (with description) owned by a registered
    rule, so catalogues, selection, and config defaults see it."""
    if not _RULE_ID_RE.match(rule_id):
        raise ValueError(f"rule id must match RPR\\d{{3}}, got {rule_id!r}")
    if not description:
        raise ValueError(f"rule {rule_id} needs a one-line description")
    if rule_id in RULE_REGISTRY or rule_id in PROJECT_RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id}")
    SATELLITE_RULE_DESCRIPTIONS[rule_id] = description


def all_rule_ids() -> frozenset[str]:
    """Every known rule id, including RPR000 and satellite ids."""
    return frozenset(
        {
            "RPR000",
            *RULE_REGISTRY,
            *PROJECT_RULE_REGISTRY,
            *SATELLITE_RULE_DESCRIPTIONS,
        }
    )


def register_rule(
    cls: type[LintRule] | type[ProjectRule],
) -> type[LintRule] | type[ProjectRule]:
    """Class decorator adding a rule to the engine's registry."""
    if not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule id must match RPR\\d{{3}}, got {cls.id!r}")
    if not cls.description:
        raise ValueError(f"rule {cls.id} needs a one-line description")
    registry: dict = (
        PROJECT_RULE_REGISTRY
        if isinstance(cls, type) and issubclass(cls, ProjectRule)
        else RULE_REGISTRY
    )
    if cls.id in all_rule_ids():
        raise ValueError(f"duplicate rule id {cls.id}")
    registry[cls.id] = cls
    return cls


def all_rule_descriptions() -> dict[str, str]:
    """Every registered rule id -> description, plus the engine's own
    RPR000 parse-failure pseudo-rule, id-sorted."""
    catalogue = {"RPR000": "file does not parse"}
    for rule_id, cls in {**RULE_REGISTRY, **PROJECT_RULE_REGISTRY}.items():
        catalogue[rule_id] = cls.description
    catalogue.update(SATELLITE_RULE_DESCRIPTIONS)
    return dict(sorted(catalogue.items()))


def select_rules(tokens: Iterable[str]) -> frozenset[str]:
    """Expand rule selectors (exact ids or prefixes) to enabled ids.

    ``select_rules(["RPR10"])`` enables the whole async family;
    ``select_rules(["RPR001", "RPR2"])`` mixes an id and a family.
    Unknown selectors raise ``ValueError`` so typos fail loudly.
    """
    known = set(all_rule_ids())
    selected: set[str] = set()
    for token in tokens:
        token = token.strip().upper()
        if not token:
            continue
        matches = {rule for rule in known if rule.startswith(token)}
        if not matches:
            raise ValueError(
                f"unknown rule selector {token!r} "
                f"(known rules: {', '.join(sorted(known))})"
            )
        selected |= matches
    return frozenset(selected)


class _EngineVisitor(ast.NodeVisitor):
    """Single-file walk dispatching to the enabled rules."""

    def __init__(self, ctx: RuleContext, rules: Sequence[LintRule]) -> None:
        self.ctx = ctx
        self.rules = rules

    # -- imports ------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.ctx.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.ctx.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- scopes -------------------------------------------------------

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, is_async: bool
    ) -> None:
        if self.ctx.function_stack:
            self.ctx.nested_defs.add(node.name)
        self.ctx.function_stack.append(_FunctionFrame(node.name, is_async))
        for rule in self.rules:
            rule.enter_function(self.ctx, node)
        self.generic_visit(node)
        self.ctx.function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, is_async=True)

    # -- dispatch -----------------------------------------------------

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


class _AsyncDefCollector(ast.NodeVisitor):
    """Pre-scan: every ``async def`` name in the module (methods too)."""

    def __init__(self) -> None:
        self.names: set[str] = set()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.names.add(node.name)
        self.generic_visit(node)


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


def _active_rules(config: LintConfig) -> list[LintRule]:
    return [
        cls()
        for rule_id, cls in sorted(RULE_REGISTRY.items())
        if rule_id in config.rules
    ]


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    config: LintConfig | None = None,
) -> list[LintFinding]:
    """Lint one source text; returns findings sorted by location."""
    config = config or LintConfig()
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
    ctx = RuleContext(module, config)
    collector = _AsyncDefCollector()
    collector.visit(tree)
    ctx.async_defs = collector.names
    rules = _active_rules(config)
    for rule in rules:
        rule.begin_module(ctx, tree)
    _EngineVisitor(ctx, rules).visit(tree)
    for rule in rules:
        rule.end_module(ctx)
    lines = source.splitlines()
    findings = [
        LintFinding(
            rule=f.rule, path=path, line=f.line, col=f.col, message=f.message
        )
        for f in ctx.findings
        if not _suppressed(lines, f)
    ]
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_file(
    path: str | Path,
    *,
    module: str | None = None,
    config: LintConfig | None = None,
) -> list[LintFinding]:
    """Lint one file on disk."""
    path = Path(path)
    return lint_source(
        path.read_text(encoding="utf-8"),
        path=str(path),
        module=module,
        config=config,
    )


def _excluded(path: Path, config: LintConfig) -> bool:
    posix = path.as_posix()
    return any(fnmatch(posix, pattern) for pattern in config.exclude_globs)


def _iter_python_files(
    paths: Iterable[str | Path], config: LintConfig
) -> Iterator[Path]:
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for file in sorted(entry.rglob("*.py")):
                if not _excluded(file, config):
                    yield file
        elif entry.suffix == ".py":
            # Explicitly-named files are always linted: exclude_globs
            # prunes directory walks, it does not veto direct requests.
            yield entry


def run_project_rules(
    files: Sequence[Path], config: LintConfig
) -> list[LintFinding]:
    """Run every enabled cross-file rule over the scanned directories."""
    directories = sorted({file.parent for file in files})
    rules = [
        cls()
        for rule_id, cls in sorted(PROJECT_RULE_REGISTRY.items())
        if rule_id in config.rules
    ]
    findings: list[LintFinding] = []
    for rule in rules:
        for directory in directories:
            if rule.applies_to(directory):
                findings.extend(rule.check(directory, config))
    return findings


def lint_paths(
    paths: Iterable[str | Path],
    *,
    config: LintConfig | None = None,
) -> list[LintFinding]:
    """Lint every ``.py`` file under the given files/directories (AST
    rules per file, then project rules per scanned directory)."""
    config = config or LintConfig()
    findings: list[LintFinding] = []
    files = list(_iter_python_files(paths, config))
    for file in files:
        findings.extend(lint_file(file, config=config))
    findings.extend(run_project_rules(files, config))
    return findings


def repo_tests_root() -> Path | None:
    """The repository's ``tests/`` tree, when running from a source
    checkout (``src/repro`` layout); ``None`` for an installed package."""
    package_root = Path(__file__).resolve().parent.parent
    candidate = package_root.parent.parent / "tests"
    return candidate if candidate.is_dir() else None


def lint_package(
    config: LintConfig | None = None, *, include_tests: bool = True
) -> list[LintFinding]:
    """Lint the ``repro`` package's own source tree (and, from a source
    checkout, the test suite alongside it).

    This is what ``repro analyze --self`` and the CI ``static-analysis``
    job run; a clean result — modulo the committed, justified baseline —
    is part of the repo's contract.
    """
    package_root = Path(__file__).resolve().parent.parent
    roots: list[Path] = [package_root]
    if include_tests:
        tests = repo_tests_root()
        if tests is not None:
            roots.append(tests)
    return lint_paths(roots, config=config)


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


# Typing aid for registrars that want the decorator's precise shape.
RuleDecorator = Callable[[type[LintRule]], type[LintRule]]

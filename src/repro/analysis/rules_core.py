"""The determinism/picklability rule family (RPR00x).

``RPR001`` — unseeded / global-state randomness.
    Calls into ``random``'s module-level functions or ``numpy.random``'s
    legacy global-state API, and ``numpy.random.default_rng()`` /
    ``RandomState()`` without a seed.  A module-local taint pass also
    follows generator construction through helper functions: a helper
    whose seed parameter defaults to ``None`` and flows into
    ``default_rng``/``RandomState`` is itself treated as a generator
    constructor — whether the generator is returned directly or through
    a local variable — so ``make_rng()`` with the seed omitted is
    flagged at the call site (an unseeded rng cannot be laundered
    through one level of indirection).  Classes whose ``__init__``
    stores a generator built from a ``None``-defaulted seed parameter
    (the ``repro.predict`` drift-detector/AR-fitter shape) are taint
    sources too: constructing one without a seed is flagged.
``RPR002`` — wall-clock reads in deterministic logic.
    ``time.time()``-style wall-clock reads are banned everywhere;
    monotonic duration timers (``perf_counter`` ...) are allowed only
    under ``MONOTONIC_ALLOWED_PREFIXES`` (observability layers, the live
    ``WallClock``, tests) — never in sim/sched/core logic, where they
    would leak host timing into results.
``RPR003`` — registry bypass.
    Direct construction of a registered strategy/predictor class
    outside its defining packages or :mod:`repro.registry`
    (``NullPredictor``, the null object, is exempt).
``RPR004`` — unpicklable ``RunSpec`` factories.
    Lambdas (or closures over enclosing-function locals) passed to
    ``RunSpec`` do not pickle and break the process-pool executor.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import LintRule, RuleContext, record_import

__all__ = [
    "RandomnessRule",
    "RegistryBypassRule",
    "RunSpecRule",
    "WallClockRule",
]

def _unseeded(node: ast.Call) -> bool:
    """True when a generator-constructor call carries no usable seed."""
    if node.keywords:
        return all(
            isinstance(kw.value, ast.Constant) and kw.value.value is None
            for kw in node.keywords
        ) and not node.args
    if not node.args:
        return True
    return all(
        isinstance(arg, ast.Constant) and arg.value is None
        for arg in node.args
    )


class _RngHelperScanner(ast.NodeVisitor):
    """Find helpers and classes that construct a Generator from their
    own seed parameter (the taint sources of the RPR001 dataflow pass).

    A *function* qualifies when some ``return`` statement hands back a
    ``numpy.random.default_rng``/``RandomState`` call (alias-resolved
    via the module's import table) — either directly or through a local
    variable assigned from one — with no arguments or with a plain name
    that is one of the function's parameters defaulting to ``None``.  A
    *class* qualifies when its ``__init__`` stores such a generator on
    ``self`` built from a ``None``-defaulted constructor parameter (the
    drift-detector/AR-fitter shape: ``self._rng = default_rng(seed)``).
    Calling either without a concrete seed is then equivalent to calling
    ``default_rng()`` directly.
    """

    _RNG_CONSTRUCTORS = ("numpy.random.default_rng", "numpy.random.RandomState")

    def __init__(self, ctx: RuleContext) -> None:
        self.ctx = ctx
        #: helper/class name -> ``(seed param, positional index)`` — the
        #: index is None for keyword-only seeds — or None when it takes
        #: no seed at all and is *always* unseeded.
        self.helpers: dict[str, tuple[str, int | None] | None] = {}
        #: names registered via a class ``__init__`` (message selection).
        self.class_like: set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        optional = self._optional_params(node)
        assigned = self._rng_locals(node)
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Return):
                continue
            if isinstance(stmt.value, ast.Call):
                call = stmt.value
                dotted = self.ctx.dotted(call.func)
                if dotted not in self._RNG_CONSTRUCTORS:
                    continue
                seed_arg = self._seed_argument(call)
            elif (
                isinstance(stmt.value, ast.Name)
                and stmt.value.id in assigned
            ):
                # `rng = default_rng(seed); ...; return rng` launders
                # exactly like the direct-return shape
                seed_arg = assigned[stmt.value.id]
            else:
                continue
            self._register(node.name, seed_arg, optional, node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if (
                isinstance(stmt, ast.FunctionDef)
                and stmt.name == "__init__"
            ):
                self._scan_init(node.name, stmt)
        self.generic_visit(node)

    def _scan_init(self, class_name: str, init: ast.FunctionDef) -> None:
        optional = self._optional_params(init)
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign) or not isinstance(
                stmt.value, ast.Call
            ):
                continue
            if self.ctx.dotted(stmt.value.func) not in self._RNG_CONSTRUCTORS:
                continue
            stores_on_self = any(
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                for target in stmt.targets
            )
            if not stores_on_self:
                continue
            seed_arg = self._seed_argument(stmt.value)
            if self._register(
                class_name, seed_arg, optional, init, skip_self=True
            ):
                self.class_like.add(class_name)

    def _register(
        self,
        name: str,
        seed_arg: object,
        optional: set[str],
        node: ast.FunctionDef,
        *,
        skip_self: bool = False,
    ) -> bool:
        if seed_arg is _ALWAYS_UNSEEDED:
            self.helpers[name] = None
            return True
        if isinstance(seed_arg, str) and seed_arg in optional:
            self.helpers[name] = (
                seed_arg,
                self._positional_index(node, seed_arg, skip_self=skip_self),
            )
            return True
        return False

    @staticmethod
    def _positional_index(
        node: ast.FunctionDef, param: str, *, skip_self: bool
    ) -> int | None:
        """Where ``param`` sits in a call's positional args (None when it
        is keyword-only).  ``skip_self`` drops ``self`` for methods."""
        positional = [a.arg for a in node.args.posonlyargs + node.args.args]
        if skip_self and positional and positional[0] == "self":
            positional = positional[1:]
        if param in positional:
            return positional.index(param)
        return None

    def _rng_locals(self, node: ast.FunctionDef) -> dict[str, object]:
        """Plain locals assigned straight from a generator constructor,
        mapped to the seed argument of that construction."""
        assigned: dict[str, object] = {}
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Assign) or not isinstance(
                stmt.value, ast.Call
            ):
                continue
            if self.ctx.dotted(stmt.value.func) not in self._RNG_CONSTRUCTORS:
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    assigned[target.id] = self._seed_argument(stmt.value)
        return assigned

    @staticmethod
    def _optional_params(node: ast.FunctionDef) -> set[str]:
        """Parameters whose default is the constant ``None``."""
        args = node.args
        optional: set[str] = set()
        positional = args.posonlyargs + args.args
        for arg, default in zip(
            positional[len(positional) - len(args.defaults):], args.defaults,
            strict=True,
        ):
            if isinstance(default, ast.Constant) and default.value is None:
                optional.add(arg.arg)
        for arg, kw_default in zip(
            args.kwonlyargs, args.kw_defaults, strict=True
        ):
            if (
                isinstance(kw_default, ast.Constant)
                and kw_default.value is None
            ):
                optional.add(arg.arg)
        return optional

    @staticmethod
    def _seed_argument(call: ast.Call) -> object:
        """The plain-name seed flowing into the constructor, the
        ``_ALWAYS_UNSEEDED`` sentinel for a bare call, else ``None``."""
        if not call.args and not call.keywords:
            return _ALWAYS_UNSEEDED
        candidates: list[ast.expr] = list(call.args[:1])
        candidates.extend(
            kw.value for kw in call.keywords if kw.arg == "seed"
        )
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                return candidate.id
        return None


_ALWAYS_UNSEEDED = object()


#: Module-level functions of stdlib ``random`` (global state).
STDLIB_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "getstate", "lognormvariate",
        "normalvariate", "paretovariate", "randbytes", "randint",
        "random", "randrange", "sample", "seed", "setstate", "shuffle",
        "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)
#: ``numpy.random`` attributes that are *not* the legacy global-state API.
NUMPY_RANDOM_SAFE = frozenset(
    {
        "BitGenerator", "Generator", "MT19937", "PCG64", "PCG64DXSM",
        "Philox", "RandomState", "SFC64", "SeedSequence", "default_rng",
    }
)


class RandomnessRule(LintRule):
    id = "RPR001"
    description = "unseeded or global-state randomness"

    def __init__(self) -> None:
        self._helpers: dict[str, str | None] = {}
        self._class_like: set[str] = set()

    def begin_module(self, ctx: RuleContext, tree: ast.Module) -> None:
        # The taint pre-scan needs the alias table, which the walk
        # only builds as it goes — resolve imports up front.
        prescan = RuleContext(ctx.module, ctx.path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                record_import(prescan.aliases, node)
        scanner = _RngHelperScanner(prescan)
        scanner.visit(tree)
        self._helpers = scanner.helpers
        self._class_like = scanner.class_like

    def visit_call(
        self, ctx: RuleContext, node: ast.Call, dotted: str | None
    ) -> None:
        if dotted is None:
            return
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] in STDLIB_RANDOM_FNS:
                ctx.emit(
                    self.id,
                    node,
                    f"call to global-state random.{parts[1]}(); draw from "
                    "a seeded numpy Generator (repro.util.rng) instead",
                )
            return
        if len(parts) >= 2 and parts[0] == "numpy" and parts[1] == "random":
            tail = parts[-1]
            if len(parts) == 3 and tail not in NUMPY_RANDOM_SAFE:
                ctx.emit(
                    self.id,
                    node,
                    f"call to legacy global-state numpy.random.{tail}(); "
                    "use an explicitly seeded Generator",
                )
                return
            if tail in ("default_rng", "RandomState") and _unseeded(node):
                ctx.emit(
                    self.id,
                    node,
                    f"numpy.random.{tail}() without a seed is "
                    "nondeterministic; pass a derived seed "
                    "(repro.util.rng.derive_seed)",
                )
            return
        self._check_tainted_helper(ctx, node, parts)

    def _check_tainted_helper(
        self, ctx: RuleContext, node: ast.Call, parts: list[str]
    ) -> None:
        """The dataflow leg: a call to a generator-returning helper with
        the seed omitted (or explicitly ``None``) is an unseeded rng."""
        name = parts[-1]
        if len(parts) != 1 or name not in self._helpers:
            return
        info = self._helpers[name]
        if info is None:
            unseeded = True
        else:
            seed_param, position = info
            # *args / **kwargs defeat static alignment: assume the seed
            # is inside rather than risk a false positive
            supplied = any(
                isinstance(arg, ast.Starred) for arg in node.args
            )
            if (
                not supplied
                and position is not None
                and len(node.args) > position
            ):
                arg = node.args[position]
                if not (
                    isinstance(arg, ast.Constant) and arg.value is None
                ):
                    supplied = True
            for kw in node.keywords:
                if kw.arg is None:  # **kwargs: assume the seed is inside
                    supplied = True
                elif kw.arg == seed_param and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is None
                ):
                    supplied = True
            unseeded = not supplied
        if not unseeded:
            return
        if name in self._class_like:
            ctx.emit(
                self.id,
                node,
                f"{name}() stores a numpy.random generator built from its "
                "seed parameter and was constructed without one; the "
                "unseeded rng is laundered through __init__ — pass a "
                "derived seed (repro.util.rng.derive_seed)",
            )
        else:
            ctx.emit(
                self.id,
                node,
                f"{name}() returns numpy.random generators and was called "
                "without a seed; the unseeded rng is laundered through the "
                "helper — pass a derived seed (repro.util.rng.derive_seed)",
            )


#: Wall-clock reads, banned everywhere (RPR104 reads this set and
#: ``MONOTONIC_NAMES`` too).
WALL_CLOCK_NAMES = frozenset(
    {
        "time.asctime", "time.ctime", "time.gmtime", "time.localtime",
        "time.strftime", "time.time", "time.time_ns",
        "datetime.date.today", "datetime.datetime.now",
        "datetime.datetime.today", "datetime.datetime.utcnow",
    }
)
#: Monotonic duration timers, confined to ``MONOTONIC_ALLOWED_PREFIXES``.
MONOTONIC_NAMES = frozenset(
    {
        "time.monotonic", "time.monotonic_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.process_time", "time.process_time_ns",
    }
)
#: Modules where monotonic duration timers are legitimate.
MONOTONIC_ALLOWED_PREFIXES = (
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


class WallClockRule(LintRule):
    id = "RPR002"
    description = "wall-clock read in deterministic logic"

    def visit_call(
        self, ctx: RuleContext, node: ast.Call, dotted: str | None
    ) -> None:
        if dotted is None:
            return
        if dotted in WALL_CLOCK_NAMES:
            ctx.emit(
                self.id,
                node,
                f"wall-clock read {dotted}(); simulated time must come "
                "from the event loop, never the host clock",
            )
        elif dotted in MONOTONIC_NAMES and not ctx.module_matches(
            MONOTONIC_ALLOWED_PREFIXES
        ):
            ctx.emit(
                self.id,
                node,
                f"{dotted}() outside the observability layers "
                f"({', '.join(MONOTONIC_ALLOWED_PREFIXES)}); "
                "sim/sched/core logic must stay clock-free",
            )


#: Registered classes whose direct construction bypasses the registry.
REGISTRY_CLASSES = frozenset(
    {
        "HeuristicResourceManager", "MilpResourceManager",
        "ExactResourceManager", "OraclePredictor", "ComposedPredictor",
        "TypeNoisePredictor", "ArrivalNoisePredictor",
    }
)
#: Modules allowed to construct those classes directly.
REGISTRY_ALLOWED_PREFIXES = (
    "repro.registry",
    "repro.core",
    "repro.predict",
    "tests",
)


class RegistryBypassRule(LintRule):
    id = "RPR003"
    description = "strategy/predictor construction bypassing repro.registry"

    def visit_call(
        self, ctx: RuleContext, node: ast.Call, dotted: str | None
    ) -> None:
        if dotted is None:
            return
        terminal = dotted.split(".")[-1]
        if terminal not in REGISTRY_CLASSES:
            return
        if ctx.module_matches(REGISTRY_ALLOWED_PREFIXES):
            return
        ctx.emit(
            self.id,
            node,
            f"direct {terminal}() construction bypasses repro.registry; "
            "use resolve_strategy/resolve_predictor (or RunSpec.from_names)",
        )


class RunSpecRule(LintRule):
    id = "RPR004"
    description = "unpicklable lambda/closure in RunSpec construction"

    def visit_call(
        self, ctx: RuleContext, node: ast.Call, dotted: str | None
    ) -> None:
        if dotted is None or dotted.split(".")[-1] != "RunSpec":
            return
        suspicious: list[ast.expr] = list(node.args[1:3])
        suspicious.extend(
            kw.value
            for kw in node.keywords
            if kw.arg in ("strategy", "predictor")
        )
        for value in suspicious:
            if isinstance(value, ast.Lambda):
                ctx.emit(
                    self.id,
                    value,
                    "lambda passed to RunSpec does not pickle and cannot "
                    "be dispatched to worker processes; use "
                    "RunSpec.from_names or a module-level factory",
                )
            elif (
                isinstance(value, ast.Name)
                and value.id in ctx.nested_defs
            ):
                ctx.emit(
                    self.id,
                    value,
                    f"nested function {value.id!r} passed to RunSpec is a "
                    "closure and does not pickle; hoist it to module level "
                    "or use RunSpec.from_names",
                )

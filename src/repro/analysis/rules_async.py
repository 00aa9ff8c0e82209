"""Async-safety rules for the live serve path (RPR10x).

PR 6 made the reproduction a long-running asyncio daemon; these rules
statically guard its event loop against the defect classes that silently
break sim/live parity:

``RPR101`` — blocking call inside ``async def``.
    ``time.sleep``, synchronous socket/subprocess work, plain ``open``
    file I/O, and construction of the blocking ``ServeClient`` all stall
    the event loop for every connection at once; use the asyncio
    equivalents or push the work onto an executor.
``RPR102`` — coroutine called but never awaited.
    A bare-statement call to an ``async def`` (or a known coroutine
    factory such as ``asyncio.sleep``) builds a coroutine object and
    drops it: the body never runs and Python only warns at garbage
    collection time.  Await it, or hand it to ``asyncio.create_task`` /
    ``gather`` when it should run concurrently.
``RPR103`` — shared engine state mutated off the dispatch queue.
    ``AdmissionEngine`` / ``UsageDepository`` objects are single-writer
    by design: every mutation flows through the dispatch queue consumed
    by one dispatcher task, which is what keeps live decisions ordered
    exactly like the simulator's.  An ``async def`` outside the
    configured dispatcher set that assigns through, or calls a mutating
    method on, a shared-state attribute chain re-introduces the
    interleaving the queue exists to prevent.
``RPR104`` — OS clock read bypassing ``WallClock``.
    Inside the serve packages, decisions read the platform state's
    logical time (``PlatformState.time``) and live arrival stamps come
    from :class:`~repro.serve.clock.WallClock` — ``time.*`` and
    asyncio's ``loop.time()`` readings diverge between replay and live
    modes and void the parity guarantee.  Only the wall-clock module
    itself (``clock_exempt_prefixes``) may touch the OS clock.

All four rules are pure AST checks configured by
:class:`~repro.analysis.engine.LintConfig`; RPR103/RPR104 apply only to
modules under ``serve_prefixes``.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    LintRule,
    RuleContext,
    register_rule,
)

__all__ = [
    "AsyncBlockingCallRule",
    "SharedStateRule",
    "ServeClockRule",
    "UnawaitedCoroutineRule",
]


@register_rule
class AsyncBlockingCallRule(LintRule):
    id = "RPR101"
    description = "blocking call inside async def stalls the event loop"

    def visit_call(
        self, ctx: RuleContext, node: ast.Call, dotted: str | None
    ) -> None:
        if dotted is None or not ctx.in_async_function():
            return
        terminal = dotted.split(".")[-1]
        if terminal in ctx.config.blocking_constructors:
            ctx.emit(
                self.id,
                node,
                f"{terminal}() opens a blocking connection inside "
                "'async def "
                f"{ctx.current_function()}'; use the asyncio streams API "
                "or run the client in a thread",
            )
            return
        blocking = dotted in ctx.config.blocking_call_names or any(
            dotted.startswith(prefix)
            for prefix in ctx.config.blocking_call_prefixes
        )
        if blocking:
            hint = (
                "use 'await asyncio.sleep(...)'"
                if dotted == "time.sleep"
                else "use the asyncio equivalent or loop.run_in_executor"
            )
            ctx.emit(
                self.id,
                node,
                f"blocking call {dotted}() inside 'async def "
                f"{ctx.current_function()}' stalls the event loop; {hint}",
            )


@register_rule
class UnawaitedCoroutineRule(LintRule):
    id = "RPR102"
    description = "coroutine called but never awaited or scheduled"

    def visit_expr(self, ctx: RuleContext, node: ast.Expr) -> None:
        call = node.value
        if not isinstance(call, ast.Call):
            return
        dotted = ctx.dotted(call.func)
        if dotted is None:
            return
        terminal = dotted.split(".")[-1]
        is_coroutine = (
            dotted in ctx.config.async_known_coroutines
            or terminal in ctx.async_defs
        )
        if not is_coroutine:
            return
        ctx.emit(
            self.id,
            call,
            f"{dotted}() returns a coroutine whose result is discarded — "
            "the body never runs; await it or schedule it with "
            "asyncio.create_task/gather",
        )


@register_rule
class SharedStateRule(LintRule):
    id = "RPR103"
    description = "shared engine state mutated outside the dispatch queue"

    def _applies(self, ctx: RuleContext) -> bool:
        return (
            ctx.module_matches(ctx.config.serve_prefixes)
            and ctx.in_async_function()
            and ctx.current_function() not in ctx.config.dispatcher_functions
        )

    def _shared_root(
        self, ctx: RuleContext, chain: tuple[str, ...]
    ) -> str | None:
        """The shared-state attribute the chain passes through (skipping
        a leading ``self``), or ``None``."""
        for part in chain[:-1]:  # the terminal attr/method is the access
            if part in ctx.config.shared_state_roots:
                return part
        return None

    def visit_assign(
        self, ctx: RuleContext, node: ast.Assign | ast.AugAssign
    ) -> None:
        if not self._applies(ctx):
            return
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            base = target
            # Writes through a subscript (engine.jobs[k] = v) count too.
            while isinstance(base, ast.Subscript):
                base = base.value
            chain = ctx.attribute_chain(base)
            if len(chain) < 2:
                continue
            root = self._shared_root(ctx, chain)
            if root is not None:
                ctx.emit(
                    self.id,
                    node,
                    f"assignment through shared '{root}' state in 'async "
                    f"def {ctx.current_function()}'; engine state is "
                    "single-writer — route the mutation through the "
                    "dispatch queue",
                )

    def visit_call(
        self, ctx: RuleContext, node: ast.Call, dotted: str | None
    ) -> None:
        if not self._applies(ctx):
            return
        chain = ctx.attribute_chain(node.func)
        if len(chain) < 2:
            return
        method = chain[-1]
        if method not in ctx.config.shared_state_mutators:
            return
        root = self._shared_root(ctx, chain)
        if root is not None:
            ctx.emit(
                self.id,
                node,
                f"call to mutating {'.'.join(chain)}() in 'async def "
                f"{ctx.current_function()}' bypasses the dispatch queue; "
                "only the dispatcher task may drive shared engine state",
            )


@register_rule
class ServeClockRule(LintRule):
    id = "RPR104"
    description = "OS clock read in serve logic bypassing WallClock"

    def visit_call(
        self, ctx: RuleContext, node: ast.Call, dotted: str | None
    ) -> None:
        if not ctx.module_matches(ctx.config.serve_prefixes):
            return
        if ctx.module_matches(ctx.config.clock_exempt_prefixes):
            return
        if dotted is None:
            return
        if (
            dotted in ctx.config.monotonic_names
            or dotted in ctx.config.wall_clock_names
        ):
            ctx.emit(
                self.id,
                node,
                f"{dotted}() in serve logic bypasses WallClock; read "
                "PlatformState.time (or WallClock.now for a live arrival "
                "stamp) so replay and live modes stay interchangeable",
            )
            return
        # asyncio's event-loop clock is just as much a wall clock here.
        if dotted == "loop.time" or dotted.endswith(".loop.time"):
            ctx.emit(
                self.id,
                node,
                "event-loop clock read in serve logic bypasses WallClock; "
                "read PlatformState.time or WallClock.now",
            )

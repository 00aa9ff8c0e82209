"""Custom lint rules the generic linters cannot express — the facade.

Since PR 7 this module is a thin entry point over the rule-registry
engine (:mod:`repro.analysis.engine`); the rules themselves live in
family modules and register with the engine at import time:

* :mod:`repro.analysis.rules_core` — the determinism/picklability
  family: ``RPR001`` unseeded randomness (with a helper-taint dataflow
  leg), ``RPR002`` wall-clock reads, ``RPR003`` registry bypass,
  ``RPR004`` unpicklable ``RunSpec`` factories.
* :mod:`repro.analysis.rules_async` — the async-safety family guarding
  :mod:`repro.serve`: ``RPR101`` blocking calls in ``async def``,
  ``RPR102`` unawaited coroutines, ``RPR103`` shared engine state
  mutated off the dispatch queue, ``RPR104`` OS-clock reads bypassing
  ``WallClock`` and ``PlatformState.time``.
* :mod:`repro.analysis.rules_protocol` — the wire-contract family:
  ``RPR201`` declared-but-unhandled control ops, ``RPR202``
  declared-but-dead error codes, ``RPR203`` emitted-but-undeclared
  error codes (cross-file checks over protocol/server/client trios).

``RPR000`` (file does not parse) is the engine's own pseudo-rule.

Findings can be suppressed per line with ``# noqa: RPR00x`` (bare
``# noqa`` also works), or — for intentional, reviewed exemptions — via
the committed baseline file (:mod:`repro.analysis.baseline`).

:data:`LINT_RULES` (rule id -> one-line description) remains the public
contract of the pass: ids and descriptions are stable, and the rule-id
stability test pins them.
"""

from __future__ import annotations

# The engine carries the framework; importing the family modules is what
# populates the registry (each rule registers itself on import).
from repro.analysis import rules_async, rules_core, rules_protocol  # noqa: F401
from repro.analysis.baseline import (
    Baseline,
    BaselineEntry,
    BaselineError,
    BaselineResult,
    default_baseline_path,
)
from repro.analysis.engine import (
    PROJECT_RULE_REGISTRY,
    RULE_REGISTRY,
    LintConfig,
    LintFinding,
    LintRule,
    ProjectRule,
    all_rule_descriptions,
    findings_to_payload,
    lint_file,
    lint_package,
    lint_paths,
    lint_source,
    register_rule,
    render_findings,
    select_rules,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "BaselineResult",
    "LINT_RULES",
    "LintConfig",
    "LintFinding",
    "LintRule",
    "PROJECT_RULE_REGISTRY",
    "ProjectRule",
    "RULE_REGISTRY",
    "default_baseline_path",
    "findings_to_payload",
    "lint_file",
    "lint_package",
    "lint_paths",
    "lint_source",
    "register_rule",
    "render_findings",
    "select_rules",
]

#: Rule id -> one-line description (the lint pass's public contract).
LINT_RULES: dict[str, str] = all_rule_descriptions()

"""Static and dynamic analysis of the reproduction itself.

Two independent safety nets sit on top of the library:

* :mod:`repro.analysis.invariants` — a schedule-invariant verifier that
  replays a :class:`~repro.sim.result.SimulationResult` execution log
  and re-checks the paper's MILP constraints (eqs. (1)-(14)) without
  trusting the simulator's own bookkeeping.  Opt in with
  ``SimulationConfig(verify=True)``, per-cell via ``run_matrix(verify=True)``,
  or from the ``repro analyze`` CLI subcommand.
* :mod:`repro.analysis.lint` — a pluggable AST/project lint engine
  (:mod:`repro.analysis.engine`) encoding repo-specific rules a generic
  linter cannot express.  Three rule families: determinism and
  picklability (``RPR00x``), async-safety of the live serve path
  (``RPR10x``), and wire-protocol exhaustiveness (``RPR2xx``).
  Intentional findings are suppressed by the committed, justified
  baseline file (:mod:`repro.analysis.baseline`).

Both run in CI (the ``static-analysis`` job) and are exercised
negatively by the test suite: every invariant and every lint rule has at
least one test proving it fires.
"""

from repro.analysis.invariants import (
    INVARIANTS,
    VerificationError,
    VerificationReport,
    Violation,
    verify_result,
)
from repro.analysis.lint import (
    LINT_RULES,
    PROJECT_RULE_REGISTRY,
    RULE_REGISTRY,
    Baseline,
    BaselineEntry,
    BaselineError,
    BaselineResult,
    LintConfig,
    LintFinding,
    LintRule,
    ProjectRule,
    default_baseline_path,
    findings_to_payload,
    lint_file,
    lint_package,
    lint_paths,
    lint_source,
    register_rule,
    render_findings,
    select_rules,
)
from repro.analysis.smoke import SmokeReport, run_verified_smoke

__all__ = [
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "BaselineResult",
    "INVARIANTS",
    "LINT_RULES",
    "LintConfig",
    "LintFinding",
    "LintRule",
    "PROJECT_RULE_REGISTRY",
    "ProjectRule",
    "RULE_REGISTRY",
    "SmokeReport",
    "VerificationError",
    "VerificationReport",
    "Violation",
    "default_baseline_path",
    "findings_to_payload",
    "lint_file",
    "lint_package",
    "lint_paths",
    "lint_source",
    "register_rule",
    "render_findings",
    "run_verified_smoke",
    "select_rules",
    "verify_result",
]

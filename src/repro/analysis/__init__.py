"""Static and dynamic analysis of the reproduction itself.

Two independent safety nets sit on top of the library:

* :mod:`repro.analysis.invariants` — a schedule-invariant verifier that
  replays a :class:`~repro.sim.result.SimulationResult` execution log
  and re-checks the paper's MILP constraints (eqs. (1)-(14)) without
  trusting the simulator's own bookkeeping.  Opt in with
  ``SimulationConfig(verify=True)``, per-cell via ``run_matrix(verify=True)``,
  or from the ``repro analyze`` CLI subcommand.
* :mod:`repro.analysis.lint` — a fixed set of AST and cross-file lint
  rules encoding repo-specific contracts a generic linter cannot
  express.  Three rule families: determinism and picklability
  (``RPR00x``), async-safety of the live serve path (``RPR10x``), and
  wire-protocol exhaustiveness (``RPR2xx``).  Intentional findings are
  suppressed by the committed, justified baseline file
  (:mod:`repro.analysis.baseline`).

Both run in CI (the ``static-analysis`` job) and are exercised
negatively by the test suite: every invariant and every lint rule has at
least one test proving it fires.

The package re-exports only the verifier, so ``import repro`` (which
imports it) never loads the lint pass; import
:mod:`repro.analysis.lint` directly.  The verified smoke grid lives in
:mod:`repro.faults.smoke`.
"""

from repro.analysis.invariants import (
    INVARIANTS,
    VerificationError,
    VerificationReport,
    Violation,
    verify_result,
)

__all__ = [
    "INVARIANTS",
    "VerificationError",
    "VerificationReport",
    "Violation",
    "verify_result",
]

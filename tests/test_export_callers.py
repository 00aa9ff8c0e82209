"""Every exported name has a caller outside the module that defines it.

The check walks the AST of every non-test module under ``src/``,
``examples/``, ``perfbench/`` and ``benchmarks/``.  Each name in a
package ``__all__`` (``repro`` and each subpackage) must appear as a
name, an attribute or an import somewhere other than its defining
module and the ``__init__`` re-exports.  A name no entry point reaches
is either dropped from ``__all__`` or listed in
:data:`ALLOWED_UNCALLED` with the reason a caller meets it anyway.  An
allowlist entry that gains a caller, or whose name is no longer
exported, fails as stale, so the list only shrinks by hand.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Mapping

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories whose non-test modules count as callers.
ENTRY_DIRS = ("src", "examples", "perfbench", "benchmarks")

#: ``<defining module>.<name>`` of each exported name that no entry point
#: names, and why it stays public.
ALLOWED_UNCALLED: dict[str, str] = {
    "repro.__version__": "the package version attribute, read by tools",
    "repro.core.milp_rm.MilpValidationError": (
        "raised by the 'milp' strategy on a solver status other than "
        "optimal or infeasible"
    ),
    "repro.obs.events.NullTracer": (
        "class of NULL_TRACER, the tracer an untraced Simulator holds"
    ),
    "repro.obs.events.EVENT_KINDS": "the vocabulary of SimEvent.kind",
    "repro.obs.metrics.HistogramSnapshot": (
        "value type of MetricsSnapshot.histograms"
    ),
    "repro.obs.metrics.VOLATILE_METRIC_PREFIX": (
        "name prefix of the wall-time metrics MetricsSnapshot.deterministic "
        "drops"
    ),
    "repro.analysis.invariants.INVARIANTS": (
        "the check codes a VerificationReport from verify_result lists"
    ),
    "repro.experiments.runner.CellStats": (
        "element type of Aggregate.cell_stats, which run_matrix returns"
    ),
    "repro.experiments.fig4_accuracy.AccuracySweepResult": (
        "result type of run_accuracy_sweep"
    ),
    "repro.experiments.fig4_accuracy.DEFAULT_ACCURACY_LEVELS": (
        "default accuracy levels of run_accuracy_sweep"
    ),
    "repro.experiments.fig5_overhead.OverheadSweepResult": (
        "result type of run_overhead_sweep"
    ),
    "repro.experiments.fig5_overhead.DEFAULT_OVERHEAD_COEFFICIENTS": (
        "default coefficients of run_overhead_sweep"
    ),
    "repro.experiments.fig4_frontier.FrontierResult": (
        "result type of run_frontier"
    ),
    "repro.experiments.fig4_frontier.FrontierCell": (
        "element type of FrontierResult.cells"
    ),
    "repro.experiments.fig4_frontier.DEFAULT_FRONTIER_PREDICTORS": (
        "default predictor names of run_frontier"
    ),
    "repro.experiments.fig4_frontier.DRIFT_SCENARIOS": (
        "the drift scenario names run_frontier accepts"
    ),
    "repro.experiments.report_all.FullReport": (
        "result type of run_all"
    ),
    "repro.experiments.motivational.MotivationalOutcome": (
        "result type of run_motivational"
    ),
    "repro.experiments.sec52_milp_vs_heuristic.Sec52Result": (
        "result type of run_sec52"
    ),
    "repro.faults.events.DEGRADATION_KINDS": (
        "the vocabulary of DegradationEvent.kind"
    ),
    "repro.faults.serve.ConnectionDrop": (
        "a fault type of the ServeFaultPlan that `repro chaos` runs"
    ),
    "repro.faults.serve.JournalFault": (
        "a fault type of the ServeFaultPlan that `repro chaos` runs"
    ),
    "repro.faults.serve.ResponseCorruption": (
        "a fault type of the ServeFaultPlan that `repro chaos` runs"
    ),
    "repro.faults.serve.ResponseLatency": (
        "a fault type of the ServeFaultPlan that `repro chaos` runs"
    ),
    "repro.milp.model.Arrays": "result type of Model.arrays()",
    "repro.milp.model.Row": "result type of Model.add_row()",
    "repro.milp.model.Variable": "element type of Model.variables",
    "repro.predict.interarrival.EwmaInterarrival": (
        "a gap model ComposedPredictor(interarrival=) accepts"
    ),
    "repro.predict.interarrival.MeanInterarrival": (
        "a gap model ComposedPredictor(interarrival=) accepts"
    ),
    "repro.predict.metrics.PredictionReport": (
        "result type of evaluate_predictor"
    ),
    "repro.sched.timeline.ResourceTimeline": (
        "result type of build_timeline"
    ),
    "repro.sched.timeline.Chunk": "element type of ResourceTimeline.chunks",
    "repro.serve.chaos.ChaosReport": "result type of run_chaos",
    "repro.serve.server.RecoveryReport": (
        "type of AdmissionServer.recovery after a journal replay"
    ),
    "repro.serve.client.ServeTimeoutError": (
        "raised by ServeClient when a reply does not arrive in time"
    ),
    "repro.serve.smoke.SmokeReport": "result type of run_smoke",
    "repro.serve.depository.TenantUsage": (
        "value type of the UsageDepository's per-tenant records"
    ),
    "repro.workload.trace.TraceStats": "result type of Trace.stats()",
    "repro.workload.trace.TraceFormatError": (
        "raised by Trace.load and Trace.from_dict on a malformed trace"
    ),
}


def _is_test(path: Path, root: Path) -> bool:
    parts = path.relative_to(root).parts
    return (
        "tests" in parts
        or path.name.startswith("test_")
        or path.name == "conftest.py"
    )


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def _used_names(tree: ast.Module, *, is_init: bool) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.ImportFrom) and not is_init:
            for alias in node.names:
                yield alias.name


def uncalled_exports(root: Path) -> set[str]:
    """``<defining module>.<name>`` of every package export with no caller."""
    src = root / "src"
    modules = {
        _module_name(path, src): path for path in sorted(src.rglob("*.py"))
    }
    trees = {name: ast.parse(path.read_text()) for name, path in modules.items()}

    def defining_module(module: str, name: str) -> str:
        for node in ast.walk(trees[module]):
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if (alias.asname or alias.name) == name and node.module in trees:
                    return defining_module(node.module, alias.name)
        return module

    exports = {
        f"{defining_module(module, name)}.{name}"
        for module, path in modules.items()
        if path.name == "__init__.py"
        for name in _exported(trees[module])
    }

    callers: dict[str, set[str]] = {}
    for directory in ENTRY_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if _is_test(path, root):
                continue
            is_init = path.name == "__init__.py"
            owner = (
                _module_name(path, src)
                if path.is_relative_to(src)
                else str(path.relative_to(root))
            )
            tree = ast.parse(path.read_text())
            for name in _used_names(tree, is_init=is_init):
                callers.setdefault(name, set()).add(owner)

    return {
        export
        for export in exports
        if not callers.get(export.rpartition(".")[2], set())
        - {export.rpartition(".")[0]}
    }


def export_problems(root: Path, allowed: Mapping[str, str]) -> list[str]:
    """Uncalled exports missing from ``allowed``, then stale entries."""
    uncalled = uncalled_exports(root)
    problems = [
        f"{export} is exported but nothing outside its module uses it"
        for export in sorted(uncalled - allowed.keys())
    ]
    problems += [
        f"stale allowlist entry {entry}: it now has a caller or is not "
        "exported"
        for entry in sorted(allowed.keys() - uncalled)
    ]
    return problems


def test_every_export_has_a_caller_or_a_reason():
    assert export_problems(REPO_ROOT, ALLOWED_UNCALLED) == []


def test_every_allowlist_entry_gives_a_reason():
    assert all(reason.strip() for reason in ALLOWED_UNCALLED.values())


def _write_tree(root: Path, files: Mapping[str, str]) -> None:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


class TestGuard:
    @staticmethod
    def _tree(tmp_path: Path, caller: str) -> Path:
        _write_tree(
            tmp_path,
            {
                "src/pkg/__init__.py": (
                    "from pkg.mod import a, b\n__all__ = ['a', 'b']\n"
                ),
                "src/pkg/mod.py": "def a():\n    pass\n\n\ndef b():\n    a()\n",
                "examples/use.py": caller,
                "examples/test_use.py": "from pkg.mod import b\n",
            },
        )
        return tmp_path

    def test_passes_when_every_export_is_called(self, tmp_path):
        root = self._tree(tmp_path, "from pkg import a, b\n")
        assert export_problems(root, {}) == []

    def test_fails_on_an_export_with_no_caller(self, tmp_path):
        # b is used only by a test module, which does not count.
        root = self._tree(tmp_path, "from pkg import a\n")
        assert export_problems(root, {}) == [
            "pkg.mod.b is exported but nothing outside its module uses it"
        ]
        assert export_problems(root, {"pkg.mod.b": "reason"}) == []

    def test_fails_on_a_stale_allowlist_entry(self, tmp_path):
        root = self._tree(tmp_path, "from pkg import a, b\n")
        assert export_problems(root, {"pkg.mod.a": "reason"}) == [
            "stale allowlist entry pkg.mod.a: it now has a caller or is "
            "not exported"
        ]

    def test_attribute_use_counts_as_a_caller(self, tmp_path):
        root = self._tree(tmp_path, "import pkg.mod as mod\nmod.a()\nmod.b()\n")
        assert export_problems(root, {}) == []

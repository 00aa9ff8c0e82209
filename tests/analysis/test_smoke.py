"""The executor's verification stat and the ``repro analyze`` CLI
subcommand.  The verified smoke grid is tested in
``tests/faults/test_fault_smoke.py``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.runner import RunSpec, run_matrix
from repro.sim.simulator import SimulationConfig


class TestMatrixVerificationStat:
    def test_serial_cells_record_verified(self, platform, tiny_trace):
        specs = [
            RunSpec.from_names(
                "checked", "heuristic",
                sim_config=SimulationConfig(verify=True),
            ),
            RunSpec.from_names("unchecked", "heuristic"),
        ]
        aggregates = run_matrix([tiny_trace], platform, specs)
        assert [s.verified for s in aggregates["checked"].cell_stats] == [
            True
        ]
        assert [s.verified for s in aggregates["unchecked"].cell_stats] == [
            None
        ]
        assert aggregates["checked"].n_verified == 1
        assert aggregates["unchecked"].n_verified == 0

    def test_parallel_cells_record_verified(self, platform, tiny_trace):
        specs = [
            RunSpec.from_names(
                "checked", "heuristic",
                sim_config=SimulationConfig(verify=True),
            ),
        ]
        aggregates = run_matrix(
            [tiny_trace], platform, specs, parallel=2
        )
        assert [s.verified for s in aggregates["checked"].cell_stats] == [
            True
        ]


class TestAnalyzeCli:
    def test_self_lint_is_clean(self, capsys):
        # Clean modulo the committed baseline: that is CI's exact gate.
        assert main(["analyze", "--self"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_lint_fixture_directory_fails(self, capsys):
        from tests.analysis.test_lint import FIXTURES

        code = main(["analyze", "--lint", str(FIXTURES / "bad_randomness.py")])
        assert code == 1
        assert "RPR001" in capsys.readouterr().out

    def test_lint_json_output(self, capsys):
        from tests.analysis.test_lint import FIXTURES

        code = main([
            "analyze", "--lint", str(FIXTURES / "bad_randomness.py"), "--json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert {f["rule"] for f in payload["findings"]} == {"RPR001"}
        assert payload["unused_baseline"] == []

    def test_rules_selector_filters_findings(self, capsys):
        from tests.analysis.test_lint import FIXTURES

        code = main([
            "analyze", "--lint", str(FIXTURES / "bad_registry.py"),
            "--rules", "RPR10",
        ])
        assert code == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_unknown_rules_selector_is_an_error(self, capsys):
        assert main(["analyze", "--self", "--rules", "RPR9"]) == 2
        assert "unknown rule selector" in capsys.readouterr().err

    @pytest.mark.parametrize("selector", ["", " , "])
    def test_empty_rules_selection_is_an_error(self, capsys, selector):
        from tests.analysis.test_lint import FIXTURES

        code = main([
            "analyze", "--lint", str(FIXTURES / "bad_wall_clock.py"),
            "--rules", selector,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "no rule selected" in captured.err

    @pytest.mark.parametrize(
        ("name", "reason"),
        [
            ("does_not_exist", "no such file or directory"),
            ("nope.py", "no such file or directory"),
            ("README.md", "not a .py file or a directory"),
        ],
    )
    def test_lint_path_that_cannot_be_linted_is_an_error(
        self, capsys, tmp_path, name, reason
    ):
        (tmp_path / "README.md").write_text("# not python\n")
        path = tmp_path / name
        assert main(["analyze", "--lint", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--lint: {path}: {reason}\n"

    def test_unused_baseline_entry_fails(self, capsys, tmp_path):
        from tests.analysis.test_lint import FIXTURES

        stale = tmp_path / "baseline.txt"
        stale.write_text(
            "RPR001 nowhere/such_module.py -- justification for nothing\n"
        )
        code = main([
            "analyze", "--lint", str(FIXTURES / "clean_module.py"),
            "--baseline", str(stale),
        ])
        assert code == 1
        assert "unused baseline entry" in capsys.readouterr().err

    def test_baseline_suppresses_findings(self, capsys, tmp_path):
        from tests.analysis.test_lint import FIXTURES

        baseline = tmp_path / "baseline.txt"
        baseline.write_text(
            "RPR001 fixtures/bad_randomness.py -- fixture is deliberately bad\n"
        )
        code = main([
            "analyze", "--lint", str(FIXTURES / "bad_randomness.py"),
            "--baseline", str(baseline),
        ])
        assert code == 0
        assert "suppressed by baseline" in capsys.readouterr().out

    def test_trace_verification(self, capsys, tmp_path, tiny_trace):
        path = tmp_path / "trace.json"
        tiny_trace.save(path)
        code = main([
            "analyze", str(path), "--strategy", "heuristic",
            "--predictor", "oracle", "--overhead", "0.05",
        ])
        assert code == 0
        assert "schedule verification: OK" in capsys.readouterr().out

    def test_trace_verification_json(self, capsys, tmp_path, tiny_trace):
        path = tmp_path / "trace.json"
        tiny_trace.save(path)
        code = main(["analyze", str(path), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["n_violations"] == 0

    def test_no_mode_selected_is_an_error(self, capsys):
        assert main(["analyze"]) == 2
        assert "nothing to analyze" in capsys.readouterr().err

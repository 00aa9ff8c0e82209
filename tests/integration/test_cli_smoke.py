"""End-to-end CLI smoke: every ``repro`` subcommand, exit codes, artefacts.

Each test drives :func:`repro.cli.main` the way a shell user would —
tiny workloads, real temp-dir artefacts — and asserts both the exit
code and that the promised files appear on disk.  ``COVERED_COMMANDS``
plus the meta-tests guarantee the suite can never silently fall behind
the parser: adding a subcommand without a smoke test here fails
``test_every_subcommand_has_a_smoke_test``.
"""

import json

import pytest

from repro.cli import build_parser, main

#: Every subcommand exercised by this module.  Must match the parser.
COVERED_COMMANDS = {
    "generate",
    "simulate",
    "experiment",
    "evaluate",
    "analyze",
    "faults",
    "obs",
    "serve",
    "chaos",
    "predict",
}


def _subparser_choices() -> set[str]:
    parser = build_parser()
    for action in parser._actions:
        if action.dest == "command":
            return set(action.choices)
    raise AssertionError("no 'command' subparsers action found")


class TestParserCoverage:
    def test_every_subcommand_has_a_smoke_test(self):
        assert _subparser_choices() == COVERED_COMMANDS

    @pytest.mark.parametrize("command", sorted(COVERED_COMMANDS))
    def test_help_exits_zero(self, command, capsys):
        """Each subcommand's --help renders and exits 0 (argparse)."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert command in capsys.readouterr().out


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """One tiny trace generated through the CLI itself."""
    out = tmp_path_factory.mktemp("traces")
    code = main(
        [
            "generate", "--group", "VT", "--traces", "1",
            "--requests", "20", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    files = list(out.glob("*.json"))
    assert len(files) == 1
    return files[0]


class TestGenerateSmoke:
    def test_writes_artefacts(self, tmp_path, capsys):
        out = tmp_path / "traces"
        code = main(
            ["generate", "--traces", "2", "--requests", "10",
             "--out", str(out)]
        )
        assert code == 0
        assert sorted(p.name for p in out.glob("*.json")) == [
            "vt_000.json", "vt_001.json",
        ]
        assert "vt_000.json" in capsys.readouterr().out


class TestSimulateSmoke:
    def test_json_summary(self, trace_file, capsys):
        code = main(
            ["simulate", str(trace_file), "--predictor", "oracle", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_requests"] == 20


class TestExperimentSmoke:
    def test_fig2_tiny(self, capsys):
        code = main(
            ["experiment", "fig2", "--traces", "1", "--requests", "15"]
        )
        assert code == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_all_writes_report_dir(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(
            ["experiment", "all", "--traces", "1", "--requests", "15",
             "--out", str(out)]
        )
        assert code == 0
        written = list(out.iterdir())
        assert written, "experiment all --out produced no artefacts"
        assert "written:" in capsys.readouterr().out


class TestEvaluateSmoke:
    def test_oracle(self, trace_file, capsys):
        assert main(
            ["evaluate", str(trace_file), "--predictor", "oracle"]
        ) == 0
        assert "type accuracy" in capsys.readouterr().out


class TestAnalyzeSmoke:
    def test_requires_a_mode(self, capsys):
        assert main(["analyze"]) == 2
        assert "nothing to analyze" in capsys.readouterr().err

    def test_verified_trace_replay(self, trace_file, capsys):
        code = main(["analyze", str(trace_file), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True


class TestFaultsSmoke:
    def test_requires_a_mode(self, capsys):
        assert main(["faults"]) == 2
        assert "--smoke" in capsys.readouterr().err

    def test_smoke_writes_json_artefact(self, tmp_path, capsys):
        out = tmp_path / "faults.json"
        code = main(
            ["faults", "--smoke", "--traces", "1", "--requests", "25",
             "--json", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["smoke"]["ok"] is True


class TestPredictSmoke:
    def test_requires_a_mode(self, capsys):
        assert main(["predict"]) == 2
        assert "--frontier" in capsys.readouterr().err

    def test_frontier_writes_csv_artefact(self, tmp_path, capsys):
        out = tmp_path / "frontier.csv"
        code = main(
            ["predict", "--frontier", "--traces", "1", "--requests", "20",
             "--seed", "2", "--csv", str(out)]
        )
        assert code == 0
        header, *rows = out.read_text().splitlines()
        assert header.startswith("scenario,predictor,type_accuracy")
        assert len(rows) == 15  # 3 scenarios x (4 predictors + off)
        assert "Fig. 4 frontier" in capsys.readouterr().out

    def test_frontier_json(self, capsys):
        code = main(
            ["predict", "--frontier", "--traces", "1", "--requests", "20",
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "heuristic"
        assert {c["predictor"] for c in payload["cells"]} >= {"drift", "off"}


class TestObsSmoke:
    def test_text_report(self, trace_file, capsys):
        code = main(["obs", str(trace_file), "--summary"])
        assert code == 0
        out = capsys.readouterr().out
        assert "event digest" in out
        assert "sim-start" in out
        assert "counters:" in out

    def test_exports_are_created_and_valid(self, trace_file, tmp_path):
        from repro.obs.export import validate_chrome_trace

        chrome = tmp_path / "chrome.json"
        jsonl = tmp_path / "events.jsonl"
        code = main(
            ["obs", str(trace_file), "--predictor", "oracle",
             "--export-chrome", str(chrome), "--export-jsonl", str(jsonl)]
        )
        assert code == 0
        assert validate_chrome_trace(json.loads(chrome.read_text())) == []
        lines = jsonl.read_text().splitlines()
        assert lines
        assert all(json.loads(line) for line in lines)

    def test_json_digest_matches_jsonl_export(self, trace_file, tmp_path, capsys):
        import hashlib

        jsonl = tmp_path / "events.jsonl"
        argv = [
            "obs", str(trace_file), "--json", "--export-jsonl", str(jsonl),
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        on_disk = hashlib.sha256(jsonl.read_bytes()).hexdigest()
        assert payload["digest"] == on_disk
        assert payload["n_events"] == len(jsonl.read_text().splitlines())
        assert payload["metrics"]["counters"]["sim/requests"] == 20
        # The same CLI invocation is byte-reproducible.
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == payload


class TestServeSmoke:
    def test_smoke_reports_throughput(self, capsys):
        code = main(
            ["serve", "--smoke", "--smoke-requests", "50", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["requests"] == 50
        assert report["clean_shutdown"] is True
        assert report["metrics_lines"] > 0

    def test_smoke_human_output(self, capsys):
        code = main(["serve", "--smoke", "--smoke-requests", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "decisions/s" in out
        assert "clean shutdown    : True" in out


class TestChaosSmoke:
    def test_tiny_run_reports_recovery(self, tmp_path, capsys):
        """Smallest honest chaos pass: 8 requests, SIGKILL after 4,
        no stochastic wire faults (those have dedicated suites)."""
        code = main(
            ["chaos", "--requests", "8", "--kill-at", "4",
             "--tasks", "6", "--snapshot-every", "4",
             "--latency-rate", "0", "--corruption-rate", "0",
             "--drop-rate", "0", "--journal-fault-rate", "0",
             "--workdir", str(tmp_path), "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["restarts"] == 1
        assert report["fingerprint_match"] is True
        assert report["clean_shutdown"] is True
        assert report["violations"] == []

"""The benchmark's own tests.

    python -m pytest perfbench/tests -q

They drive every workload at the tiny self-test scale through the real
command line (about a minute in all), and unit-test the span accounting
and the same-scenario rule.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.compare import ScenarioMismatch, compare
from perfbench.serve_launcher import PROBE_EVERY, SpeedProbe
from perfbench.spans import Recorder, by_layer, nesting_errors, self_times
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = [(name, trace) for name in WORKLOADS for trace in (0, 1)]


def run_bench(
    run_py: Path, workload: str, trace: int, out: Path, cwd: Path
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(run_py),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "tiny",
            "--out", str(out),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory: pytest.TempPathFactory) -> dict:
    """One tiny run of every workload, untraced and traced:
    ``(workload, trace) -> (stdout, result record)``."""
    tmp = tmp_path_factory.mktemp("perfbench")
    results = {}
    for name, trace in RUNS:
        out = tmp / f"{name}-{trace}.json"
        proc = run_bench(ROOT / "perfbench" / "run.py", name, trace, out, ROOT)
        assert proc.returncode == 0, proc.stderr
        results[name, trace] = (proc.stdout, json.loads(out.read_text()))
    return results


def test_spec_matches_workloads() -> None:
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].summary()
        assert len(entry["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize(("workload", "trace"), RUNS)
def test_prints_declared_metrics_and_passes_checks(
    runs: dict, workload: str, trace: int
) -> None:
    stdout, _ = runs[workload, trace]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in section
    ]
    for name, metric in result["metrics"].items():
        assert f"{name} = " in stdout
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(runs: dict, workload: str) -> None:
    _, untraced = runs[workload, 0]
    _, traced = runs[workload, 1]
    assert untraced["outputs"] == traced["outputs"]
    assert untraced["scenario_hash"] == traced["scenario_hash"]


def layers(runs: dict, workload: str) -> dict[str, float]:
    _, record = runs[workload, 1]
    return {k: v["value"] for k, v in record["result"]["metrics"].items()}


def test_layer_attribution_follows_the_workloads(runs: dict) -> None:
    learned = layers(runs, "sim-lt-learned")
    assert learned["predict.calls"] > 0
    assert learned["heuristic.solve_calls"] >= learned["core.decide_calls"] > 0
    assert learned["sched.probe_calls"] > 0
    assert learned["milp.solve_calls"] == 0
    assert abs(learned["trace.accounted_pct"] - 100.0) < 0.1

    off = layers(runs, "sim-vt-off")
    assert off["predict.calls"] == 0
    assert off["predict.used_pct"] == 0

    milp = layers(runs, "sim-vt-milp")
    assert milp["milp.solve_calls"] > 0
    assert milp["milp.vars_per_model"] > 0
    assert milp["heuristic.solve_calls"] == 0

    for sim in (learned, off, milp):
        for name, value in sim.items():
            if name.startswith(("serve.", "journal.", "wire.", "gen.")):
                assert value == 0, name

    serve = layers(runs, "serve-vt-journal")
    assert serve["journal.appends"] >= 2 * serve["core.decide_calls"] > 0
    assert serve["wire.decode_self_us"] > 0
    assert serve["serve.decide_self_us"] > 0
    assert serve["sim.loop_self_us"] == 0
    assert serve["serve.errors"] == serve["serve.shed"] == 0


def test_compare_refuses_a_different_scenario(runs: dict) -> None:
    _, learned = runs["sim-lt-learned", 0]
    _, off = runs["sim-vt-off", 0]
    assert any("decisions_per_s" in line for line in compare(learned, learned))
    with pytest.raises(ScenarioMismatch, match="predictor"):
        compare(learned, off)
    other_seed = json.loads(json.dumps(learned))
    other_seed["scenario"]["seed"] = 4
    other_seed["scenario_hash"] = "0" * 16
    with pytest.raises(ScenarioMismatch, match="seed"):
        compare(learned, other_seed)


def test_refuses_to_run_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    start = time.monotonic()
    proc = run_bench(
        tmp_path / "perfbench" / "run.py", "sim-vt-off", 0, tmp_path / "o", tmp_path
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert time.monotonic() - start < 180


def test_self_times_subtract_children_and_nothing_twice() -> None:
    recorder = Recorder()

    def leaf() -> None:
        time.sleep(0.002)

    traced_leaf = recorder.wrap("leaf", leaf)

    def outer() -> None:
        traced_leaf()
        time.sleep(0.001)
        traced_leaf()

    recorder.wrap("outer", outer)()
    spans = recorder.spans
    assert [span[0] for span in spans] == ["outer", "leaf", "leaf"]
    assert nesting_errors(spans) == 0
    own = self_times(spans)
    outer_duration = spans[0][2] - spans[0][1]
    assert sum(own) == pytest.approx(outer_duration, rel=1e-9)
    assert own[0] >= 0.001
    assert by_layer(spans)["leaf"].calls == 2


def test_speed_probe_times_loops_only_while_started() -> None:
    probe = SpeedProbe()
    decide = probe.wrap(lambda engine, frame: frame)
    for frame in range(2 * PROBE_EVERY):
        assert decide(None, frame) == frame
    _, spent = probe.stop()
    assert spent == 0.0

    probe.start()
    for frame in range(2 * PROBE_EVERY):
        decide(None, frame)
    speed, spent = probe.stop()
    assert speed > 0
    assert spent > 0
    decide(None, 0)
    assert probe.stop()[1] == spent

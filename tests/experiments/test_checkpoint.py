"""Crash-safe checkpoint journaling and resume.

Acceptance criteria under test: a run killed mid-matrix (SIGKILL, no
cleanup) resumes from its journal re-executing only the incomplete
cells, and the resumed aggregates are bit-identical to an uninterrupted
run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    compute_fingerprint,
)
from repro.experiments.common import standard_platform, standard_traces
from repro.experiments.config import HarnessScale
from repro.experiments.executor import ParallelConfig
from repro.experiments.runner import RunSpec, run_matrix
from repro.workload.tracegen import DeadlineGroup

TINY = HarnessScale(n_traces=3, n_requests=20, master_seed=3)


def _specs() -> list[RunSpec]:
    return [
        RunSpec.from_names("h-off", strategy="heuristic"),
        RunSpec.from_names("h-on", strategy="heuristic", predictor="oracle"),
    ]


@pytest.fixture(scope="module")
def matrix():
    return standard_platform(), standard_traces(DeadlineGroup.VT, TINY)


def _assert_bit_identical(resumed, reference) -> None:
    assert list(resumed) == list(reference)
    for label in reference:
        assert (
            resumed[label].rejection_percentages
            == reference[label].rejection_percentages
        )
        assert (
            resumed[label].normalized_energies
            == reference[label].normalized_energies
        )
        assert [
            (s.trace_index, s.solver_calls)
            for s in resumed[label].cell_stats
        ] == [
            (s.trace_index, s.solver_calls)
            for s in reference[label].cell_stats
        ]


class TestFingerprint:
    def test_stable(self, matrix):
        platform, traces = matrix
        assert compute_fingerprint(
            platform, _specs(), traces
        ) == compute_fingerprint(platform, _specs(), traces)

    def test_sensitive_to_specs_and_traces(self, matrix):
        platform, traces = matrix
        base = compute_fingerprint(platform, _specs(), traces)
        assert base != compute_fingerprint(platform, _specs()[:1], traces)
        assert base != compute_fingerprint(platform, _specs(), traces[:2])

    def test_sensitive_to_platform(self, matrix):
        from repro.model.platform import Platform

        _, traces = matrix
        assert compute_fingerprint(
            Platform.cpu_gpu(n_cpus=5, n_gpus=1), _specs(), traces
        ) != compute_fingerprint(
            Platform.cpu_gpu(n_cpus=4, n_gpus=1), _specs(), traces
        )


class TestJournal:
    def test_records_survive_reload(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, "fp") as journal:
            journal.record({"spec": 0, "trace": 0, "ok": False, "error": "x"})
            journal.record({"spec": 0, "trace": 1, "ok": True})
        reloaded = CheckpointJournal(path, "fp")
        assert set(reloaded.completed) == {(0, 0), (0, 1)}
        assert reloaded.completed[(0, 0)]["error"] == "x"

    def test_record_idempotent_per_unit(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, "fp") as journal:
            journal.record({"spec": 0, "trace": 0, "ok": True, "v": 1})
            journal.record({"spec": 0, "trace": 0, "ok": True, "v": 2})
        assert CheckpointJournal(path, "fp").completed[(0, 0)]["v"] == 1

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, "fp") as journal:
            journal.record({"spec": 0, "trace": 0, "ok": True})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"spec": 1, "trace": 0, "ok"')  # crash mid-write
        reloaded = CheckpointJournal(path, "fp")
        assert set(reloaded.completed) == {(0, 0)}

    def test_corrupt_line_followed_by_valid_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, "fp") as journal:
            journal.record({"spec": 0, "trace": 0, "ok": True})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage line\n")
            handle.write(
                json.dumps({"spec": 1, "trace": 0, "ok": True}) + "\n"
            )
        with pytest.raises(CheckpointError, match="corrupt"):
            CheckpointJournal(path, "fp")

    def test_wrong_fingerprint_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, "fp-a") as journal:
            journal.record({"spec": 0, "trace": 0, "ok": True})
        with pytest.raises(CheckpointError, match="different experiment"):
            CheckpointJournal(path, "fp-b")

    def test_not_a_journal_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"some": "other file"}\n')
        with pytest.raises(CheckpointError, match="not a"):
            CheckpointJournal(path, "fp")


class TestRunMatrixCheckpoint:
    def test_checkpoint_requires_parallel(self, matrix, tmp_path):
        platform, traces = matrix
        with pytest.raises(ValueError, match="parallel"):
            run_matrix(
                traces,
                platform,
                _specs(),
                checkpoint=str(tmp_path / "j.jsonl"),
            )

    def test_checkpoint_rejects_keep_results(self, matrix, tmp_path):
        platform, traces = matrix
        with pytest.raises(ValueError, match="keep_results"):
            run_matrix(
                traces,
                platform,
                _specs(),
                keep_results=True,
                parallel=ParallelConfig(jobs=1),
                checkpoint=str(tmp_path / "j.jsonl"),
            )

    def test_completed_journal_executes_nothing(self, matrix, tmp_path):
        platform, traces = matrix
        path = str(tmp_path / "j.jsonl")
        reference = run_matrix(
            traces, platform, _specs(), parallel=ParallelConfig(jobs=2)
        )
        first = run_matrix(
            traces,
            platform,
            _specs(),
            parallel=ParallelConfig(jobs=2),
            checkpoint=path,
        )
        _assert_bit_identical(first, reference)
        calls: list[tuple] = []
        second = run_matrix(
            traces,
            platform,
            _specs(),
            parallel=ParallelConfig(jobs=2),
            progress=lambda *args: calls.append(args),
            checkpoint=path,
        )
        assert calls == []  # every cell came from the journal
        _assert_bit_identical(second, reference)

    def test_partial_journal_resumes_only_incomplete(self, matrix, tmp_path):
        platform, traces = matrix
        full_path = tmp_path / "full.jsonl"
        reference = run_matrix(
            traces,
            platform,
            _specs(),
            parallel=ParallelConfig(jobs=2),
            checkpoint=str(full_path),
        )
        # keep the header and the first two completed cells
        lines = full_path.read_text().splitlines()
        partial_path = tmp_path / "partial.jsonl"
        partial_path.write_text("\n".join(lines[:3]) + "\n")
        calls: list[tuple] = []
        resumed = run_matrix(
            traces,
            platform,
            _specs(),
            parallel=ParallelConfig(jobs=2),
            progress=lambda *args: calls.append(args),
            checkpoint=str(partial_path),
        )
        total = len(_specs()) * len(traces)
        assert len(calls) == total - 2  # only the incomplete cells ran
        _assert_bit_identical(resumed, reference)

    def test_journaled_failures_not_rerun(self, matrix, tmp_path):
        from tests.experiments.test_executor import ExplodingStrategy

        platform, traces = matrix
        specs = [RunSpec(label="boom", strategy=ExplodingStrategy)]
        path = str(tmp_path / "j.jsonl")
        config = ParallelConfig(jobs=1, retries=0, backoff_base=0.0)
        first = run_matrix(
            traces[:1], platform, specs, parallel=config, checkpoint=path
        )
        assert first["boom"].n_failures == 1
        calls: list[tuple] = []
        second = run_matrix(
            traces[:1],
            platform,
            specs,
            parallel=config,
            progress=lambda *args: calls.append(args),
            checkpoint=path,
        )
        assert calls == []  # the exhausted failure is final, not retried
        assert second["boom"].n_failures == 1
        assert (
            second["boom"].failures[0].error
            == first["boom"].failures[0].error
        )


_KILL_SCRIPT = textwrap.dedent(
    """
    import os
    import signal
    import sys

    from repro.experiments.common import standard_platform, standard_traces
    from repro.experiments.config import HarnessScale
    from repro.experiments.executor import ParallelConfig
    from repro.experiments.runner import RunSpec, run_matrix
    from repro.workload.tracegen import DeadlineGroup

    checkpoint = sys.argv[1]
    kill_after = int(sys.argv[2])

    scale = HarnessScale(n_traces=3, n_requests=20, master_seed=3)
    platform = standard_platform()
    traces = standard_traces(DeadlineGroup.VT, scale)
    specs = [
        RunSpec.from_names("h-off", strategy="heuristic"),
        RunSpec.from_names("h-on", strategy="heuristic", predictor="oracle"),
    ]

    done = 0

    def progress(label, index, total):
        global done
        done += 1
        if done >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)  # no cleanup, no atexit

    run_matrix(
        traces,
        platform,
        specs,
        parallel=ParallelConfig(jobs=1),
        progress=progress,
        checkpoint=checkpoint,
    )
    """
)


def _run_killed(tmp_path, path) -> None:
    """Launch the kill script and assert it died to SIGKILL."""
    script = tmp_path / "killed_run.py"
    script.write_text(_KILL_SCRIPT)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # stderr goes to a file, not a pipe: the killed process's orphaned
    # pool workers inherit a pipe and would keep it open, hanging the
    # pipe-EOF wait long after the SIGKILL.
    stderr_path = tmp_path / "killed_run.stderr"
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        proc = subprocess.run(
            [sys.executable, str(script), str(path), "2"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            timeout=300,
        )
    assert proc.returncode == -signal.SIGKILL, stderr_path.read_text()


@pytest.mark.slow
class TestCrashResume:
    """SIGKILL subprocess tests: slow lane (see pyproject markers)."""

    def test_sigkill_mid_matrix_resumes_bit_identically(
        self, matrix, tmp_path
    ):
        platform, traces = matrix
        path = tmp_path / "crash.jsonl"
        _run_killed(tmp_path, path)

        # The journal survived the kill with >= 2 completed cells.
        journal_lines = [
            line for line in path.read_text().splitlines() if line.strip()
        ]
        completed = len(journal_lines) - 1  # minus header
        total = len(_specs()) * len(traces)
        assert 2 <= completed < total

        reference = run_matrix(
            traces, platform, _specs(), parallel=ParallelConfig(jobs=1)
        )
        calls: list[tuple] = []
        resumed = run_matrix(
            traces,
            platform,
            _specs(),
            parallel=ParallelConfig(jobs=1),
            progress=lambda *args: calls.append(args),
            checkpoint=str(path),
        )
        # only the incomplete cells re-executed...
        assert len(calls) == total - completed
        # ...and the aggregates match an uninterrupted run bit-for-bit
        _assert_bit_identical(resumed, reference)

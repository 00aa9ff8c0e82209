"""Crash-safe checkpoint journaling and resume.

Acceptance criteria under test: a run killed mid-matrix (SIGKILL, no
cleanup) resumes from its journal re-executing only the incomplete
cells, at any worker count, and the resumed aggregates are
bit-identical to an uninterrupted run.
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

from repro.core.exact import ExactResourceManager
from repro.core.heuristic import HeuristicResourceManager
from repro.experiments.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    compute_fingerprint,
)
from repro.experiments.common import standard_platform, standard_traces
from repro.experiments.config import HarnessScale
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


    def test_sensitive_to_strategy_and_predictor(self, matrix):
        platform, traces = matrix

        def fingerprint(spec):
            return compute_fingerprint(platform, [spec], traces)

        assert fingerprint(
            RunSpec.from_names("x", "heuristic")
        ) != fingerprint(RunSpec.from_names("x", "milp"))
        assert fingerprint(
            RunSpec.from_names("x", "heuristic", "oracle")
        ) != fingerprint(RunSpec.from_names("x", "heuristic"))
        noisy = [
            RunSpec.from_names(
                "x",
                "heuristic",
                "type-noise",
                predictor_kwargs={"accuracy": accuracy, "seed": 1},
            )
            for accuracy in (0.5, 0.9)
        ]
        assert fingerprint(noisy[0]) != fingerprint(noisy[1])
        assert fingerprint(
            RunSpec(label="x", strategy=HeuristicResourceManager)
        ) != fingerprint(RunSpec(label="x", strategy=ExactResourceManager))
        # The unstable factory IS the scenario under test.
        unstable = RunSpec(label="anon", strategy=lambda: None)  # noqa: RPR004
        with pytest.raises(ValueError, match="'anon'"):
            fingerprint(unstable)


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

    def test_append_after_torn_tail_survives_second_resume(self, tmp_path):
        """The torn bytes must be cut off the file, not just skipped:
        the next append would otherwise be glued onto them and the
        second resume would refuse the journal as corrupt."""
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, "fp") as journal:
            journal.record({"spec": 0, "trace": 0, "ok": True})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"spec": 1, "trace": 0, "ok"')  # crash mid-write
        with CheckpointJournal(path, "fp") as journal:  # first resume
            assert set(journal.completed) == {(0, 0)}
            journal.record({"spec": 1, "trace": 0, "ok": True})
            journal.record({"spec": 1, "trace": 1, "ok": True})
        reloaded = CheckpointJournal(path, "fp")  # second resume
        assert set(reloaded.completed) == {(0, 0), (1, 0), (1, 1)}

    def test_unterminated_final_cell_dropped_and_truncated(self, tmp_path):
        # A cell whose newline never landed may be glued to the next
        # append; it is dropped (so the cell re-runs) and cut off.
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, "fp") as journal:
            journal.record({"spec": 0, "trace": 0, "ok": True})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"spec": 0, "trace": 1, "ok": True}))
        with CheckpointJournal(path, "fp") as journal:
            assert set(journal.completed) == {(0, 0)}
            assert path.read_bytes().endswith(b"\n")
            journal.record({"spec": 0, "trace": 1, "ok": True})
        assert set(CheckpointJournal(path, "fp").completed) == {
            (0, 0),
            (0, 1),
        }

    def test_torn_header_recovers_to_empty_journal(self, tmp_path):
        # A crash while the journal is created can tear the header; no
        # cell can precede it, so the resume starts from empty.
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, "fp") as journal:
            journal.record({"spec": 0, "trace": 0, "ok": True})
        header_line = path.read_text().split("\n")[0]
        path.write_text(header_line[: len(header_line) // 2])
        with CheckpointJournal(path, "fp") as journal:
            assert journal.completed == {}
            journal.record({"spec": 0, "trace": 0, "ok": True})
        assert set(CheckpointJournal(path, "fp").completed) == {(0, 0)}

    def test_foreign_record_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CheckpointJournal(path, "fp") as journal:
            journal.record({"spec": 0, "trace": 0, "ok": True})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"foo": 1}\n')
            handle.write(
                json.dumps({"spec": 1, "trace": 0, "ok": True}) + "\n"
            )
        with pytest.raises(CheckpointError, match="corrupt"):
            CheckpointJournal(path, "fp")


FIXTURE = Path(__file__).parent / "fixtures" / "checkpoint-v1.jsonl"


class TestOnDiskCompat:
    """A journal written by an earlier release (2 specs x 2 traces of
    ``standard_traces(VT, n_traces=2, n_requests=8, master_seed=5)``)
    must keep loading: same header bytes, same records, same
    fingerprint."""

    @pytest.fixture
    def journal_copy(self, tmp_path):
        path = tmp_path / FIXTURE.name
        path.write_bytes(FIXTURE.read_bytes())
        return path

    @staticmethod
    def _matrix():
        scale = HarnessScale(n_traces=2, n_requests=8, master_seed=5)
        return standard_platform(), standard_traces(DeadlineGroup.VT, scale)

    def test_fingerprint_rebuilds_from_the_same_inputs(self):
        platform, traces = self._matrix()
        header = json.loads(FIXTURE.read_text().splitlines()[0])
        assert header["magic"] == "repro-checkpoint-v1"
        assert header["fingerprint"] == compute_fingerprint(
            platform, _specs(), traces
        )

    def test_loads_every_cell_unchanged(self, journal_copy):
        platform, traces = self._matrix()
        lines = FIXTURE.read_text().splitlines()
        journal = CheckpointJournal(
            journal_copy, compute_fingerprint(platform, _specs(), traces)
        )
        assert journal.completed == {
            (cell["spec"], cell["trace"]): cell
            for cell in map(json.loads, lines[1:])
        }
        assert set(journal.completed) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        journal.close()
        assert journal_copy.read_bytes() == FIXTURE.read_bytes()

    def test_resume_executes_nothing(self, journal_copy):
        platform, traces = self._matrix()
        calls: list[tuple] = []
        resumed = run_matrix(
            traces,
            platform,
            _specs(),
            progress=lambda *args: calls.append(args),
            checkpoint=str(journal_copy),
        )
        assert calls == []
        cells = [json.loads(line) for line in FIXTURE.read_text().splitlines()[1:]]
        for index, spec in enumerate(_specs()):
            assert resumed[spec.label].normalized_energies == [
                float.fromhex(cell["energy_hex"])
                for cell in cells
                if cell["spec"] == index
            ]


class TestRunMatrixCheckpoint:
    def test_checkpoint_rejects_keep_results(self, matrix, tmp_path):
        platform, traces = matrix
        with pytest.raises(ValueError, match="keep_results"):
            run_matrix(
                traces,
                platform,
                _specs(),
                keep_results=True,
                parallel=1,
                checkpoint=str(tmp_path / "j.jsonl"),
            )

    def test_completed_journal_executes_nothing(self, matrix, tmp_path):
        platform, traces = matrix
        path = str(tmp_path / "j.jsonl")
        reference = run_matrix(traces, platform, _specs(), parallel=2)
        first = run_matrix(
            traces,
            platform,
            _specs(),
            parallel=2,
            checkpoint=path,
        )
        _assert_bit_identical(first, reference)
        calls: list[tuple] = []
        second = run_matrix(
            traces,
            platform,
            _specs(),
            parallel=2,
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
            parallel=2,
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
            parallel=2,
            progress=lambda *args: calls.append(args),
            checkpoint=str(partial_path),
        )
        total = len(_specs()) * len(traces)
        assert len(calls) == total - 2  # only the incomplete cells ran
        _assert_bit_identical(resumed, reference)

    def test_in_process_checkpoint_resumes(self, matrix, tmp_path):
        platform, traces = matrix
        reference = run_matrix(traces, platform, _specs())
        full_path = tmp_path / "full.jsonl"
        run_matrix(traces, platform, _specs(), checkpoint=str(full_path))
        # keep the header and the first two completed cells
        lines = full_path.read_text().splitlines()
        partial_path = tmp_path / "partial.jsonl"
        partial_path.write_text("\n".join(lines[:3]) + "\n")
        calls: list[tuple] = []
        resumed = run_matrix(
            traces,
            platform,
            _specs(),
            parallel=None,
            progress=lambda *args: calls.append(args),
            checkpoint=str(partial_path),
        )
        total = len(_specs()) * len(traces)
        assert len(calls) == total - 2  # only the incomplete cells ran
        _assert_bit_identical(resumed, reference)

    def test_repeated_tears_resume_bit_identically(self, matrix, tmp_path):
        platform, traces = matrix
        reference = run_matrix(traces, platform, _specs())
        path = tmp_path / "j.jsonl"
        run_matrix(traces, platform, _specs(), checkpoint=str(path))
        # A crash mid-append of the third cell, then one mid-append of
        # the last cell of the resumed run.
        for torn_line in (3, -1):
            _tear_line(path, torn_line)
            resumed = run_matrix(
                traces, platform, _specs(), checkpoint=str(path)
            )
            _assert_bit_identical(resumed, reference)


def _tear_line(path: Path, index: int) -> None:
    """Keep the journal's lines before ``index`` and half of that line."""
    lines = path.read_text().splitlines(keepends=True)
    torn = lines[index]
    kept = lines[: index % len(lines)]
    path.write_text("".join(kept) + torn[: len(torn) // 2])


_KILL_SCRIPT = textwrap.dedent(
    """
    import os
    import signal
    import sys

    from repro.experiments.common import standard_platform, standard_traces
    from repro.experiments.config import HarnessScale
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
        parallel=1,
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

        reference = run_matrix(traces, platform, _specs(), parallel=1)
        calls: list[tuple] = []
        resumed = run_matrix(
            traces,
            platform,
            _specs(),
            parallel=1,
            progress=lambda *args: calls.append(args),
            checkpoint=str(path),
        )
        # only the incomplete cells re-executed...
        assert len(calls) == total - completed
        # ...and the aggregates match an uninterrupted run bit-for-bit
        _assert_bit_identical(resumed, reference)

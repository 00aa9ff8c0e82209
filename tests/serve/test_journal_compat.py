"""On-disk compatibility of the write-ahead admission journal.

``fixtures/serve-journal-v1.ndjson`` was written by an earlier release:
six admits (one per task of a five-task catalog with accelerator-
incompatible rows, so ``inf`` WCETs reach the fingerprint) and one
snapshot.  It must keep loading, fingerprint-checked, and replay to the
engine state its snapshot recorded.
"""

import json
from pathlib import Path

import pytest

from repro.model.platform import Platform
from repro.serve.journal import (
    SERVE_JOURNAL_MAGIC,
    AdmissionJournal,
    load_journal_records,
    service_fingerprint,
)
from repro.serve.server import AdmissionServer
from repro.workload.taskgen import TaskSetConfig, generate_task_set

from tests.serve.test_server import replay_config

FIXTURE = Path(__file__).parent / "fixtures" / "serve-journal-v1.ndjson"


@pytest.fixture
def journal_copy(tmp_path):
    path = tmp_path / FIXTURE.name
    path.write_bytes(FIXTURE.read_bytes())
    return path


def _service(journal_path=None):
    platform = Platform.cpu_gpu(n_cpus=2, n_gpus=1)
    tasks = generate_task_set(
        platform, TaskSetConfig(n_tasks=5, accel_incompatible_fraction=0.4)
    )
    config = replay_config(
        journal_path=journal_path, journal_fsync=False, snapshot_every=6
    )
    return platform, tasks, config


def _fixture_lines() -> list[dict]:
    return [json.loads(line) for line in FIXTURE.read_text().splitlines()]


def test_fingerprint_rebuilds_from_the_same_inputs():
    platform, tasks, config = _service()
    assert any(cost == float("inf") for task in tasks for cost in task.wcet)
    header = _fixture_lines()[0]
    assert header["magic"] == SERVE_JOURNAL_MAGIC
    assert header["fingerprint"] == service_fingerprint(
        platform, tasks, config, strategy="heuristic", predictor="off"
    )


def test_loads_every_record_unchanged(journal_copy):
    header, *records = _fixture_lines()
    with AdmissionJournal(
        journal_copy, header["fingerprint"], fsync=False
    ) as journal:
        assert journal.records == records
        assert journal.next_seq == 6
    assert [r["k"] for r in records] == ["i", "d"] * 6 + ["snap"]
    assert load_journal_records(journal_copy) == records
    assert journal_copy.read_bytes() == FIXTURE.read_bytes()


def test_replays_to_the_recorded_snapshot(journal_copy):
    platform, tasks, config = _service(str(journal_copy))
    server = AdmissionServer(platform, "heuristic", tasks=tasks, config=config)
    assert server.recovery is not None
    assert server.recovery.ok
    assert server.recovery.decisions == 6
    assert server.recovery.snapshots_checked == 1
    snapshot = _fixture_lines()[-1]
    assert server.engine.fingerprint() == snapshot["engine_fingerprint"]
    assert journal_copy.read_bytes() == FIXTURE.read_bytes()

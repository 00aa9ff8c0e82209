"""Write-ahead admission journal and crash recovery (DESIGN.md §15).

Unit coverage of :mod:`repro.serve.journal` (format, torn-tail
tolerance, fingerprint discipline, pending-queue ordering) plus
socket-level recovery: a server restarted over its journal must land on
the exact pre-crash engine state, bit for bit.
"""

import json

import pytest

from repro.faults.serve import JournalFault, ServeFaultPlan
from repro.model.platform import Platform
from repro.serve.journal import (
    SERVE_JOURNAL_MAGIC,
    AdmissionJournal,
    ServeJournalError,
    load_journal_records,
    service_fingerprint,
)
from repro.serve.server import AdmissionServer, ServeConfig, recover_engine
from repro.workload.taskgen import TaskSetConfig, generate_task_set

from tests.serve.test_server import ServerHarness, replay_config


def make_journal(path, fingerprint="fp", **kwargs):
    kwargs.setdefault("fsync", False)
    return AdmissionJournal(str(path), fingerprint, **kwargs)


class TestFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.ndjson"
        with make_journal(path) as journal:
            assert journal.append_intent(0, {"tenant": "t0"})
            assert journal.append_outcome(0, 1.5, {"status": "accepted"})
            assert journal.append_shed(1, "t0", {"status": "shed"})
        reloaded = make_journal(path)
        kinds = [record["k"] for record in reloaded.records]
        assert kinds == ["i", "d", "s"]
        assert reloaded.next_seq == 2
        # The arrival is hex-encoded for a bit-exact round trip.
        assert reloaded.records[1]["arrival"] == (1.5).hex()

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "j.ndjson"
        with make_journal(path) as journal:
            journal.append_intent(0, {})
        with make_journal(path) as journal:
            journal.append_intent(1, {})
        lines = path.read_text().strip().split("\n")
        headers = [
            line for line in lines
            if json.loads(line).get("magic") == SERVE_JOURNAL_MAGIC
        ]
        assert len(headers) == 1

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "j.ndjson"
        with make_journal(path) as journal:
            journal.append_intent(0, {})
            journal.append_outcome(0, 0.0, {"status": "rejected"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"k": "i", "seq": 1, "fra')  # crash mid-write
        reloaded = make_journal(path)
        assert len(reloaded.records) == 2
        assert reloaded.next_seq == 1

    def test_append_after_torn_tail_survives_second_restart(self, tmp_path):
        """Recovery must truncate the torn bytes off the file: append
        mode would otherwise concatenate the first post-recovery record
        onto them, and the *second* restart would refuse the journal as
        corrupt (torn line followed by valid records)."""
        path = tmp_path / "j.ndjson"
        with make_journal(path) as journal:
            journal.append_intent(0, {})
            journal.append_outcome(0, 0.0, {"status": "rejected"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"k": "i", "seq": 1, "fra')  # crash mid-write
        with make_journal(path) as journal:  # first restart: recover
            assert len(journal.records) == 2
            assert journal.append_intent(journal.next_seq, {"tenant": "t"})
        reloaded = make_journal(path)  # second restart must still load
        assert [(r["k"], r["seq"]) for r in reloaded.records] == [
            ("i", 0), ("d", 0), ("i", 1),
        ]
        reloaded.close()

    def test_unterminated_record_dropped_and_truncated(self, tmp_path):
        # A record whose newline never reached the file was never
        # acknowledged (append returns after the full line): drop it
        # and truncate back to the last line boundary.
        path = tmp_path / "j.ndjson"
        with make_journal(path) as journal:
            journal.append_intent(0, {})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"k": "i", "seq": 1, "frame": {}}))
        reloaded = make_journal(path)
        assert len(reloaded.records) == 1
        assert reloaded.next_seq == 1
        assert path.read_bytes().endswith(b"\n")
        reloaded.close()

    def test_torn_header_recovers_to_empty_journal(self, tmp_path):
        # A crash during journal creation can tear the header itself;
        # no record can precede it, so recovery restarts from empty.
        path = tmp_path / "j.ndjson"
        with make_journal(path) as journal:
            journal.append_intent(0, {})
        header_line = path.read_text().split("\n")[0]
        path.write_text(header_line[: len(header_line) // 2])
        with make_journal(path) as journal:
            assert journal.records == []
            assert journal.append_intent(0, {"tenant": "t"})
        assert [r["k"] for r in load_journal_records(path)] == ["i"]

    def test_unterminated_full_header_recovers(self, tmp_path):
        path = tmp_path / "j.ndjson"
        header = json.dumps(
            {"magic": SERVE_JOURNAL_MAGIC, "fingerprint": "fp"},
            sort_keys=True,
        )
        path.write_text(header)  # complete header, newline never landed
        with make_journal(path) as journal:
            assert journal.records == []
            assert journal.append_intent(0, {})
        assert [r["k"] for r in load_journal_records(path)] == ["i"]

    def test_torn_line_of_foreign_file_refuses(self, tmp_path):
        # An unterminated first line that is not a prefix of *our*
        # header is some other file, not a torn journal: never truncate.
        path = tmp_path / "j.ndjson"
        path.write_text('{"some": "other file')
        with pytest.raises(ServeJournalError, match="not a"):
            make_journal(path)
        assert path.read_text() == '{"some": "other file'

    def test_corrupt_line_followed_by_unterminated_valid_refuses(
        self, tmp_path
    ):
        # Two writes landed after the garbage: that is real corruption,
        # not a torn tail, even though the last line is unterminated.
        path = tmp_path / "j.ndjson"
        with make_journal(path) as journal:
            journal.append_intent(0, {})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('!garbage!\n{"k": "i", "seq": 1, "frame": {}}')
        with pytest.raises(ServeJournalError, match="corrupt"):
            make_journal(path)

    def test_corrupt_line_followed_by_valid_refuses(self, tmp_path):
        path = tmp_path / "j.ndjson"
        with make_journal(path) as journal:
            journal.append_intent(0, {})
        lines = path.read_text().split("\n")
        lines.insert(1, "!garbage!")
        path.write_text("\n".join(lines))
        with pytest.raises(ServeJournalError, match="corrupt"):
            make_journal(path)

    def test_fingerprint_mismatch_refuses(self, tmp_path):
        path = tmp_path / "j.ndjson"
        with make_journal(path, fingerprint="aaa") as journal:
            journal.append_intent(0, {})
        with pytest.raises(ServeJournalError, match="different service"):
            make_journal(path, fingerprint="bbb")

    def test_not_a_journal_refuses(self, tmp_path):
        path = tmp_path / "j.ndjson"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(ServeJournalError, match="not a"):
            make_journal(path)
        with pytest.raises(ServeJournalError, match="not a"):
            load_journal_records(path)

    def test_load_journal_records_uses_header_fingerprint(self, tmp_path):
        path = tmp_path / "j.ndjson"
        with make_journal(path, fingerprint="xyz") as journal:
            journal.append_intent(0, {"tenant": "t"})
        records = load_journal_records(path)
        assert [record["k"] for record in records] == ["i"]


class TestServiceFingerprint:
    def setup_method(self):
        self.platform = Platform.cpu_gpu(n_cpus=2, n_gpus=1)
        self.tasks = generate_task_set(
            self.platform, TaskSetConfig(n_tasks=3)
        )

    def test_decision_relevant_config_changes_it(self):
        base = service_fingerprint(
            self.platform, self.tasks, ServeConfig(mode="replay")
        )
        changed = service_fingerprint(
            self.platform,
            self.tasks,
            ServeConfig(mode="replay", queue_depth=7),
        )
        assert base != changed

    def test_socket_knobs_do_not_change_it(self):
        base = service_fingerprint(
            self.platform, self.tasks, ServeConfig(mode="replay", port=0)
        )
        moved = service_fingerprint(
            self.platform,
            self.tasks,
            ServeConfig(mode="replay", port=9999, journal_fsync=False),
        )
        assert base == moved

    def test_catalog_changes_it(self):
        base = service_fingerprint(
            self.platform, self.tasks, ServeConfig(mode="replay")
        )
        shorter = service_fingerprint(
            self.platform, self.tasks[:-1], ServeConfig(mode="replay")
        )
        assert base != shorter

    def test_strategy_label_changes_it(self):
        base = service_fingerprint(
            self.platform, self.tasks, ServeConfig(), strategy="heuristic"
        )
        other = service_fingerprint(
            self.platform, self.tasks, ServeConfig(), strategy="milp"
        )
        assert base != other


class TestPendingQueue:
    def test_write_failure_queues_then_drains_in_order(self, tmp_path):
        path = tmp_path / "j.ndjson"
        failing = {"on": False}
        journal = make_journal(
            path, fault_hook=lambda record: failing["on"]
        )
        assert journal.append_intent(0, {"tenant": "t"})
        failing["on"] = True
        assert not journal.append_outcome(0, 1.0, {"status": "accepted"})
        assert journal.pending_records == 1
        assert journal.write_errors == 1
        failing["on"] = False
        # The next append drains the queue first — file order must stay
        # mutation order.
        assert journal.append_intent(1, {"tenant": "t"})
        journal.close()
        records = load_journal_records(path)
        assert [(r["k"], r["seq"]) for r in records] == [
            ("i", 0), ("d", 0), ("i", 1),
        ]

    def test_intent_not_queued_when_durability_required(self, tmp_path):
        journal = make_journal(
            tmp_path / "j.ndjson", fault_hook=lambda record: True
        )
        assert not journal.append_intent(0, {})
        assert journal.pending_records == 0
        assert journal.write_errors == 1

    def test_close_drains_pending(self, tmp_path):
        path = tmp_path / "j.ndjson"
        failing = {"on": False}
        journal = make_journal(
            path, fault_hook=lambda record: failing["on"]
        )
        journal.append_intent(0, {})
        failing["on"] = True
        journal.append_outcome(0, 0.0, {"status": "rejected"})
        failing["on"] = False
        journal.close()
        assert [r["k"] for r in load_journal_records(path)] == ["i", "d"]


class TestFaultHookKeying:
    def test_window_keyed_on_append_attempts_not_record_seq(self):
        """A queued record retries with its seq frozen: keying the
        fault window on that seq would wedge the pending queue forever.
        The hook must burn a fresh append-attempt ordinal per call so a
        bounded window always clears."""
        plan = ServeFaultPlan(journal_faults=(JournalFault(start=0, end=2),))
        platform = Platform.cpu_gpu(n_cpus=2, n_gpus=1)
        tasks = generate_task_set(platform, TaskSetConfig(n_tasks=3))
        server = AdmissionServer(
            platform,
            "heuristic",
            tasks=tasks,
            config=replay_config(),
            fault_plan=plan,
        )
        record = {"k": "s", "seq": 0}
        assert server._journal_fault_hook(record)
        assert server._journal_fault_hook(record)
        # Third attempt of the *same* record exits the [0, 2) window.
        assert not server._journal_fault_hook(record)


class TestDispatcherResilience:
    def test_raising_fault_hook_does_not_kill_dispatcher(self, tmp_path):
        """A fault hook may raise (its documented contract) and a
        non-OSError escapes the journal's OSError handling: the
        dispatcher must answer internal-error and keep serving instead
        of dying silently and hanging every later admit."""
        config = replay_config(
            journal_path=str(tmp_path / "j.ndjson"), journal_fsync=False
        )
        with ServerHarness(config) as harness:
            with harness.client() as client:
                first = client.admit(
                    "t0", task=0, deadline=1000.0, arrival=0.0
                )
                assert first["ok"] is True
                assert harness.server is not None
                journal = harness.server._journal
                assert journal is not None

                def hook(record: dict) -> bool:
                    raise ValueError("non-OSError from fault hook")

                journal.fault_hook = hook
                broken = client.admit(
                    "t0", task=0, deadline=1000.0, arrival=1.0
                )
                assert broken["ok"] is False
                assert broken["error"] == "internal-error"
                journal.fault_hook = None
                after = client.admit(
                    "t0", task=0, deadline=1000.0, arrival=2.0
                )
                assert after["ok"] is True


class RecoveryHarness(ServerHarness):
    """A journaled server plus the pieces to restart it."""

    def restart_server(self) -> AdmissionServer:
        return AdmissionServer(
            self.platform,
            self.strategy,
            self.predictor,
            tasks=self.tasks,
            config=self.config,
        )


class TestRecovery:
    def journaled_config(self, tmp_path, **kwargs):
        kwargs.setdefault("journal_path", str(tmp_path / "j.ndjson"))
        kwargs.setdefault("journal_fsync", False)
        kwargs.setdefault("snapshot_every", 4)
        return replay_config(**kwargs)

    def test_restart_lands_on_bit_identical_state(self, tmp_path):
        config = self.journaled_config(tmp_path)
        with RecoveryHarness(config) as harness:
            with harness.client() as client:
                for i in range(10):
                    client.admit(
                        f"t{i % 2}", task=0, deadline=1000.0,
                        arrival=float(i), idem=f"k{i}",
                    )
                live = client.stats()
        restarted = harness.restart_server()
        assert restarted.recovery is not None
        assert restarted.recovery.ok
        assert restarted.recovery.decisions == 10
        assert restarted.recovery.snapshots_checked == 2
        assert restarted.engine.fingerprint() == live["fingerprint"]
        assert restarted.engine.depository.snapshot() == live["depository"]

    def test_restart_rebuilds_idempotency_map(self, tmp_path):
        config = self.journaled_config(tmp_path)
        with RecoveryHarness(config) as harness:
            with harness.client() as client:
                original = client.admit(
                    "t0", task=0, deadline=1000.0, arrival=0.0, idem="key"
                )
        restarted = harness.restart_server()
        assert restarted.recovery is not None
        cached = restarted.recovery.idempotency["key"]
        assert cached["status"] == original["status"]
        assert cached["job_id"] == original["job_id"]

    def test_unacked_intent_is_redecided_and_journaled(self, tmp_path):
        config = self.journaled_config(tmp_path)
        with RecoveryHarness(config) as harness:
            with harness.client() as client:
                client.admit(
                    "t0", task=0, deadline=1000.0, arrival=0.0, idem="k0"
                )
        # Simulate a crash between intent and outcome: append a bare
        # intent by hand (the torn operation).
        fingerprint = json.loads(
            open(config.journal_path, encoding="utf-8").readline()
        )["fingerprint"]
        with AdmissionJournal(
            config.journal_path, fingerprint, fsync=False
        ) as journal:
            journal.append_intent(
                journal.next_seq,
                {
                    "tenant": "t0", "task": 0, "deadline": 1000.0,
                    "arrival": 5.0, "idem": "k-unacked",
                },
            )
        restarted = harness.restart_server()
        assert restarted.recovery is not None
        assert restarted.recovery.unacked == 1
        # The re-decision was journaled, so a second restart replays it
        # in order and agrees bit for bit.
        again = harness.restart_server()
        assert again.recovery is not None
        assert again.recovery.unacked == 0
        assert again.recovery.decisions == 2
        assert again.engine.fingerprint() == restarted.engine.fingerprint()
        # And the unacked decision's idempotency key was recovered.
        assert "k-unacked" in restarted.recovery.idempotency

    def test_tampered_journal_diverges_strictly(self, tmp_path):
        config = self.journaled_config(tmp_path)
        with RecoveryHarness(config) as harness:
            with harness.client() as client:
                client.admit("t0", task=0, deadline=1000.0, arrival=0.0)
        lines = open(config.journal_path, encoding="utf-8").read()
        tampered = lines.replace('"status": "accepted"', '"status": "rejected"')
        assert tampered != lines
        with open(config.journal_path, "w", encoding="utf-8") as handle:
            handle.write(tampered)
        with pytest.raises(ServeJournalError, match="recorded"):
            harness.restart_server()

    def test_lenient_recovery_collects_mismatches(self, tmp_path):
        platform = Platform.cpu_gpu(n_cpus=2, n_gpus=1)
        tasks = generate_task_set(platform, TaskSetConfig(n_tasks=3))
        engine = AdmissionServer(
            platform, "heuristic", tasks=tasks, config=replay_config()
        ).engine
        records = [
            {"k": "d", "seq": 0, "arrival": (0.0).hex(), "response": {}},
        ]
        report = recover_engine(engine, records, strict=False)
        assert not report.ok
        assert "without intent" in report.mismatches[0]

    def test_different_config_refuses_the_journal(self, tmp_path):
        config = self.journaled_config(tmp_path)
        with RecoveryHarness(config) as harness:
            with harness.client() as client:
                client.admit("t0", task=0, deadline=1000.0, arrival=0.0)
        changed = self.journaled_config(tmp_path, queue_depth=7)
        with pytest.raises(ServeJournalError, match="different service"):
            AdmissionServer(
                harness.platform,
                "heuristic",
                tasks=harness.tasks,
                config=changed,
            )

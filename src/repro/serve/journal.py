"""Write-ahead admission journal (crash-safe live service, DESIGN.md §15).

The live daemon's engine state is a deterministic fold over the totally
ordered stream of dispatched operations.  Persisting that stream — and
nothing else — is therefore enough to survive a SIGKILL: a restarted
server replays the journal through a fresh :class:`AdmissionEngine` and
lands on the exact pre-crash state (bit-identical engine fingerprint in
replay mode; in live mode the *engine* state is still exact because
journaled records carry the server-stamped arrival, while the
:class:`~repro.serve.clock.WallClock` itself restarts — the bounded
divergence documented in §15).

Records (one JSON object per line, after the
:class:`~repro.util.journal.Journal` header, whose fingerprint is
:func:`service_fingerprint`):

* intent — ``{"k": "i", "seq": n, "frame": {...}}`` appended *before*
  the engine decides (the "write-ahead" half: a crash between intent
  and outcome re-decides the frame on replay, which is safe because the
  client never saw a response).
* outcome — ``{"k": "d", "seq": n, "arrival": <float.hex>,
  "response": {...}}`` appended after the decision and *before* the
  response is externalised (commit-before-reply: every acknowledged
  decision is durable).
* shed — ``{"k": "s", "seq": n, "tenant": ..., "status": ...}`` for
  queue-shed refusals, which mutate the engine without running the
  solver and so must be replayed in order too.
* snapshot — ``{"k": "snap", "seq": n, "engine_fingerprint": ...,
  "metrics": {...}, "depository": {...}}`` every ``snapshot_every``
  decisions.  Snapshots are *verification waypoints*, not truncation
  points: online predictor state is a fold over the full request log,
  so recovery always replays from genesis and asserts each recorded
  fingerprint along the way.

Write failures never kill the service: a record that cannot be
appended is queued in memory and re-appended (in order) before any
later record; the affected response is flagged ``"durable": false``.
Only *intent* appends are load-bearing for safety: a failed intent is
not queued, and the server refuses the operation with the
``journal-failed`` error code instead of deciding undurably.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Callable, Sequence

from repro.model.platform import Platform
from repro.model.task import TaskType
from repro.serve.depository import REPROVISION_COOLDOWN
from repro.util.journal import Journal

__all__ = [
    "AdmissionJournal",
    "JournalStats",
    "RECORD_KINDS",
    "SERVE_JOURNAL_MAGIC",
    "ServeJournalError",
    "load_journal_records",
    "service_fingerprint",
]

SERVE_JOURNAL_MAGIC = "repro-serve-journal-v1"

#: Record kinds a journal line may carry (beyond the header).
RECORD_KINDS = frozenset({"i", "d", "s", "snap"})


class ServeJournalError(RuntimeError):
    """The journal cannot be used (wrong service, corrupt body, or a
    replay that diverged from the recorded decisions)."""


def service_fingerprint(
    platform: Platform,
    tasks: Sequence[TaskType],
    config: object,
    *,
    strategy: str = "",
    predictor: str = "",
) -> str:
    """Digest the service identity a journal belongs to.

    Covers the platform layout, the full task catalog (``float.hex``
    encoded, so numerically different catalogs never collide on
    rounding), the decision-relevant :class:`ServeConfig` fields, the
    reprovision cooldown, and the strategy/predictor labels.  Socket-level knobs (host, port,
    fsync cadence) are deliberately excluded: moving a journal to a new
    port is a restart, not a different service.
    """
    digest = sha256()
    digest.update(repr(platform).encode())
    for task in tasks:
        digest.update(f"|task:{task.type_id}:{task.name}:".encode())
        digest.update(",".join(float(c).hex() for c in task.wcet).encode())
        digest.update(b";")
        digest.update(",".join(float(e).hex() for e in task.energy).encode())
        for row in task.migration_time:
            digest.update(b"|mt:" + ",".join(float(v).hex() for v in row).encode())
        for row in task.migration_energy:
            digest.update(b"|me:" + ",".join(float(v).hex() for v in row).encode())
    for name in (
        "mode",
        "queue_depth",
        "tenant_quota",
        "lookahead",
        "charge_unstarted_migration",
        "error_window",
        "error_threshold",
        "min_observations",
    ):
        digest.update(f"|{name}:{getattr(config, name, None)!r}".encode())
    # The cooldown is a constant now; hashed under its former config
    # field name so headers written before keep matching.
    digest.update(f"|reprovision_cooldown:{REPROVISION_COOLDOWN!r}".encode())
    overhead = getattr(config, "prediction_overhead", 0.0)
    digest.update(f"|prediction_overhead:{float(overhead).hex()}".encode())
    digest.update(f"|strategy:{strategy}|predictor:{predictor}".encode())
    return digest.hexdigest()


@dataclass
class JournalStats:
    """Observable journal health (served under the ``stats`` op)."""

    path: str
    records: int = 0
    pending: int = 0
    write_errors: int = 0
    last_seq: int = -1

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "records": self.records,
            "pending": self.pending,
            "write_errors": self.write_errors,
            "last_seq": self.last_seq,
        }


@dataclass
class _PendingRecord:
    record: dict
    attempts: int = field(default=0)


class AdmissionJournal(Journal):
    """Append-only write-ahead journal of one live service's operations.

    Parameters
    ----------
    path:
        Journal file; created (with header) on first append, loaded and
        fingerprint-checked when it already exists.
    fingerprint:
        The :func:`service_fingerprint` of the service opening the
        journal; a mismatch against an existing header refuses to open.
    fsync:
        Whether every append is fsynced (durability against power loss,
        not just process death).  The chaos harness keeps it on.
    fault_hook:
        Test/chaos shim: called with each record about to be written;
        returning ``True`` (or raising) injects a write failure.  Wired
        from :class:`repro.faults.ServeFaultPlan` journal-fault windows.
    """

    magic = SERVE_JOURNAL_MAGIC
    error = ServeJournalError
    owner = "service (platform/catalog/config changed)"

    def __init__(
        self,
        path: str | os.PathLike[str],
        fingerprint: str,
        *,
        fsync: bool = True,
        fault_hook: Callable[[dict], bool] | None = None,
    ) -> None:
        super().__init__(path, fingerprint, fsync=fsync)
        self.fault_hook = fault_hook
        self.write_errors = 0
        self._pending: deque[_PendingRecord] = deque()
        self.records = self._load()
        seqs = [r["seq"] for r in self.records if isinstance(r.get("seq"), int)]
        self._last_seq: int = max([-1, *seqs])

    @staticmethod
    def _is_record(record: dict) -> bool:
        return record.get("k") in RECORD_KINDS

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The sequence number the next operation should use."""
        return self._last_seq + 1

    @property
    def pending_records(self) -> int:
        """Records waiting for a successful re-append."""
        return len(self._pending)

    def append_intent(self, seq: int, frame_payload: dict) -> bool:
        """Write-ahead half of one admit op.

        Not queued on failure: the server refuses the op, and queueing
        the intent would later journal an operation that never executed.
        """
        return self._append(
            {"k": "i", "seq": seq, "frame": frame_payload},
            queue_on_failure=False,
        )

    def append_outcome(
        self, seq: int, arrival: float, response_payload: dict
    ) -> bool:
        """Commit half: the decision, keyed by the stamped arrival."""
        record = {
            "k": "d",
            "seq": seq,
            "arrival": float(arrival).hex(),
            "response": response_payload,
        }
        return self._append(record)

    def append_shed(
        self, seq: int, tenant: str, response_payload: dict
    ) -> bool:
        return self._append(
            {
                "k": "s",
                "seq": seq,
                "tenant": tenant,
                "response": response_payload,
            }
        )

    def append_snapshot(
        self,
        seq: int,
        engine_fingerprint: str,
        *,
        metrics: dict,
        depository: dict,
    ) -> bool:
        return self._append(
            {
                "k": "snap",
                "seq": seq,
                "engine_fingerprint": engine_fingerprint,
                "metrics": metrics,
                "depository": depository,
            }
        )

    def _append(self, record: dict, *, queue_on_failure: bool = True) -> bool:
        seq = record.get("seq")
        if isinstance(seq, int) and seq > self._last_seq:
            self._last_seq = seq
        if not self._drain_pending():
            # Order must be preserved: nothing may overtake a queued
            # record, so the new one queues (or fails) too.
            return self._note_failure(record, queue_on_failure)
        try:
            self._write(record)
        except OSError:
            return self._note_failure(record, queue_on_failure)
        self.records.append(record)
        return True

    def _note_failure(self, record: dict, queue_on_failure: bool) -> bool:
        self.write_errors += 1
        if queue_on_failure:
            self._pending.append(_PendingRecord(record))
        return False

    def _drain_pending(self) -> bool:
        """Re-append queued records in order; True when the queue is empty."""
        while self._pending:
            head = self._pending[0]
            head.attempts += 1
            try:
                self._write(head.record)
            except OSError:
                return False
            self.records.append(head.record)
            self._pending.popleft()
        return True

    def _write(self, record: dict) -> None:
        if self.fault_hook is not None and self.fault_hook(record):
            raise OSError("injected journal fault")
        super()._write(record)

    # ------------------------------------------------------------------
    # Reporting / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> JournalStats:
        return JournalStats(
            path=self.path,
            records=len(self.records),
            pending=len(self._pending),
            write_errors=self.write_errors,
            last_seq=self._last_seq,
        )

    def close(self) -> None:
        self._drain_pending()
        super().close()


def load_journal_records(path: str | os.PathLike[str]) -> list[dict]:
    """Read a journal's records without fingerprint knowledge (tooling:
    ``repro chaos`` reads the header's own fingerprint first)."""
    with open(path, "rb") as handle:
        header = AdmissionJournal._parse(handle.readline()) or {}
    with AdmissionJournal(path, str(header.get("fingerprint"))) as journal:
        return journal.records

"""Journal-based experiment checkpointing (crash-safe resume).

A matrix run that dies hours in — machine reboot, OOM kill, ctrl-C —
should not cost the cells that already finished.
:func:`~repro.experiments.runner.run_matrix` can be given a checkpoint
path (``run_matrix(..., checkpoint=...)``), at any worker count; it then
appends one line per finished cell to an append-only
:class:`~repro.util.journal.Journal`, flushed as written, so a killed
run can be restarted with the same arguments and the same journal and
will re-execute only the incomplete cells.

The header's fingerprint (:func:`compute_fingerprint`) digests the
platform, each spec's label, strategy and predictor identity and
simulator config, and the traces; a resume against a journal from a
*different* matrix is refused.  Each record is exactly the cell record
:meth:`~repro.experiments.runner.Aggregate.fold` consumes:
``{"spec": i, "trace": j, "rejection_hex": ..., "energy_hex": ...,
"wall_time": ..., "solver_calls": ..., "verified": ..., "metrics": ...}``
(``metrics`` only when collected).  The two metrics are stored as
``float.hex()`` so resumed aggregates are **bit-identical** to an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import os
import types
from typing import Any, Sequence

from repro.experiments.runner import RunSpec
from repro.model.platform import Platform
from repro.util.journal import Journal
from repro.workload.trace import Trace

__all__ = ["CheckpointError", "CheckpointJournal"]


class CheckpointError(RuntimeError):
    """The journal cannot be used (wrong format or wrong matrix)."""


def compute_fingerprint(
    platform: Platform,
    specs: Sequence[RunSpec],
    traces: Sequence[Trace],
) -> str:
    """Digest the matrix identity a journal belongs to.

    Covers the platform layout, every spec's label, strategy and
    predictor identity (see :func:`_factory_identity`) and simulator
    config, and every trace's full request stream (``float.hex``
    encoded, so two numerically different matrices never collide on
    rounding).
    """
    digest = hashlib.sha256()
    digest.update(repr(platform).encode())
    for spec in specs:
        strategy = _factory_identity(spec.label, spec.strategy)
        predictor = _factory_identity(spec.label, spec.predictor)
        digest.update(
            f"|spec:{spec.label}:{strategy}:{predictor}:"
            f"{spec.sim_config!r}".encode()
        )
    for trace in traces:
        digest.update(f"|trace:{trace.group}:{trace.seed}:".encode())
        for request in trace:
            digest.update(
                (
                    f"{request.arrival.hex()},{request.type_id},"
                    f"{float(request.deadline).hex()};"
                ).encode()
            )
    return digest.hexdigest()


def _factory_identity(label: str, factory: Any) -> str:
    """A run-independent name for a spec factory.

    A module-level function or class is named by ``module.qualname``; a
    factory object (e.g. the registry's factory dataclasses) by its
    ``repr``, which carries its configuration.  A factory whose identity
    would embed a memory address or a local scope — a lambda, a closure,
    an object with the default ``repr`` — is refused.
    """
    if isinstance(factory, (types.FunctionType, type)):
        identity = f"{factory.__module__}.{factory.__qualname__}"
        stable = "<" not in factory.__qualname__
    else:
        identity = repr(factory)
        stable = " at 0x" not in identity
    if not stable:
        raise ValueError(
            f"spec {label!r}: factory {identity} has no stable identity, "
            "so a checkpoint journal could not tell it apart from another "
            "— build the spec with RunSpec.from_names() or module-level "
            "factories"
        )
    return identity


class CheckpointJournal(Journal):
    """Append-only journal of finished cells for one matrix run."""

    magic = "repro-checkpoint-v1"
    error = CheckpointError
    owner = "experiment matrix (platform/specs/traces changed)"

    def __init__(self, path: str | os.PathLike[str], fingerprint: str) -> None:
        super().__init__(path, fingerprint, fsync=False)
        self._completed = {
            (entry["spec"], entry["trace"]): entry for entry in self._load()
        }

    @staticmethod
    def _is_record(record: dict) -> bool:
        return isinstance(record.get("spec"), int) and isinstance(
            record.get("trace"), int
        )

    @property
    def completed(self) -> dict[tuple[int, int], dict]:
        """``(spec_index, trace_index) -> journal entry`` already finished."""
        return dict(self._completed)

    def record(self, entry: dict) -> None:
        """Append one finished cell (idempotent per unit)."""
        unit = (entry["spec"], entry["trace"])
        if unit in self._completed:
            return
        self._write(entry)
        self._completed[unit] = entry

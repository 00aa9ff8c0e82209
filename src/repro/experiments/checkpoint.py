"""Journal-based experiment checkpointing (crash-safe resume).

A matrix run that dies hours in — machine reboot, OOM kill, ctrl-C —
should not cost the cells that already finished.
:func:`~repro.experiments.runner.run_matrix` can be given a checkpoint
path (``run_matrix(..., checkpoint=...)``), at any worker count; it then
appends one JSON line per finished cell to an append-only journal,
flushed as written, so a killed run can be restarted with the same
arguments and the same journal and will re-execute only the incomplete
cells.

Why a journal and not a snapshot: appends are atomic at the line level,
never rewrite completed work, and a torn final line (the crash happened
mid-write) is detected and dropped on load without losing the prefix.

Format (one JSON object per line):

* header — ``{"magic": "repro-checkpoint-v1", "fingerprint": ...}``; the
  fingerprint digests the platform, each spec's label, strategy and
  predictor identity and simulator config, and the traces; a resume
  against a journal from a *different* matrix is refused.
* cell — exactly the record :meth:`~repro.experiments.runner.Aggregate.fold`
  consumes: ``{"spec": i, "trace": j, "rejection_hex": ...,
  "energy_hex": ..., "wall_time": ..., "solver_calls": ...,
  "verified": ..., "metrics": ...}`` (``metrics`` only when collected).
  The two metrics are stored as ``float.hex()`` so resumed aggregates
  are **bit-identical** to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import types
from typing import IO, Any, Sequence

from repro.experiments.runner import RunSpec
from repro.model.platform import Platform
from repro.workload.trace import Trace

__all__ = ["CheckpointError", "CheckpointJournal"]

_MAGIC = "repro-checkpoint-v1"


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
                    f"{_hex(request.deadline)};"
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


def _hex(value: float) -> str:
    # float('inf').hex() exists ('inf'), but keep the encoding explicit.
    return "inf" if math.isinf(value) else value.hex()


class CheckpointJournal:
    """Append-only journal of finished cells for one matrix run."""

    def __init__(self, path: str | os.PathLike[str], fingerprint: str) -> None:
        self.path = os.fspath(path)
        self.fingerprint = fingerprint
        self._completed: dict[tuple[int, int], dict] = {}
        self._handle: IO[str] | None = None
        self._load()

    @property
    def completed(self) -> dict[tuple[int, int], dict]:
        """``(spec_index, trace_index) -> journal entry`` already finished."""
        return dict(self._completed)

    def _load(self) -> None:
        """Replay an existing journal file, tolerating a torn last line."""
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        if not lines or not lines[0].strip():
            return
        header = self._parse(lines[0])
        if header is None or header.get("magic") != _MAGIC:
            raise CheckpointError(
                f"{self.path}: not a {_MAGIC} journal"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"{self.path}: journal belongs to a different experiment "
                "matrix (platform/specs/traces changed); refusing to resume"
            )
        for position, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            entry = self._parse(line)
            if entry is None:
                # A torn line can only be the crash's final write; any
                # valid line after it means real corruption.
                remainder = lines[position:]
                if any(self._parse(rest) for rest in remainder if rest.strip()):
                    raise CheckpointError(
                        f"{self.path}:{position}: corrupt journal line "
                        "followed by valid entries"
                    )
                break
            self._completed[(entry["spec"], entry["trace"])] = entry

    @staticmethod
    def _parse(line: str) -> dict | None:
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            return None
        return entry if isinstance(entry, dict) else None

    def _open(self) -> IO[str]:
        if self._handle is None:
            needs_header = not self._has_header()
            self._handle = open(  # noqa: SIM115 - held across record calls
                self.path, "a", encoding="utf-8"
            )
            if needs_header:
                self._write(
                    {"magic": _MAGIC, "fingerprint": self.fingerprint}
                )
        return self._handle

    def _has_header(self) -> bool:
        if not os.path.exists(self.path):
            return False
        with open(self.path, encoding="utf-8") as handle:
            first = handle.readline()
        header = self._parse(first)
        return header is not None and header.get("magic") == _MAGIC

    def _write(self, entry: dict) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    def record(self, entry: dict) -> None:
        """Append one finished cell (idempotent per unit)."""
        unit = (entry["spec"], entry["trace"])
        if unit in self._completed:
            return
        self._open()
        self._write(entry)
        self._completed[unit] = entry

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

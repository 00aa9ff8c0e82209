"""Span recording around the calls into each layer of ``repro``.

The benchmark times the layers from outside the program: :func:`installed`
swaps each layer's public entry point (a method on its class, or a
function in the module that calls it) for a wrapper that records one
span, and puts the originals back on exit.  A span is the tuple
``(name, start, end, parent, rid, note)``: ``parent`` is the index of the
enclosing span (``-1`` for a root), ``rid`` the request the call belongs
to where its arguments name one, and ``note`` a per-call count (tasks in
the context, variables in the model, whether a forecast was used).
Spans are kept in memory and written out when the run ends.

Spans nest by call stack, so a span's self time is its duration minus
that of its direct children: a probe sits inside a solve, a solve inside
a decide, and no interval is counted twice.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from perfbench.common import percentile

__all__ = [
    "Layer",
    "Recorder",
    "by_layer",
    "installed",
    "layer_metrics",
    "nesting_errors",
    "read_spans",
    "self_times",
    "write_spans",
]

NAME, START, END, PARENT, RID, NOTE = range(6)

Note = Callable[[tuple, Any], Any]


class Recorder:
    """Collects the spans of every wrapper it made."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        note: Note | None = None,
        rid: Note | None = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``note`` and ``rid`` map
        ``(args, result)`` to the span's count and request id."""
        spans = self.spans
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (
                    name,
                    start,
                    end,
                    stack[-1] if stack else -1,
                    None if rid is None else rid(args, result),
                    0 if note is None else note(args, result),
                )

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced


def _forecast_use(args: tuple, outcome: Any) -> int:
    """AdmissionController.decide: 0 no forecast offered, 1 offered but
    unused (retry without it), 2 used."""
    if args[1].predicted is None:
        return 0
    return 2 if outcome is not None and outcome.used_prediction else 1


def _int_or_none(value: Any) -> int | None:
    return value if isinstance(value, int) else None


def _targets() -> list[tuple[object, str, str, Note | None, Note | None]]:
    """``(owner, attribute, span name, note, rid)`` of each traced entry
    point.  ``server.decode_frame`` / ``encode_frame`` are patched where
    the server looks them up."""
    from repro.core.admission import AdmissionController
    from repro.core.heuristic import HeuristicResourceManager
    from repro.core.milp_rm import MilpResourceManager
    from repro.milp.model import Model
    from repro.sched.timeline import Timeline
    from repro.serve import server
    from repro.serve.journal import AdmissionJournal
    from repro.sim.state import PlatformState

    def seq(args: tuple, _: Any) -> int | None:
        return _int_or_none(args[1])

    journal = [
        (AdmissionJournal, method, "journal.append", None, seq)
        for method in (
            "append_intent",
            "append_outcome",
            "append_shed",
            "append_snapshot",
        )
    ]
    return [
        (PlatformState, "advance", "sim.advance", None, None),
        (PlatformState, "active_views", "sim.views", None, None),
        (PlatformState, "apply_mapping", "sim.apply", None, None),
        (AdmissionController, "decide", "core.decide", _forecast_use, None),
        (
            HeuristicResourceManager,
            "solve",
            "heuristic.solve",
            lambda args, _: len(args[1].tasks),
            None,
        ),
        (Timeline, "probe", "sched.probe", None, None),
        (MilpResourceManager, "solve", "milp.solve", None, None),
        (
            Model,
            "solve",
            "milp.backend",
            lambda args, _: len(args[0].variables),
            None,
        ),
        (
            server.AdmissionEngine,
            "decide",
            "serve.decide",
            None,
            lambda args, _: _int_or_none(args[1].id),
        ),
        *journal,
        (
            server,
            "decode_frame",
            "wire.decode",
            None,
            lambda _, frame: _int_or_none(getattr(frame, "id", None)),
        ),
        (
            server,
            "encode_frame",
            "wire.encode",
            None,
            lambda args, _: _int_or_none(args[0].get("id")),
        ),
    ]


@contextmanager
def installed(recorder: Recorder, predictor: object = None) -> Iterator[None]:
    """Trace every layer into ``recorder`` for the duration of the block.

    ``predictor`` is the run's predictor instance; its
    ``predict_horizon`` is traced on the instance, since each predictor
    class may override it.  The constant :class:`NullPredictor` of the
    "off" configuration does no predictor work and is not traced.
    """
    from repro.predict.base import NullPredictor

    saved: list[tuple[object, str, object]] = []
    traced_predictor = predictor is not None and not isinstance(
        predictor, NullPredictor
    )
    try:
        for owner, attribute, name, note, rid in _targets():
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(
                owner,
                attribute,
                recorder.wrap(name, original, note=note, rid=rid),
            )
        if traced_predictor:
            predictor.predict_horizon = recorder.wrap(  # type: ignore[union-attr]
                "predict.call", predictor.predict_horizon  # type: ignore[union-attr]
            )
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
        if traced_predictor and "predict_horizon" in vars(predictor):
            del predictor.predict_horizon  # type: ignore[union-attr]


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus its direct children's."""
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    return [
        span[END] - span[START] - child
        for span, child in zip(spans, children, strict=True)
    ]


def nesting_errors(spans: list[tuple]) -> int:
    """Spans reaching outside their parent's interval (which would make
    the parent's self time negative, i.e. count time twice)."""
    errors = 0
    for span in spans:
        parent = span[PARENT]
        if parent >= 0 and (
            span[START] < spans[parent][START] or span[END] > spans[parent][END]
        ):
            errors += 1
    return errors


@dataclass
class Layer:
    """All spans of one name."""

    durations: list[float] = field(default_factory=list)
    selfs: list[float] = field(default_factory=list)
    notes: list[int] = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def self_s(self) -> float:
        return sum(self.selfs)


def by_layer(spans: list[tuple]) -> dict[str, Layer]:
    """Group spans by name, with their self times."""
    layers: dict[str, Layer] = {}
    for span, own in zip(spans, self_times(spans), strict=True):
        layer = layers.get(span[NAME])
        if layer is None:
            layer = layers[span[NAME]] = Layer()
        layer.durations.append(span[END] - span[START])
        layer.selfs.append(own)
        layer.notes.append(span[NOTE])
    return layers


def layer_metrics(layers: dict[str, Layer], *, passes: int) -> dict[str, float]:
    """The span-derived per-layer metrics.

    Counts are per pass over the workload's inputs (so they repeat
    exactly for one seed); self times are microseconds per admission
    decision, a decision being one ``AdmissionController.decide`` call.
    """
    empty = Layer()

    def get(name: str) -> Layer:
        return layers.get(name, empty)

    decisions = get("core.decide").calls

    def per_decision(name: str) -> float:
        return 1e6 * get(name).self_s / decisions if decisions else 0.0

    def per_pass(name: str) -> float:
        return get(name).calls / passes

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    decide, solve, milp = get("core.decide"), get("heuristic.solve"), get("milp.solve")
    backend = get("milp.backend")
    offered = sum(1 for note in decide.notes if note)
    used = sum(1 for note in decide.notes if note == 2)
    return {
        "predict.calls": per_pass("predict.call"),
        "predict.self_us": per_decision("predict.call"),
        "predict.used_pct": 100.0 * ratio(used, offered),
        "core.decide_calls": per_pass("core.decide"),
        "core.decide_p50_us": 1e6 * percentile(decide.durations, 50),
        "core.decide_p99_us": 1e6 * percentile(decide.durations, 99),
        "core.solves_per_decision": ratio(solve.calls + milp.calls, decisions),
        "heuristic.solve_calls": per_pass("heuristic.solve"),
        "heuristic.self_us": per_decision("heuristic.solve"),
        "heuristic.tasks_per_solve": ratio(sum(solve.notes), solve.calls),
        "sched.probe_calls": per_pass("sched.probe"),
        "sched.probe_self_us": per_decision("sched.probe"),
        "sched.probes_per_solve": ratio(get("sched.probe").calls, solve.calls),
        "sim.advance_self_us": per_decision("sim.advance"),
        "sim.views_self_us": per_decision("sim.views"),
        "sim.apply_self_us": per_decision("sim.apply"),
        "sim.loop_self_us": per_decision("sim.simulate"),
        "milp.solve_calls": per_pass("milp.solve"),
        "milp.build_self_us": per_decision("milp.solve"),
        "milp.backend_self_us": per_decision("milp.backend"),
        "milp.resolves_per_solve": ratio(backend.calls - milp.calls, milp.calls),
        "milp.vars_per_model": ratio(sum(backend.notes), backend.calls),
        "serve.decide_self_us": per_decision("serve.decide"),
        "serve.decide_p99_us": 1e6 * percentile(get("serve.decide").selfs, 99),
        "journal.appends": per_pass("journal.append"),
        "journal.self_us": per_decision("journal.append"),
        "wire.decode_self_us": per_decision("wire.decode"),
        "wire.encode_self_us": per_decision("wire.encode"),
    }


def write_spans(
    path: Path, spans: list[tuple], rids: list | None = None
) -> None:
    """Write spans as CSV (``rids`` overrides the recorded request ids)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("name,start,end,parent,rid,note\n")
        for index, (name, start, end, parent, rid, note) in enumerate(spans):
            if rids is not None:
                rid = rids[index]
            handle.write(
                f"{name},{start!r},{end!r},{parent},"
                f"{'' if rid is None else rid},{note}\n"
            )


def read_spans(path: Path) -> list[tuple]:
    """Spans written by :func:`write_spans`."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            name, start, end, parent, rid, note = line.rstrip("\n").split(",")
            spans.append(
                (
                    name,
                    float(start),
                    float(end),
                    int(parent),
                    int(rid) if rid else None,
                    int(note),
                )
            )
    return spans

"""Bit-exact digests of :class:`~repro.sim.result.SimulationResult`.

The golden-trace regression suite (``test_golden_traces.py``) replays
small committed traces through every strategy x predictor pair and
compares against digests produced by :func:`result_digest`.  Floats are
stored via ``float.hex()`` so the comparison is *bit-identical* — any
hot-path "optimisation" that shifts behaviour by even one ULP fails
loudly.  See ``regen.py`` for the regeneration policy.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.model.platform import Platform
from repro.sim.simulator import SimulationConfig, simulate
from repro.workload.trace import Trace

#: The strategy x predictor pairs every golden trace is replayed under.
#: The exact-search strategy is excluded (exponential; covered by its own
#: unit tests), and the MILP runs only without the learned predictor to
#: keep the suite's runtime in check.
GOLDEN_PAIRS: tuple[tuple[str, str | None], ...] = (
    ("heuristic", None),
    ("heuristic", "oracle"),
    ("heuristic", "learned"),
    ("heuristic", "ar"),
    ("heuristic", "seasonal"),
    ("heuristic", "drift"),
    ("milp", None),
    ("milp", "oracle"),
)


def pair_key(strategy: str, predictor: str | None) -> str:
    """Stable digest-dictionary key for one (strategy, predictor) pair."""
    return f"{strategy}+{predictor or 'off'}"


def result_digest(
    trace: Trace, strategy: str, predictor: str | None
) -> dict[str, Any]:
    """Replay ``trace`` and produce its bit-exact behavioural digest."""
    platform = Platform.cpu_gpu(n_cpus=5, n_gpus=1)
    result = simulate(
        trace,
        platform,
        strategy,
        predictor,
        SimulationConfig(collect_execution_log=True),
    )
    span_lines = [
        f"{span.job_id},{span.resource},{span.kind},"
        f"{span.start.hex()},{span.end.hex()}"
        for span in result.execution_log
    ]
    return {
        "accepted": list(result.accepted),
        "rejected": list(result.rejected),
        "total_energy": result.total_energy.hex(),
        "wasted_energy": result.wasted_energy.hex(),
        "migration_energy": result.migration_energy.hex(),
        "migration_count": result.migration_count,
        "abort_count": result.abort_count,
        "predictions_used": result.predictions_used,
        "solver_calls_total": result.solver_calls_total,
        "n_spans": len(span_lines),
        "span_digest": hashlib.sha256(
            "\n".join(span_lines).encode()
        ).hexdigest(),
    }


def event_digest(
    trace: Trace, strategy: str, predictor: str | None
) -> str:
    """sha256 of the canonical event-stream JSONL for one traced replay.

    Pins the *observability* behaviour the same way :func:`result_digest`
    pins the simulation behaviour: any change to what events are emitted,
    their order, or their payloads shifts this digest.  Volatile fields
    (wall times) are excluded by the canonical serialisation, so the
    digest is reproducible across machines and runs.
    """
    from repro.obs import TraceOptions, event_stream_digest

    platform = Platform.cpu_gpu(n_cpus=5, n_gpus=1)
    result = simulate(
        trace,
        platform,
        strategy,
        predictor,
        SimulationConfig(tracer=TraceOptions()),
    )
    return event_stream_digest(result.events)

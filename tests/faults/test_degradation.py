"""End-to-end graceful-degradation tests (acceptance criteria).

Covers the ISSUE's determinism requirements: a seeded fault plan
replayed twice is bit-identical (including DegradationEvents), and a
zero-fault plan is digest-identical to a run without any plan.
"""

import hashlib

from repro.faults.plan import FaultPlan, ResourceOutage
from repro.model.platform import Platform
from repro.sim.simulator import SimulationConfig, simulate
from repro.workload.trace import Trace


def _span_window(trace: Trace) -> tuple[float, float]:
    span = trace.stats().span or 100.0
    return span / 3.0, 2.0 * span / 3.0


def _gpu_outage_plan(trace: Trace, platform: Platform) -> FaultPlan:
    start, end = _span_window(trace)
    return FaultPlan(
        seed=0, outages=(ResourceOutage(platform.size - 1, start, end),)
    )


def _digest(trace, platform, config) -> dict:
    """Bit-exact digest in the style of tests/golden/digest.py."""
    result = simulate(trace, platform, "heuristic", "oracle", config)
    span_lines = [
        f"{span.job_id},{span.resource},{span.kind},"
        f"{span.start.hex()},{span.end.hex()}"
        for span in result.execution_log
    ]
    return {
        "accepted": list(result.accepted),
        "rejected": list(result.rejected),
        "evicted": list(result.evicted),
        "total_energy": result.total_energy.hex(),
        "wasted_energy": result.wasted_energy.hex(),
        "migration_energy": result.migration_energy.hex(),
        "solver_calls_total": result.solver_calls_total,
        "degradations": [e.to_dict() for e in result.degradations],
        "span_digest": hashlib.sha256(
            "\n".join(span_lines).encode()
        ).hexdigest(),
    }


def test_gpu_outage_displaces_and_records_events(tiny_trace, platform):
    plan = _gpu_outage_plan(tiny_trace, platform)
    config = SimulationConfig(fault_plan=plan, collect_records=True)
    result = simulate(tiny_trace, platform, "heuristic", "oracle", config)

    kinds = [event.kind for event in result.degradations]
    assert "resource-down" in kinds
    assert "resource-up" in kinds  # the outage is transient
    # the GPU is the loaded resource, so jobs were actually displaced
    assert any(k in ("job-readmitted", "job-evicted") for k in kinds)
    gpu = platform.size - 1
    down = [e for e in result.degradations if e.kind == "resource-down"]
    assert all(e.resource == gpu for e in down)
    # evicted is a subset of accepted, and consistent with its events
    assert set(result.evicted) <= set(result.accepted)
    n_evicted_events = kinds.count("job-evicted")
    assert len(result.evicted) == n_evicted_events


def test_same_plan_replayed_twice_is_bit_identical(tiny_trace, platform):
    plan = _gpu_outage_plan(tiny_trace, platform)
    config = SimulationConfig(fault_plan=plan, collect_execution_log=True)
    first = _digest(tiny_trace, platform, config)
    second = _digest(tiny_trace, platform, config)
    assert first == second
    assert first["degradations"]  # the comparison covered real events


def test_generated_plan_replay_is_bit_identical(tiny_trace, platform):
    span = tiny_trace.stats().span or 100.0
    plan = FaultPlan.generate(
        5,
        horizon=span + 1.0,
        n_resources=platform.size,
        outage_rate=0.3,
        outage_duration=span / 3.0,
        predictor_fault_rate=0.3,
        predictor_fault_duration=span / 3.0,
        spare_resource=platform.size - 1,
    )
    config = SimulationConfig(fault_plan=plan, collect_execution_log=True)
    assert _digest(tiny_trace, platform, config) == _digest(
        tiny_trace, platform, config
    )


def test_zero_fault_plan_digest_identical_to_no_plan(tiny_trace, platform):
    clean = _digest(
        tiny_trace, platform, SimulationConfig(collect_execution_log=True)
    )
    empty = _digest(
        tiny_trace,
        platform,
        SimulationConfig(fault_plan=FaultPlan(), collect_execution_log=True),
    )
    assert clean == empty
    assert clean["degradations"] == []


def test_permanent_outage_never_comes_back(tiny_trace, platform):
    start, _ = _span_window(tiny_trace)
    plan = FaultPlan(
        outages=(ResourceOutage(platform.size - 1, start),)  # end = inf
    )
    config = SimulationConfig(fault_plan=plan)
    result = simulate(tiny_trace, platform, "heuristic", "oracle", config)
    kinds = [event.kind for event in result.degradations]
    assert "resource-down" in kinds
    assert "resource-up" not in kinds


def test_faulted_run_passes_fault_aware_verification(tiny_trace, platform):
    plan = _gpu_outage_plan(tiny_trace, platform)
    config = SimulationConfig(
        fault_plan=plan, verify=True, collect_records=True
    )
    result = simulate(tiny_trace, platform, "heuristic", "oracle", config)
    assert result.verification is not None
    assert result.verification.ok
    assert result.degradations  # verified *with* degradations present

"""The benchmark's workloads and the scenario hash that pins each result.

Every workload draws its inputs from the paper's Sec. 5.1 generator on
the 5-CPU + 1-GPU platform (``standard_traces`` / ``standard_platform``),
seeded by ``--seed``.  ``BENCHMARK.json`` carries each workload's
:meth:`Workload.summary` as its ``why``; the benchmark's tests keep the
two in step.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

__all__ = [
    "BURST_FACTOR",
    "PACED_SHARE",
    "SERVE_CATALOG_SEED",
    "WORKLOADS",
    "Workload",
    "scenario",
    "scenario_hash",
]

#: Share of ``--seconds`` the serve workload spends in its paced phase;
#: the burst phase then sends ``BURST_FACTOR`` times as many, pipelined.
PACED_SHARE = 0.5
BURST_FACTOR = 4
#: Master seed of the serve workload's task set (its server's catalog);
#: ``--seed`` draws only the arrivals (see ``servebench``).
SERVE_CATALOG_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark scenario: inputs, configuration and load shape.

    ``moves`` names the layers (``repro`` subpackages) whose cost this
    workload's end-to-end numbers include, so an optimisation of them
    should show here; ``steady`` names layers the workload never runs,
    so a change confined to them predicts no change.
    """

    name: str
    kind: str  # "sim": simulate() in-process; "serve": AdmissionServer
    group: str  # Sec. 5.1 deadline group, "LT" or "VT"
    strategy: str
    predictor: str
    n_traces: int
    n_requests: int  # per trace; serve sizes its one trace by sizes()
    loop: str
    why: str
    moves: tuple[str, ...]
    steady: tuple[str, ...]
    rate: float = 0.0  # paced admits per second (serve only)

    def summary(self) -> str:
        """The one-line reason recorded in ``BENCHMARK.json``."""
        return (
            f"{self.loop}; {self.why}; moves {','.join(self.moves)};"
            f" not {','.join(self.steady)}"
        )

    def sizes(self, seconds: int) -> tuple[int, int]:
        """Serve only: requests sent in the paced and in the burst phase."""
        paced = max(8, round(self.rate * seconds * PACED_SHARE))
        return paced, BURST_FACTOR * paced

    def at_scale(self, scale: str) -> "Workload":
        """``"full"`` is the benchmark; ``"tiny"`` the self-test size."""
        if scale == "full":
            return self
        if scale == "tiny":
            return replace(
                self, n_traces=1, n_requests=min(self.n_requests, 12)
            )
        raise ValueError(f"unknown scale {scale!r}")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sim-lt-learned",
            kind="sim",
            group="LT",
            strategy="heuristic",
            predictor="learned",
            n_traces=16,
            n_requests=125,
            loop="batch replay of simulate()",
            why=(
                "LT keeps ~30 tasks active, so heuristic solve + EDF probes"
                " dominate; predictor and retry-without-prediction run"
            ),
            moves=("predict", "core", "sched", "sim"),
            steady=("milp", "serve"),
        ),
        Workload(
            name="sim-vt-off",
            kind="sim",
            group="VT",
            strategy="heuristic",
            predictor="off",
            n_traces=8,
            n_requests=250,
            loop="batch replay of simulate()",
            why="predictor off, small VT contexts: sim upkeep is a larger share",
            moves=("core", "sched", "sim"),
            steady=("predict", "milp", "serve"),
        ),
        Workload(
            name="serve-vt-journal",
            kind="serve",
            group="VT",
            strategy="heuristic",
            predictor="learned",
            n_traces=1,
            n_requests=0,
            loop=(
                "loopback AdmissionServer, one connection: open loop paced"
                " at 150/s, then pipelined bursts"
            ),
            why="NDJSON, asyncio dispatch, depository, journal without fsync",
            moves=("serve", "core", "sched", "sim", "predict"),
            steady=("milp",),
            rate=150.0,
        ),
        Workload(
            name="sim-vt-milp",
            kind="sim",
            group="VT",
            strategy="milp",
            predictor="oracle",
            n_traces=16,
            n_requests=12,
            loop="batch replay of simulate()",
            why="short VT traces, milp+oracle: the only user of repro.milp",
            moves=("milp", "core", "sim"),
            steady=("heuristic", "serve"),
        ),
    )
}


def scenario(
    workload: Workload, *, seed: int, seconds: int, scale: str
) -> dict:
    """Everything that determines a result's inputs and configuration.

    Prose fields are left out, so rewording a workload's reason keeps
    its hash; the serve workload's request counts follow ``seconds``.
    """
    fields: dict = {
        "workload": workload.name,
        "kind": workload.kind,
        "group": workload.group,
        "strategy": workload.strategy,
        "predictor": workload.predictor,
        "n_traces": workload.n_traces,
        "n_requests": workload.n_requests,
        "rate": workload.rate,
        "journal_fsync": False,  # see serve_launcher.service_config
        "seed": seed,
        "scale": scale,
    }
    if workload.kind == "serve":
        fields["paced"], fields["burst"] = workload.sizes(seconds)
        fields["catalog_seed"] = SERVE_CATALOG_SEED
    return fields


def scenario_hash(fields: dict) -> str:
    """Stable digest of a :func:`scenario` dict."""
    encoded = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]

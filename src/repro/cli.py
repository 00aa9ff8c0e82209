"""Command-line interface.

Ten subcommands cover the library's main entry points without writing
Python::

    python -m repro generate --group VT --traces 3 --requests 200 --out traces/
    python -m repro simulate traces/vt_000.json --strategy heuristic \
        --predictor oracle --overhead 0.05
    python -m repro experiment fig2 --traces 5 --requests 120
    python -m repro evaluate traces/vt_000.json --predictor learned
    python -m repro predict --frontier --csv frontier.csv
    python -m repro analyze --self          # lint the repro package
    python -m repro analyze --smoke         # verified smoke simulation
    python -m repro analyze traces/vt_000.json --strategy milp
    python -m repro faults --smoke          # verified fault-injection grid
    python -m repro faults --sweep          # fault-sensitivity experiment
    python -m repro obs traces/vt_000.json --export-chrome trace.json \
        --summary                           # structured tracing + metrics
    python -m repro serve --port 8787       # live admission daemon
    python -m repro serve --smoke           # CI smoke pass of the daemon
    python -m repro chaos --requests 40     # SIGKILL + journal recovery

Performance is measured outside the CLI, by ``perfbench/run.py`` on the
paper's VT/LT workloads (see ``perfbench/README.md``).

All randomness is controlled by ``--seed``; outputs are plain text (and
JSON where noted) so runs are scriptable and diffable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.config import HarnessScale
from repro.registry import (
    predictor_names,
    resolve_predictor,
    resolve_strategy,
    strategy_names,
)
from repro.sim.simulator import SimulationConfig, simulate
from repro.model.platform import Platform
from repro.predict.metrics import evaluate_predictor
from repro.util.rng import RngStreams
from repro.workload.taskgen import generate_task_set
from repro.workload.trace import Trace
from repro.workload.tracegen import DeadlineGroup, TraceConfig, generate_trace

__all__ = ["main", "build_parser"]

#: Predictors whose constructors take the CLI's --accuracy/--seed knobs.
_NOISE_PREDICTORS = ("type-noise", "arrival-noise")


def _jobs_count(text: str) -> int:
    """argparse type for --jobs: a non-negative worker count."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all cores; 1 = serial), got {value}"
        )
    return value


def _cli_predictor(name: str, accuracy: float, seed: int):
    """Resolve a predictor name, wiring in the noise knobs where they
    apply."""
    if name in _NOISE_PREDICTORS:
        return resolve_predictor(name, accuracy=accuracy, seed=seed)
    return resolve_predictor(name)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for shell-completion tools
    and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Runtime Resource Management with Workload "
            "Prediction' (DAC 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate workload traces")
    gen.add_argument("--group", choices=["VT", "LT"], default="VT")
    gen.add_argument("--traces", type=int, default=1)
    gen.add_argument("--requests", type=int, default=500)
    gen.add_argument("--cpus", type=int, default=5)
    gen.add_argument("--gpus", type=int, default=1)
    gen.add_argument("--arrival-scale", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, required=True,
                     help="output directory for trace JSON files")

    run = sub.add_parser("simulate", help="replay a trace through an RM")
    run.add_argument("trace", type=Path, help="trace JSON file")
    run.add_argument("--cpus", type=int, default=5)
    run.add_argument("--gpus", type=int, default=1)
    run.add_argument(
        "--strategy", choices=strategy_names(), default="heuristic"
    )
    run.add_argument(
        "--predictor", choices=predictor_names(), default="off"
    )
    run.add_argument("--accuracy", type=float, default=0.75,
                     help="accuracy level for the noise predictors")
    run.add_argument("--overhead", type=float, default=0.0,
                     help="prediction overhead (absolute time units)")
    run.add_argument("--lookahead", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", action="store_true",
                     help="emit the result summary as JSON")

    exp = sub.add_parser("experiment", help="regenerate a paper artefact")
    exp.add_argument(
        "id",
        choices=["fig2", "fig3", "fig4", "fig5", "sec52", "motivational",
                 "all"],
    )
    exp.add_argument("--traces", type=int, default=5)
    exp.add_argument("--requests", type=int, default=120)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--jobs", type=_jobs_count, default=1,
                     help="worker processes for the experiment matrix "
                     "(0 = all cores; 1 = serial)")
    exp.add_argument("--out", type=Path, default=None,
                     help="directory for the full report (id = all)")

    ev = sub.add_parser("evaluate", help="score a predictor on a trace")
    ev.add_argument("trace", type=Path)
    ev.add_argument(
        "--predictor",
        choices=[name for name in predictor_names() if name != "off"],
        default="learned",
    )
    ev.add_argument("--accuracy", type=float, default=0.75)
    ev.add_argument("--seed", type=int, default=0)

    pred = sub.add_parser(
        "predict",
        help="online predictor suite: drift frontier experiment",
        description=(
            "Entry point of the online-learning predictor suite "
            "(repro.predict, DESIGN.md §16).  --frontier runs the E8 "
            "accuracy-vs-energy frontier: every registered online "
            "predictor earns its own accuracy on drift-perturbed "
            "traces, and the resulting (accuracy, energy, rejection) "
            "cells are printed as one table per drift scenario — "
            "optionally written as deterministic CSV with --csv."
        ),
    )
    pred.add_argument("--frontier", action="store_true",
                      help="run the E8 accuracy-vs-energy frontier")
    pred.add_argument("--traces", type=int, default=4,
                      help="frontier: traces per cell")
    pred.add_argument("--requests", type=int, default=100,
                      help="frontier: requests per trace")
    pred.add_argument("--seed", type=int, default=0)
    pred.add_argument(
        "--strategy", choices=strategy_names(), default="heuristic"
    )
    pred.add_argument("--group", choices=["VT", "LT"], default="VT")
    pred.add_argument("--jobs", type=_jobs_count, default=1,
                      help="worker processes for the frontier matrix "
                      "(0 = all cores; 1 = serial)")
    pred.add_argument("--csv", type=Path, default=None, metavar="PATH",
                      help="also write the frontier as CSV here")
    pred.add_argument("--json", action="store_true",
                      help="emit the frontier cells as JSON")

    an = sub.add_parser(
        "analyze",
        help="static lint / schedule-invariant verification",
        description=(
            "Static analysis entry point: lint the repo's own sources "
            "(--self), lint arbitrary files (--lint), run a verified "
            "smoke simulation (--smoke), or replay one trace with the "
            "schedule-invariant verifier armed (positional TRACE).  "
            "Exits 1 on any lint finding or invariant violation."
        ),
    )
    an.add_argument(
        "trace", type=Path, nargs="?", default=None,
        help="trace JSON file to simulate with verification on",
    )
    an.add_argument(
        "--self", dest="self_lint", action="store_true",
        help="run the custom lint rules over the installed repro package",
    )
    an.add_argument(
        "--lint", type=Path, nargs="+", default=None, metavar="PATH",
        help="lint specific files or directories",
    )
    an.add_argument(
        "--rules", default=None, metavar="SELECTORS",
        help="comma-separated rule ids or family prefixes to enable "
        "(e.g. 'RPR001,RPR10' for seeding + the async family); "
        "default: all rules",
    )
    an.add_argument(
        "--baseline", type=Path, default=None, metavar="PATH",
        help="baseline-suppression file of justified findings "
        "(with --self, defaults to the repo's analysis-baseline.txt "
        "when present).  Unused entries fail the run.",
    )
    an.add_argument(
        "--smoke", action="store_true",
        help="run the verified fig2-shaped smoke grid",
    )
    an.add_argument("--traces", type=int, default=2,
                    help="smoke grid: traces per cell")
    an.add_argument("--requests", type=int, default=40,
                    help="smoke grid: requests per trace")
    an.add_argument("--group", choices=["VT", "LT"], default="VT",
                    help="smoke grid: deadline group")
    an.add_argument("--cpus", type=int, default=5)
    an.add_argument("--gpus", type=int, default=1)
    an.add_argument(
        "--strategy", choices=strategy_names(), default="heuristic"
    )
    an.add_argument(
        "--predictor", choices=predictor_names(), default="off"
    )
    an.add_argument("--accuracy", type=float, default=0.75)
    an.add_argument("--overhead", type=float, default=0.0)
    an.add_argument("--lookahead", type=int, default=1)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--json", action="store_true",
                    help="emit findings / the verification report as JSON")

    fl = sub.add_parser(
        "faults",
        help="fault injection: verified smoke grid / sensitivity sweep",
        description=(
            "Deterministic fault injection (see repro.faults): --smoke "
            "runs canonical fault scenarios (outages, predictor faults, "
            "solver faults) with the fault-aware schedule verifier armed "
            "and exits 1 on any violation; --sweep measures how "
            "rejection/energy respond to increasing outage and "
            "predictor-failure rates."
        ),
    )
    fl.add_argument("--smoke", action="store_true",
                    help="run the verified fault-scenario grid")
    fl.add_argument("--sweep", action="store_true",
                    help="run the fault-sensitivity sweep")
    fl.add_argument("--traces", type=int, default=2,
                    help="traces per cell")
    fl.add_argument("--requests", type=int, default=40,
                    help="requests per trace")
    fl.add_argument("--group", choices=["VT", "LT"], default="VT")
    fl.add_argument(
        "--strategy", choices=strategy_names(), default="heuristic"
    )
    fl.add_argument(
        "--predictor", choices=predictor_names(), default="oracle",
        help="predictor for the sweep ('off' disables prediction)"
    )
    fl.add_argument("--outage-grid", type=float, nargs="+",
                    default=[0.0, 1.0, 2.0], metavar="N",
                    help="sweep: expected outage windows per trace")
    fl.add_argument("--predictor-fault-grid", type=float, nargs="+",
                    default=[0.0, 1.0, 2.0], metavar="N",
                    help="sweep: expected predictor fault windows per trace")
    fl.add_argument("--seed", type=int, default=0,
                    help="master seed of traces and fault plans")
    fl.add_argument("--json", action="store_true",
                    help="emit the report as JSON")
    fl.add_argument("--out", type=Path, default=None,
                    help="also write the JSON report to this file")

    obs = sub.add_parser(
        "obs",
        help="structured tracing: event stream, metrics, Chrome trace",
        description=(
            "Replay one trace with the observability layer armed "
            "(repro.obs, DESIGN.md §11): collect the structured event "
            "stream and metrics registry, print event counts and the "
            "deterministic stream digest, and optionally export the "
            "events as canonical JSONL (--export-jsonl) or as a Chrome "
            "trace_event JSON (--export-chrome) viewable in Perfetto "
            "(https://ui.perfetto.dev) or chrome://tracing."
        ),
    )
    obs.add_argument("trace", type=Path, help="trace JSON file")
    obs.add_argument("--cpus", type=int, default=5)
    obs.add_argument("--gpus", type=int, default=1)
    obs.add_argument(
        "--strategy", choices=strategy_names(), default="heuristic"
    )
    obs.add_argument(
        "--predictor", choices=predictor_names(), default="off"
    )
    obs.add_argument("--accuracy", type=float, default=0.75,
                     help="accuracy level for the noise predictors")
    obs.add_argument("--overhead", type=float, default=0.0,
                     help="prediction overhead (absolute time units)")
    obs.add_argument("--lookahead", type=int, default=1)
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument("--export-chrome", type=Path, default=None,
                     metavar="PATH",
                     help="write a Chrome trace_event JSON here")
    obs.add_argument("--export-jsonl", type=Path, default=None,
                     metavar="PATH",
                     help="write the canonical event stream as JSONL here")
    obs.add_argument("--include-volatile", action="store_true",
                     help="keep wall-clock fields in the JSONL export "
                     "(breaks byte-reproducibility)")
    obs.add_argument("--summary", action="store_true",
                     help="print the metrics summary")
    obs.add_argument("--json", action="store_true",
                     help="emit digest, counts, and metrics as JSON")

    srv = sub.add_parser(
        "serve",
        help="run the live admission daemon (repro.serve)",
        description=(
            "Boot the online resource-management service (DESIGN.md "
            "§12): an asyncio daemon admitting per-tenant request "
            "streams over a newline-delimited-JSON socket protocol, "
            "with live metrics on the same port via GET /metrics.  "
            "--smoke instead runs the self-contained smoke pass "
            "(boot, drive a seeded workload, scrape metrics, clean "
            "shutdown) and prints the throughput report."
        ),
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8787,
                     help="listen port (0 picks a free port)")
    srv.add_argument("--cpus", type=int, default=5)
    srv.add_argument("--gpus", type=int, default=1)
    srv.add_argument("--tasks", type=int, default=20,
                     help="task types in the service catalog")
    srv.add_argument(
        "--strategy", choices=strategy_names(), default="heuristic"
    )
    srv.add_argument(
        "--predictor", choices=predictor_names(), default="off"
    )
    srv.add_argument("--mode", choices=["live", "replay"], default="live",
                     help="live stamps wall-clock arrivals; replay "
                     "requires declared arrivals on every frame")
    srv.add_argument("--speed", type=float, default=1.0,
                     help="simulation time units per wall second "
                     "(live mode time compression)")
    srv.add_argument("--queue-depth", type=int, default=64,
                     help="per-tenant admission queue bound (beyond it "
                     "requests are shed)")
    srv.add_argument("--tenant-quota", type=int, default=None,
                     help="max unfinished jobs per tenant "
                     "(over-quota rejects beyond it)")
    srv.add_argument("--lookahead", type=int, default=1)
    srv.add_argument("--overhead", type=float, default=0.0,
                     help="prediction overhead (simulation time units)")
    srv.add_argument("--solver-budget", type=float, default=None,
                     metavar="SECONDS",
                     help="wall budget per solve; over it the watchdog "
                     "degrades to the heuristic fallback")
    srv.add_argument("--journal", type=Path, default=None, metavar="FILE",
                     help="write-ahead admission journal; an existing "
                     "journal is replayed before serving (crash "
                     "recovery, DESIGN.md §15)")
    srv.add_argument("--no-journal-fsync", action="store_true",
                     help="skip the per-append fsync (faster, durable "
                     "against process death only)")
    srv.add_argument("--snapshot-every", type=int, default=64,
                     help="journal a fingerprint snapshot every N "
                     "decisions (0 disables)")
    srv.add_argument("--fault-plan", type=Path, default=None,
                     metavar="FILE",
                     help="arm a ServeFaultPlan JSON file (chaos "
                     "testing: wire/journal fault injection)")
    srv.add_argument("--smoke", action="store_true",
                     help="run the CI smoke pass instead of serving")
    srv.add_argument("--smoke-requests", type=int, default=100,
                     help="requests driven through the smoke pass")
    srv.add_argument("--json", action="store_true",
                     help="emit the smoke report as JSON")

    cha = sub.add_parser(
        "chaos",
        help="chaos-test the live service (SIGKILL + journal recovery)",
        description=(
            "Run a seeded fault schedule against a live repro serve "
            "subprocess: inject wire and journal faults, SIGKILL the "
            "daemon mid-workload, restart it from the write-ahead "
            "journal, and assert the §15 recovery invariants — "
            "bit-identical engine fingerprint on local replay, no "
            "lost or double admissions, idempotent retries, and "
            "reconciled decision counters."
        ),
    )
    cha.add_argument("--seed", type=int, default=0)
    cha.add_argument("--requests", type=int, default=40)
    cha.add_argument("--kill-at", type=int, default=None,
                     help="request index at which the server is "
                     "SIGKILLed (default: half-way)")
    cha.add_argument("--tenants", type=int, default=2)
    cha.add_argument("--cpus", type=int, default=5)
    cha.add_argument("--gpus", type=int, default=1)
    cha.add_argument("--tasks", type=int, default=20)
    cha.add_argument(
        "--strategy", choices=strategy_names(), default="heuristic"
    )
    cha.add_argument("--queue-depth", type=int, default=64)
    cha.add_argument("--tenant-quota", type=int, default=None)
    cha.add_argument("--snapshot-every", type=int, default=8)
    cha.add_argument("--latency-rate", type=float, default=0.05)
    cha.add_argument("--corruption-rate", type=float, default=0.05)
    cha.add_argument("--drop-rate", type=float, default=0.05)
    cha.add_argument("--journal-fault-rate", type=float, default=0.05)
    cha.add_argument("--workdir", type=Path, default=None,
                     help="where the journal and fault plan live "
                     "(default: a fresh temporary directory)")
    cha.add_argument("--json", action="store_true",
                     help="emit the chaos report as JSON")
    return parser


def _cmd_generate(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    platform = Platform.cpu_gpu(args.cpus, args.gpus)
    group = DeadlineGroup(args.group)
    streams = RngStreams(args.seed)
    config_kwargs = {"group": group, "n_requests": args.requests}
    if args.arrival_scale is not None:
        config_kwargs["arrival_scale"] = args.arrival_scale
    config = TraceConfig(**config_kwargs)
    for index in range(args.traces):
        tasks = generate_task_set(
            platform, rng=streams.fresh(f"tasks:{group.value}:{index}")
        )
        trace = generate_trace(
            tasks,
            config,
            rng=streams.fresh(f"trace:{group.value}:{index}"),
            seed=args.seed,
        )
        path = args.out / f"{group.value.lower()}_{index:03d}.json"
        trace.save(path)
        stats = trace.stats()
        print(
            f"{path}: {stats.n_requests} requests, mean inter-arrival "
            f"{stats.mean_interarrival:.2f}"
        )
    return 0


def _cmd_simulate(args) -> int:
    trace = Trace.load(args.trace)
    platform = Platform.cpu_gpu(args.cpus, args.gpus)
    strategy = resolve_strategy(args.strategy)
    predictor = _cli_predictor(args.predictor, args.accuracy, args.seed)
    config = SimulationConfig(
        prediction_overhead=args.overhead, lookahead=args.lookahead
    )
    result = simulate(trace, platform, strategy, predictor, config)
    if args.json:
        print(json.dumps(result.summary(), indent=2))
        return 0
    print(f"trace       : {args.trace} ({len(trace)} requests)")
    print(f"strategy    : {args.strategy}, predictor: {args.predictor}")
    print(f"rejection   : {result.rejection_percentage:.2f}% "
          f"({result.n_rejected}/{result.n_requests})")
    print(f"energy      : {result.total_energy:.2f} "
          f"(normalised {result.normalized_energy:.4f})")
    print(f"migrations  : {result.migration_count}, "
          f"aborts: {result.abort_count}, "
          f"wasted energy: {result.wasted_energy:.2f}")
    return 0


def _cmd_experiment(args) -> int:
    scale = HarnessScale(
        n_traces=args.traces, n_requests=args.requests, master_seed=args.seed
    )
    if args.id == "all":
        from repro.experiments.report_all import run_all

        report = run_all(
            scale,
            progress=lambda name: print(f"... {name}"),
            parallel=args.jobs,
        )
        print(report.render())
        if args.out is not None:
            for path in report.save(args.out):
                print(f"written: {path}")
        return 0
    if args.id == "motivational":
        from repro.experiments.motivational import (
            render_motivational,
            run_motivational,
        )

        print(render_motivational(run_motivational(parallel=args.jobs)))
        return 0
    if args.id == "sec52":
        from repro.experiments.sec52_milp_vs_heuristic import (
            render_sec52,
            run_sec52,
        )

        print(render_sec52(run_sec52(scale, parallel=args.jobs)))
        return 0
    if args.id in ("fig2", "fig3"):
        from repro.experiments.fig2_rejection import (
            render_fig2,
            run_prediction_impact,
        )
        from repro.experiments.fig3_energy import render_fig3

        lt = run_prediction_impact(DeadlineGroup.LT, scale, parallel=args.jobs)
        vt = run_prediction_impact(DeadlineGroup.VT, scale, parallel=args.jobs)
        print(render_fig2(lt, vt) if args.id == "fig2" else render_fig3(lt, vt))
        return 0
    if args.id == "fig4":
        from repro.experiments.fig4_accuracy import (
            render_fig4,
            run_accuracy_sweep,
        )

        print(
            render_fig4(
                run_accuracy_sweep("type", scale, parallel=args.jobs),
                run_accuracy_sweep("arrival", scale, parallel=args.jobs),
            )
        )
        return 0
    if args.id == "fig5":
        from repro.experiments.fig5_overhead import (
            render_fig5,
            run_overhead_sweep,
        )

        print(render_fig5(run_overhead_sweep(scale, parallel=args.jobs)))
        return 0
    raise AssertionError(f"unhandled experiment {args.id}")  # pragma: no cover


def _cmd_evaluate(args) -> int:
    trace = Trace.load(args.trace)
    predictor = _cli_predictor(args.predictor, args.accuracy, args.seed)
    report = evaluate_predictor(predictor, trace)
    print(f"predictor     : {args.predictor}")
    print(f"forecasts     : {report.n_predictions} "
          f"(abstained {report.n_abstained})")
    print(f"type accuracy : {100 * report.type_accuracy:.1f}%")
    print(f"arrival NRMSE : {100 * report.arrival_nrmse:.1f}%")
    return 0


def _cmd_predict(args) -> int:
    # Imported here so the plain simulate/experiment paths never pay for
    # the frontier machinery.
    from dataclasses import asdict

    from repro.experiments.fig4_frontier import (
        frontier_csv,
        render_fig4_frontier,
        run_frontier,
        write_frontier_csv,
    )

    if not args.frontier:
        print("nothing to run: pass --frontier", file=sys.stderr)
        return 2
    scale = HarnessScale(
        n_traces=args.traces, n_requests=args.requests, master_seed=args.seed
    )
    result = run_frontier(
        scale,
        strategy=args.strategy,
        group=DeadlineGroup(args.group),
        parallel=args.jobs,
    )
    if args.json:
        print(json.dumps(
            {
                "strategy": result.strategy,
                "scenarios": list(result.scenarios),
                "predictors": list(result.predictors),
                "cells": [asdict(cell) for cell in result.cells],
            },
            indent=2,
        ))
    else:
        print(render_fig4_frontier(result))
    if args.csv is not None:
        write_frontier_csv(result, args.csv)
        print(f"written: {args.csv}")
    elif not args.json:
        print()
        print(frontier_csv(result), end="")
    return 0


def _cmd_analyze(args) -> int:
    # Imported here so the plain simulate/experiment paths never pay for
    # the lint pass or the smoke grid.
    from repro.analysis.baseline import Baseline, default_baseline_path
    from repro.analysis.invariants import VerificationError
    from repro.analysis.lint import (
        LINT_RULES,
        findings_to_payload,
        lint_package,
        lint_paths,
        render_findings,
        select_rules,
    )
    from repro.analysis.smoke import run_verified_smoke

    exit_code = 0
    ran_anything = False

    if args.self_lint or args.lint:
        rules = frozenset(LINT_RULES)
        if args.rules is not None:
            try:
                rules = select_rules(args.rules.split(","))
            except ValueError as exc:
                print(f"--rules: {exc}", file=sys.stderr)
                return 2
        baseline_path = args.baseline
        if baseline_path is None and args.self_lint:
            # Only whole-tree runs inherit the repo baseline; a spot
            # check of one path would trip its entries as "unused".
            baseline_path = default_baseline_path()
        baseline = (
            Baseline.load(baseline_path)
            if baseline_path is not None
            else Baseline()
        )
        # An entry for a rule that is not enabled this run is dormant,
        # not stale: only entries the selected rules could have used
        # count toward unused-baseline detection.
        baseline = Baseline(
            entries=tuple(e for e in baseline.entries if e.rule in rules),
            source=baseline.source,
        )
        findings = []
        if args.self_lint:
            findings.extend(lint_package(rules=rules))
        if args.lint:
            try:
                findings.extend(lint_paths(args.lint, rules=rules))
            except ValueError as exc:
                print(f"--lint: {exc}", file=sys.stderr)
                return 2
        result = baseline.apply(findings)
        ran_anything = True
        if args.json:
            print(json.dumps(
                findings_to_payload(
                    result.kept,
                    suppressed=len(result.suppressed),
                    unused_baseline=[e.render() for e in result.unused],
                ),
                indent=2,
            ))
        else:
            print(render_findings(result.kept))
            if result.suppressed:
                print(
                    f"lint: {len(result.suppressed)} finding(s) suppressed "
                    f"by baseline {baseline.source}"
                )
            for entry in result.unused:
                print(
                    f"lint: unused baseline entry: {entry.render()}",
                    file=sys.stderr,
                )
        if not result.ok:
            exit_code = 1

    if args.smoke:
        ran_anything = True
        scale = HarnessScale(
            n_traces=args.traces,
            n_requests=args.requests,
            master_seed=args.seed,
        )
        report = run_verified_smoke(
            scale,
            group=DeadlineGroup(args.group),
            progress=None if args.json else (
                lambda label: print(f"... {label}")
            ),
        )
        if args.json:
            print(json.dumps(
                {
                    "ok": report.ok,
                    "n_cells": len(report.cells),
                    "n_violations": report.n_violations,
                    "cells": [
                        {
                            "label": cell.label,
                            "trace_index": cell.trace_index,
                            "ok": cell.ok,
                            "n_spans": cell.n_spans,
                            "violations": [
                                v.render() for v in cell.violations
                            ],
                        }
                        for cell in report.cells
                    ],
                },
                indent=2,
            ))
        else:
            print(report.render())
        if not report.ok:
            exit_code = 1

    if args.trace is not None:
        ran_anything = True
        trace = Trace.load(args.trace)
        platform = Platform.cpu_gpu(args.cpus, args.gpus)
        strategy = resolve_strategy(args.strategy)
        predictor = _cli_predictor(args.predictor, args.accuracy, args.seed)
        config = SimulationConfig(
            prediction_overhead=args.overhead,
            lookahead=args.lookahead,
            collect_records=True,
            verify=True,
        )
        try:
            result = simulate(trace, platform, strategy, predictor, config)
        except VerificationError as exc:
            report = exc.report
        else:
            report = result.verification
            assert report is not None  # verify=True guarantees it
        if args.json:
            print(json.dumps(report.summary(), indent=2))
        else:
            print(report.render())
        if not report.ok:
            exit_code = 1

    if not ran_anything:
        print(
            "nothing to analyze: pass --self, --lint, --smoke, and/or a "
            "trace file",
            file=sys.stderr,
        )
        return 2
    return exit_code


def _cmd_faults(args) -> int:
    # Imported here so the plain simulate/experiment paths never pay for
    # the fault-injection machinery.
    from repro.experiments.fault_sweep import (
        render_fault_sweep,
        run_fault_sweep,
    )
    from repro.faults.smoke import run_fault_smoke

    if not args.smoke and not args.sweep:
        print("nothing to run: pass --smoke and/or --sweep", file=sys.stderr)
        return 2
    exit_code = 0
    payload: dict = {}
    scale = HarnessScale(
        n_traces=args.traces,
        n_requests=args.requests,
        master_seed=args.seed,
    )
    group = DeadlineGroup(args.group)

    if args.smoke:
        report = run_fault_smoke(
            scale,
            group=group,
            strategies=(args.strategy,),
            seed=args.seed,
            progress=None if args.json else (
                lambda label: print(f"... {label}")
            ),
        )
        payload["smoke"] = {
            "ok": report.ok,
            "n_cells": len(report.cells),
            "n_violations": report.n_violations,
            "n_degradations": report.n_degradations,
            "cells": [
                {
                    "label": cell.label,
                    "scenario": cell.scenario,
                    "trace_index": cell.trace_index,
                    "ok": cell.ok,
                    "n_spans": cell.n_spans,
                    "n_degradations": cell.n_degradations,
                    "n_evicted": cell.n_evicted,
                    "violations": [v.render() for v in cell.violations],
                }
                for cell in report.cells
            ],
        }
        if not args.json:
            print(report.render())
        if not report.ok:
            exit_code = 1

    if args.sweep:
        sweep = run_fault_sweep(
            scale,
            group=group,
            strategy=args.strategy,
            predictor=None if args.predictor == "off" else args.predictor,
            outage_grid=tuple(args.outage_grid),
            predictor_fault_grid=tuple(args.predictor_fault_grid),
            seed=args.seed,
            progress=None if args.json else (
                lambda label: print(f"... {label}")
            ),
        )
        payload["sweep"] = sweep.to_payload()
        if not args.json:
            print(render_fault_sweep(sweep))

    if args.json:
        print(json.dumps(payload, indent=2))
    if args.out is not None:
        from repro.util.atomicio import atomic_write_text

        atomic_write_text(args.out, json.dumps(payload, indent=2) + "\n")
        if not args.json:
            print(f"written: {args.out}")
    return exit_code


def _cmd_obs(args) -> int:
    # Imported here so the plain simulate/experiment paths never pay for
    # the observability exporters.
    from repro.obs import (
        TraceOptions,
        event_stream_digest,
        render_metrics,
        write_chrome_trace,
        write_events_jsonl,
    )

    trace = Trace.load(args.trace)
    platform = Platform.cpu_gpu(args.cpus, args.gpus)
    strategy = resolve_strategy(args.strategy)
    predictor = _cli_predictor(args.predictor, args.accuracy, args.seed)
    config = SimulationConfig(
        prediction_overhead=args.overhead,
        lookahead=args.lookahead,
        collect_execution_log=True,
        tracer=TraceOptions(),
    )
    result = simulate(trace, platform, strategy, predictor, config)
    assert result.metrics is not None  # TraceOptions() collects metrics
    digest = event_stream_digest(result.events)
    counts: dict[str, int] = {}
    for event in result.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    if args.export_chrome is not None:
        write_chrome_trace(
            args.export_chrome,
            result.events,
            result.execution_log,
            n_resources=platform.size,
        )
    if args.export_jsonl is not None:
        write_events_jsonl(
            args.export_jsonl,
            result.events,
            include_volatile=args.include_volatile,
        )
    if args.json:
        print(json.dumps(
            {
                "digest": digest,
                "n_events": len(result.events),
                "event_counts": dict(sorted(counts.items())),
                "metrics": result.metrics.deterministic().to_dict(),
                "summary": result.summary(),
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(f"trace        : {args.trace} ({len(trace)} requests)")
    print(f"strategy     : {args.strategy}, predictor: {args.predictor}")
    print(f"events       : {len(result.events)}")
    for kind in sorted(counts):
        print(f"  {kind:18s} {counts[kind]}")
    print(f"event digest : {digest}")
    if args.summary:
        print(render_metrics(result.metrics.deterministic()))
    if args.export_chrome is not None:
        print(f"written: {args.export_chrome}")
    if args.export_jsonl is not None:
        print(f"written: {args.export_jsonl}")
    return 0


def _cmd_serve(args) -> int:
    # Imported here so every other subcommand stays free of the server
    # stack (and of asyncio).
    import asyncio

    from repro.serve.server import AdmissionServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        mode=args.mode,
        speed=args.speed,
        queue_depth=args.queue_depth,
        tenant_quota=args.tenant_quota,
        prediction_overhead=args.overhead,
        lookahead=args.lookahead,
        solver_wall_budget=args.solver_budget,
        journal_path=(
            None if args.journal is None else str(args.journal)
        ),
        journal_fsync=not args.no_journal_fsync,
        snapshot_every=args.snapshot_every,
    )
    if args.smoke:
        from repro.serve.smoke import run_smoke

        report = run_smoke(
            n_requests=args.smoke_requests,
            strategy=args.strategy,
            config=ServeConfig(
                host=args.host,
                port=0,
                speed=1e6,
                queue_depth=args.queue_depth,
                tenant_quota=args.tenant_quota,
                solver_wall_budget=args.solver_budget,
            ),
        )
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(f"requests          : {report.requests}")
            print(f"accepted          : {report.accepted}")
            print(f"rejected          : {report.rejected}")
            print(f"shed              : {report.shed}")
            print(f"over-quota        : {report.over_quota}")
            print(f"wall time         : {report.wall_time:.3f}s")
            print(f"decisions/s       : {report.decisions_per_sec:.0f}")
            print(f"metrics lines     : {report.metrics_lines}")
            print(f"clean shutdown    : {report.clean_shutdown}")
        healthy = (
            report.requests == args.smoke_requests
            and report.clean_shutdown
            and report.metrics_lines > 0
        )
        return 0 if healthy else 1

    fault_plan = None
    if args.fault_plan is not None:
        from repro.faults.serve import ServeFaultPlan

        fault_plan = ServeFaultPlan.from_dict(
            json.loads(args.fault_plan.read_text(encoding="utf-8"))
        )

    platform = Platform.cpu_gpu(args.cpus, args.gpus)
    tasks = generate_task_set(platform)[: args.tasks]
    predictor = (
        None if args.predictor == "off"
        else resolve_predictor(args.predictor)
    )
    server = AdmissionServer(
        platform,
        args.strategy,
        predictor,
        tasks=tasks,
        config=config,
        fault_plan=fault_plan,
    )
    if server.recovery is not None:
        report = server.recovery
        print(
            f"repro serve: recovered {report.decisions} decisions, "
            f"{report.sheds} sheds, {report.unacked} unacked, "
            f"{report.snapshots_checked} snapshots verified from "
            f"{args.journal}"
        )

    async def _run() -> None:
        import signal

        await server.start()
        # Graceful drain on SIGTERM/SIGINT: the handler only flips the
        # shutdown event; serve_until_shutdown() does the orderly work.
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(
            f"repro serve: {args.mode} mode on "
            f"{args.host}:{server.port} "
            f"({len(tasks)} task types, strategy={args.strategy}, "
            f"predictor={args.predictor})"
        )
        print("  NDJSON admit/control frames on the socket; "
              "GET /metrics for Prometheus text")
        await server.serve_until_shutdown()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_chaos(args) -> int:
    import tempfile

    from repro.serve.chaos import ChaosConfig, run_chaos

    workdir = (
        str(args.workdir)
        if args.workdir is not None
        else tempfile.mkdtemp(prefix="repro-chaos-")
    )
    kill_at = (
        args.kill_at if args.kill_at is not None else args.requests // 2
    )
    config = ChaosConfig(
        workdir=workdir,
        seed=args.seed,
        requests=args.requests,
        kill_at=kill_at,
        tenants=args.tenants,
        cpus=args.cpus,
        gpus=args.gpus,
        tasks=args.tasks,
        strategy=args.strategy,
        queue_depth=args.queue_depth,
        tenant_quota=args.tenant_quota,
        snapshot_every=args.snapshot_every,
        latency_rate=args.latency_rate,
        corruption_rate=args.corruption_rate,
        drop_rate=args.drop_rate,
        journal_fault_rate=args.journal_fault_rate,
    )
    report = run_chaos(config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"requests          : {report.requests}")
        print(f"accepted          : {report.accepted}")
        print(f"rejected          : {report.rejected}")
        print(f"shed              : {report.shed}")
        print(f"over-quota        : {report.over_quota}")
        print(f"duplicates        : {report.duplicates}")
        print(f"journal refusals  : {report.journal_refusals}")
        print(f"restarts          : {report.restarts}")
        print(f"clean shutdown    : {report.clean_shutdown}")
        print(f"live fingerprint  : {report.live_fingerprint[:16]}…")
        print(f"replay fingerprint: {report.replay_fingerprint[:16]}…")
        if report.violations:
            print("violations:")
            for violation in report.violations:
                print(f"  - {violation}")
        else:
            print("all recovery invariants held")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "simulate": _cmd_simulate,
        "experiment": _cmd_experiment,
        "evaluate": _cmd_evaluate,
        "predict": _cmd_predict,
        "analyze": _cmd_analyze,
        "faults": _cmd_faults,
        "obs": _cmd_obs,
        "serve": _cmd_serve,
        "chaos": _cmd_chaos,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload sim-lt-learned --seed 1 --seconds 10 --trace 0

Run it from the root of a repository checkout: the benchmark imports
``repro`` from that checkout's ``src/`` and refuses to run without it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones declared in ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones.  The lines before it give the
scenario with its hash, then each metric with its unit.  ``--out FILE``
also writes the result with its scenario, for ``compare.py``.  Spans of
a traced run are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


class CheckoutError(RuntimeError):
    """The benchmark is not running inside a repository checkout."""


def _import_checkout() -> None:
    """Put the checkout's sources first on the path and import them."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no repro sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise CheckoutError(f"imported repro from {repro.__file__}, not {src}")


def declared_metrics(section: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of each metric ``BENCHMARK.json`` declares in
    ``section`` (``"end_to_end"`` or ``"per_layer"``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(metric["name"], metric["unit"]) for metric in spec[section]]


def assemble(values: dict[str, float], section: str) -> dict[str, dict]:
    """The declared metrics of ``section`` with their values and units.

    A per-layer metric of a layer the workload never runs reads 0; an
    end-to-end metric must be measured by every workload.
    """
    declared = declared_metrics(section)
    unknown = sorted(set(values) - {name for name, _ in declared})
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in declared:
        if name not in values and section == "end_to_end":
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks the inputs for the benchmark's own tests",
    )
    parser.add_argument("--out", help="also write the result record here")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        _import_checkout()
    except CheckoutError as exc:
        print(f"perfbench: {exc}; run from a repository checkout", file=sys.stderr)
        return 2

    from perfbench import servebench, simbench
    from perfbench.workloads import WORKLOADS, scenario, scenario_hash

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload].at_scale(args.scale)
    fields = scenario(
        workload, seed=args.seed, seconds=args.seconds, scale=args.scale
    )
    digest = scenario_hash(fields)
    print(f"scenario {digest} {json.dumps(fields, sort_keys=True)}", flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    bench = servebench if workload.kind == "serve" else simbench
    outcome = bench.run(
        workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        out_dir=OUT_DIR,
    )
    metrics = assemble(
        outcome.metrics, "per_layer" if args.trace else "end_to_end"
    )
    for problem in outcome.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.out:
        record = {
            "scenario": fields,
            "scenario_hash": digest,
            "trace": args.trace,
            "outputs": outcome.outputs,
            "result": result,
        }
        Path(args.out).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare two benchmark results of the same scenario.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is a result record written by ``run.py --out FILE``.  Records
whose scenario hashes differ are refused (exit status 2): a ratio between
two different scenarios -- other traces, strategy, predictor, rate, seed
or journal settings -- is not a speed-up.  Otherwise each metric is
printed with both values and the ratio to its base.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

__all__ = ["ScenarioMismatch", "compare"]


class ScenarioMismatch(ValueError):
    """The two records measure different scenarios."""


def compare(base: dict, new: dict) -> list[str]:
    """One line per metric of ``new`` against ``base``."""
    if base["scenario_hash"] != new["scenario_hash"]:
        differing = sorted(
            key
            for key in set(base["scenario"]) | set(new["scenario"])
            if base["scenario"].get(key) != new["scenario"].get(key)
        )
        raise ScenarioMismatch(
            f"scenario {base['scenario_hash']} != {new['scenario_hash']}"
            f" (differs in {', '.join(differing)})"
        )
    if base["trace"] != new["trace"]:
        raise ScenarioMismatch("one record is traced and the other is not")
    lines = []
    base_metrics = base["result"]["metrics"]
    for name, metric in new["result"]["metrics"].items():
        if name not in base_metrics:
            continue
        old, value = base_metrics[name]["value"], metric["value"]
        ratio = f"{value / old:.3f}x of base" if old else "base is 0"
        lines.append(
            f"{name}: base {old:.6g} -> new {value:.6g} {metric['unit']}"
            f" ({ratio})"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(arg).read_text(encoding="utf-8")) for arg in args)
    try:
        lines = compare(base, new)
    except ScenarioMismatch as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests for experiment-report persistence."""

import json

from repro.experiments.reporting import (
    aggregates_to_dict,
    load_report,
    save_report,
)
from repro.experiments.runner import Aggregate


def make_aggregate(label, rejections, energies):
    """An aggregate folded from cell records, as ``run_matrix`` builds it."""
    aggregate = Aggregate(label)
    for trace, (rejection, energy) in enumerate(
        zip(rejections, energies, strict=True)
    ):
        aggregate.fold(
            {
                "spec": 0,
                "trace": trace,
                "rejection_hex": float(rejection).hex(),
                "energy_hex": float(energy).hex(),
                "wall_time": 0.0,
                "solver_calls": 0,
                "verified": None,
            }
        )
    return aggregate


class TestAggregatesToDict:
    def test_summary_fields(self):
        aggregate = make_aggregate("x", [10, 20], [0.5, 0.7])
        payload = aggregates_to_dict({"x": aggregate})
        assert payload["x"]["n_traces"] == 2
        assert payload["x"]["mean_rejection"] == 15.0
        assert payload["x"]["rejections"] == [10.0, 20.0]

    def test_json_safe(self):
        aggregate = make_aggregate("x", [5], [0.25])
        json.dumps(aggregates_to_dict({"x": aggregate}))

    def test_stdev_single_trace_zero(self):
        aggregate = make_aggregate("x", [5], [0.25])
        assert aggregate.stdev_rejection == 0.0


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "report.json"
        save_report(path, "fig2", {"values": [1, 2, 3]})
        loaded = load_report(path)
        assert loaded["experiment"] == "fig2"
        assert loaded["values"] == [1, 2, 3]

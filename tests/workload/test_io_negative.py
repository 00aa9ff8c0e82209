"""Negative-path tests for workload I/O.

Truncated or corrupted trace files, out-of-range fields, and duplicate
request times must surface as structured :class:`TraceFormatError`s with
helpful context — never raw ``KeyError``/``TypeError``/``JSONDecodeError``.
"""

from __future__ import annotations

import json

import pytest

from repro.workload.io import export_requests_csv, import_requests_csv
from repro.workload.trace import Trace, TraceFormatError
from tests.conftest import make_task, make_trace


@pytest.fixture
def trace() -> Trace:
    return make_trace(
        [make_task()], [(0.0, 0, 50.0), (5.0, 0, 40.0), (9.0, 0, 60.0)]
    )


class TestJsonLoad:
    def test_truncated_json_file(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        trace.save(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # crash mid-write
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            Trace.load(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text("\x00\x01 not json at all")
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            Trace.load(path)

    def test_error_carries_the_path(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text("{")
        with pytest.raises(TraceFormatError, match="trace.json"):
            Trace.load(path)

    def test_valid_json_wrong_shape(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(TraceFormatError, match="JSON object"):
            Trace.load(path)

    def test_round_trip_still_works(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = Trace.load(path)
        assert [r.arrival for r in loaded] == [r.arrival for r in trace]


class TestFromDict:
    def test_missing_requests_list(self, trace):
        data = trace.to_dict()
        del data["requests"]
        with pytest.raises(TraceFormatError, match="truncated or corrupted"):
            Trace.from_dict(data)

    def test_mistyped_tasks_field(self, trace):
        data = trace.to_dict()
        data["tasks"] = "oops"
        with pytest.raises(TraceFormatError, match="'tasks' list"):
            Trace.from_dict(data)

    def test_task_missing_field(self, trace):
        data = trace.to_dict()
        del data["tasks"][0]["wcet"]
        with pytest.raises(TraceFormatError, match="task 0"):
            Trace.from_dict(data)

    def test_request_missing_field(self, trace):
        data = trace.to_dict()
        del data["requests"][1]["arrival"]
        with pytest.raises(TraceFormatError, match="request 1"):
            Trace.from_dict(data)

    def test_request_unparsable_field(self, trace):
        data = trace.to_dict()
        data["requests"][2]["deadline"] = "soon"
        with pytest.raises(TraceFormatError, match="request 2"):
            Trace.from_dict(data)

    def test_non_finite_arrival(self, trace):
        data = trace.to_dict()
        data["requests"][0]["arrival"] = "inf"
        with pytest.raises(TraceFormatError, match="arrival must be finite"):
            Trace.from_dict(data)

    def test_non_finite_deadline(self, trace):
        data = trace.to_dict()
        data["requests"][0]["deadline"] = "nan"
        with pytest.raises(TraceFormatError, match="deadline must be finite"):
            Trace.from_dict(data)

    def test_duplicate_arrival_times(self, trace):
        data = trace.to_dict()
        data["requests"][1]["arrival"] = data["requests"][0]["arrival"]
        with pytest.raises(TraceFormatError, match="duplicate arrival"):
            Trace.from_dict(data)

    def test_out_of_range_type_id(self, trace):
        data = trace.to_dict()
        data["requests"][0]["type_id"] = 99
        with pytest.raises(TraceFormatError, match="unknown task type"):
            Trace.from_dict(data)

    def test_unsorted_requests(self, trace):
        data = trace.to_dict()
        data["requests"][0]["arrival"] = 100.0
        with pytest.raises(TraceFormatError, match="sorted by arrival"):
            Trace.from_dict(data)

    def test_trace_format_error_is_a_value_error(self):
        # callers with pre-existing `except ValueError` keep working
        assert issubclass(TraceFormatError, ValueError)


class TestCsvImport:
    def test_wrong_header(self, trace, tmp_path):
        path = tmp_path / "requests.csv"
        path.write_text("a,b,c,d\n0,0.0,0,50.0\n")
        with pytest.raises(TraceFormatError, match="unexpected CSV header"):
            import_requests_csv(path, list(trace.tasks))

    def test_truncated_row_reports_line_number(self, trace, tmp_path):
        path = tmp_path / "requests.csv"
        export_requests_csv(trace, path)
        with open(path, "a") as handle:
            handle.write("3,12.0\n")  # torn final row
        with pytest.raises(TraceFormatError, match=r"5: expected 4 columns"):
            import_requests_csv(path, list(trace.tasks))

    def test_unparsable_field_reports_line_number(self, trace, tmp_path):
        path = tmp_path / "requests.csv"
        path.write_text(
            "index,arrival,type_id,deadline\n"
            "0,0.0,0,50.0\n"
            "1,five,0,40.0\n"
        )
        with pytest.raises(TraceFormatError, match=r"3: "):
            import_requests_csv(path, list(trace.tasks))

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("column", ["arrival", "deadline"])
    def test_non_finite_field_reports_line_number(
        self, trace, tmp_path, column, value
    ):
        row = {"arrival": "5.0", "deadline": "40.0", column: value}
        path = tmp_path / "requests.csv"
        path.write_text(
            "index,arrival,type_id,deadline\n"
            "0,0.0,0,50.0\n"
            f"1,{row['arrival']},0,{row['deadline']}\n"
        )
        with pytest.raises(
            TraceFormatError, match=rf"requests.csv:3: {column} must be finite"
        ):
            import_requests_csv(path, list(trace.tasks))

    def test_out_of_range_type_wrapped_with_path(self, trace, tmp_path):
        path = tmp_path / "requests.csv"
        path.write_text(
            "index,arrival,type_id,deadline\n0,0.0,7,50.0\n"
        )
        with pytest.raises(TraceFormatError, match="unknown task type"):
            import_requests_csv(path, list(trace.tasks))

    def test_round_trip_still_works(self, trace, tmp_path):
        path = tmp_path / "requests.csv"
        export_requests_csv(trace, path)
        loaded = import_requests_csv(path, list(trace.tasks))
        assert [r.arrival for r in loaded] == [r.arrival for r in trace]

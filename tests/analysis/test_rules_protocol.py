"""RPR2xx protocol-exhaustiveness: the real wire layer is clean, and
every way the declared surface can drift from the handled surface is
caught — including the ISSUE's acceptance demo of a synthetic error code
added to the real protocol.py without a handler."""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

from repro.analysis.lint import LINT_RULES, lint_paths
from repro.analysis.rules_protocol import (
    extract_surface,
    is_protocol_package,
)

SERVE_SRC = Path(__file__).parents[2] / "src" / "repro" / "serve"

PROTOCOL = textwrap.dedent(
    '''
    CONTROL_OPS = frozenset({"ping", "shutdown"})
    ERROR_CODES = frozenset({"bad-frame", "unknown-op"})
    '''
)

SERVER = textwrap.dedent(
    '''
    def dispatch(request, error_payload):
        if request.op == "ping":
            return {"ok": True}
        if request.op == "shutdown":
            return {"ok": True}
        return error_payload("unknown-op", "no such op")

    def reject(error_payload):
        return error_payload("bad-frame", "not JSON")
    '''
)

CLIENT = textwrap.dedent(
    '''
    def ping():
        return {"op": "ping"}

    def shutdown():
        return {"op": "shutdown"}
    '''
)


def write_package(tmp_path, protocol=PROTOCOL, server=SERVER, client=CLIENT):
    (tmp_path / "protocol.py").write_text(protocol, encoding="utf-8")
    (tmp_path / "server.py").write_text(server, encoding="utf-8")
    if client is not None:
        (tmp_path / "client.py").write_text(client, encoding="utf-8")
    return tmp_path


def protocol_findings(tmp_path, rules=frozenset(LINT_RULES)):
    return [
        f for f in lint_paths([tmp_path], rules=rules)
        if f.rule.startswith("RPR2")
    ]


class TestSurfaceExtraction:
    def test_real_serve_package(self):
        surface = extract_surface(SERVE_SRC)
        assert surface.declared_ops.keys() == {
            "ping", "metrics", "stats", "shutdown"
        }
        assert surface.has_error_registry
        assert surface.declared_codes.keys() == set(
            surface.emitted_codes
        )
        assert surface.declared_ops.keys() <= surface.server_ops
        assert surface.declared_ops.keys() <= surface.client_ops

    def test_rule_applies_only_to_protocol_packages(self):
        assert is_protocol_package(SERVE_SRC)
        assert not is_protocol_package(SERVE_SRC.parent)


class TestProtocolChecks:
    def test_consistent_package_is_clean(self, tmp_path):
        assert protocol_findings(write_package(tmp_path)) == []

    def test_unhandled_op_trips_rpr201(self, tmp_path):
        protocol = PROTOCOL.replace('"ping", "shutdown"',
                                    '"ping", "shutdown", "drain"')
        findings = protocol_findings(write_package(tmp_path, protocol))
        assert {f.rule for f in findings} == {"RPR201"}
        # unhandled by the server AND unsendable by the client
        assert len(findings) == 2
        assert all("'drain'" in f.message for f in findings)

    def test_client_gap_alone_trips_rpr201(self, tmp_path):
        client = CLIENT.replace(
            'def shutdown():\n    return {"op": "shutdown"}\n', ""
        )
        findings = protocol_findings(write_package(tmp_path, client=client))
        assert [f.rule for f in findings] == ["RPR201"]
        assert "client cannot send" in findings[0].message

    def test_serverless_package_is_ignored(self, tmp_path):
        (tmp_path / "protocol.py").write_text(PROTOCOL, encoding="utf-8")
        assert protocol_findings(tmp_path) == []

    def test_unemitted_code_trips_rpr202(self, tmp_path):
        protocol = PROTOCOL.replace('"bad-frame", "unknown-op"',
                                    '"bad-frame", "unknown-op", "dead-code"')
        findings = protocol_findings(write_package(tmp_path, protocol))
        assert [f.rule for f in findings] == ["RPR202"]
        assert "'dead-code'" in findings[0].message

    def test_undeclared_emit_trips_rpr203(self, tmp_path):
        server = SERVER + (
            '\ndef extra(error_payload):\n'
            '    return error_payload("surprise", "undeclared")\n'
        )
        findings = protocol_findings(write_package(tmp_path, server=server))
        assert [f.rule for f in findings] == ["RPR203"]
        assert "'surprise'" in findings[0].message

    def test_missing_error_registry_trips_rpr203(self, tmp_path):
        protocol = 'CONTROL_OPS = frozenset({"ping", "shutdown"})\n'
        findings = protocol_findings(write_package(tmp_path, protocol))
        assert any(
            f.rule == "RPR203" and "no ERROR_CODES registry" in f.message
            for f in findings
        )

    def test_rule_selection_gates_each_id(self, tmp_path):
        protocol = PROTOCOL.replace('"bad-frame", "unknown-op"',
                                    '"bad-frame", "unknown-op", "dead-code"')
        package = write_package(tmp_path, protocol)
        assert protocol_findings(package, rules=frozenset({"RPR201"})) == []
        assert [
            f.rule
            for f in protocol_findings(
                package, rules=frozenset({"RPR201", "RPR202"})
            )
        ] == ["RPR202"]
        # RPR202 alone still runs the check.
        assert [
            f.rule
            for f in protocol_findings(package, rules=frozenset({"RPR202"}))
        ] == ["RPR202"]


class TestAcceptanceDemo:
    """ISSUE acceptance: adding a synthetic error code to the *real*
    protocol.py without adding a handler must produce a finding."""

    def test_real_package_is_clean(self, tmp_path):
        for name in ("protocol.py", "server.py", "client.py"):
            shutil.copy(SERVE_SRC / name, tmp_path / name)
        assert protocol_findings(tmp_path) == []

    def test_synthetic_error_code_is_caught(self, tmp_path):
        for name in ("protocol.py", "server.py", "client.py"):
            shutil.copy(SERVE_SRC / name, tmp_path / name)
        protocol = (tmp_path / "protocol.py").read_text(encoding="utf-8")
        assert '"bad-type",' in protocol
        protocol = protocol.replace(
            '"bad-type",', '"bad-type",\n        "synthetic-code",', 1
        )
        (tmp_path / "protocol.py").write_text(protocol, encoding="utf-8")

        findings = protocol_findings(tmp_path)
        assert [f.rule for f in findings] == ["RPR202"]
        assert "'synthetic-code'" in findings[0].message

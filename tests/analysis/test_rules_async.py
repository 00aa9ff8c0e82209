"""RPR10x async-safety rules: each fires on its fixture, stays quiet on
clean coroutines, and catches the motivating defect when planted in the
real server source (the ISSUE's acceptance demo)."""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.analysis.lint import lint_file, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"
SERVE_SRC = Path(__file__).parents[2] / "src" / "repro" / "serve"


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


def lines_of(findings, rule) -> list[int]:
    return [f.line for f in findings if f.rule == rule]


class TestAsyncBlockingCallRule:
    def test_fixture_trips_rpr101(self):
        findings = lint_file(FIXTURES / "bad_async_blocking.py")
        assert rules_of(findings) == {"RPR101"}
        # sleep + open + socket prefix + subprocess prefix + ServeClient;
        # the same calls in the sync function stay silent.
        assert len(findings) == 5

    def test_hint_names_the_asyncio_equivalent(self):
        findings = lint_source(
            "import time\nasync def h():\n    time.sleep(1)\n"
        )
        assert rules_of(findings) == {"RPR101"}
        assert "asyncio.sleep" in findings[0].message

    def test_sync_function_is_clean(self):
        assert lint_source("import time\ndef h():\n    time.sleep(1)\n") == []

    def test_await_asyncio_sleep_is_clean(self):
        assert lint_source(
            "import asyncio\nasync def h():\n    await asyncio.sleep(1)\n"
        ) == []

    def test_nested_sync_def_inside_async_is_clean(self):
        # The blocking call sits in a nested *sync* function (e.g. an
        # executor thunk), which is exactly how the work should be moved.
        source = (
            "import time\n"
            "async def h(loop):\n"
            "    def thunk():\n"
            "        time.sleep(1)\n"
            "    await loop.run_in_executor(None, thunk)\n"
        )
        assert lint_source(source) == []


class TestUnawaitedCoroutineRule:
    def test_fixture_trips_rpr102(self):
        findings = lint_file(FIXTURES / "bad_unawaited.py")
        assert rules_of(findings) == {"RPR102"}
        assert len(findings) == 2  # asyncio.sleep + local worker()

    def test_awaited_and_scheduled_calls_are_clean(self):
        source = (
            "import asyncio\n"
            "async def w():\n"
            "    return 1\n"
            "async def main():\n"
            "    await w()\n"
            "    t = asyncio.create_task(w())\n"
            "    await t\n"
        )
        assert lint_source(source) == []

    def test_plain_function_bare_call_is_clean(self):
        assert lint_source("def f():\n    return 1\nf()\n") == []


class TestSharedStateRule:
    MODULE = "repro.serve.fixture"

    def test_fixture_trips_rpr103(self):
        findings = lint_file(
            FIXTURES / "bad_shared_state.py", module=self.MODULE
        )
        assert rules_of(findings) == {"RPR103"}
        # attribute assign + subscript write + four mutator calls (two
        # on the engine's shared admission step); the dispatcher's own
        # mutations and read-only access stay silent.
        assert len(findings) == 6

    def test_outside_serve_modules_is_clean(self):
        findings = lint_file(
            FIXTURES / "bad_shared_state.py", module="repro.sim.fixture"
        )
        assert findings == []


class TestServeClockRule:
    MODULE = "repro.serve.fixture"

    def test_fixture_trips_rpr104(self):
        findings = lint_file(
            FIXTURES / "bad_serve_clock.py", module=self.MODULE
        )
        # monotonic + wall + loop.time(); the wall/monotonic reads also
        # trip the everywhere-rule RPR002, which is fine — RPR104 adds
        # the serve-specific WallClock message.
        assert lines_of(findings, "RPR104") == [12, 13, 15]

    def test_clock_module_is_exempt(self):
        findings = lint_file(
            FIXTURES / "bad_serve_clock.py", module="repro.serve.clock"
        )
        assert lines_of(findings, "RPR104") == []

    def test_non_serve_modules_are_exempt(self):
        source = "import time\nt = time.monotonic()\n"
        findings = lint_source(source, module="repro.obs.tracing")
        assert lines_of(findings, "RPR104") == []

    def test_clean_fixture_is_clean(self):
        assert lint_file(FIXTURES / "clean_async.py",
                         module=self.MODULE) == []


class TestAcceptanceDemo:
    """ISSUE acceptance: deliberately inserting ``time.sleep`` into an
    ``async def`` in the real server source must produce a finding."""

    def test_real_server_source_is_clean_for_rpr101(self):
        findings = lint_file(SERVE_SRC / "server.py")
        assert lines_of(findings, "RPR101") == []
        assert lines_of(findings, "RPR102") == []

    def test_planted_sleep_in_server_is_caught(self, tmp_path):
        source = (SERVE_SRC / "server.py").read_text(encoding="utf-8")
        lines = source.splitlines(keepends=True)
        # Plant the blocking call as the first statement of the async
        # connection handler — the classic copy-paste defect.
        anchor = next(
            i for i, line in enumerate(lines)
            if line.lstrip().startswith("async def _handle_connection")
        )
        # The signature may span lines; plant after its closing colon.
        body_at = next(
            i for i in range(anchor, len(lines))
            if lines[i].rstrip().endswith(":")
        )
        indent = " " * (len(lines[anchor]) - len(lines[anchor].lstrip()) + 4)
        lines.insert(body_at + 1, f"{indent}time.sleep(0.01)\n")
        lines.insert(0, "import time\n")
        planted = tmp_path / "server.py"
        planted.write_text("".join(lines), encoding="utf-8")
        shutil.copy(SERVE_SRC / "protocol.py", tmp_path / "protocol.py")
        shutil.copy(SERVE_SRC / "client.py", tmp_path / "client.py")

        findings = lint_paths([tmp_path])
        assert "RPR101" in rules_of(findings)
        (finding,) = [f for f in findings if f.rule == "RPR101"]
        assert "time.sleep" in finding.message

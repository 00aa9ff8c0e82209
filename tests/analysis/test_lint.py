"""Each custom lint rule must fire on its fixture and stay quiet on
clean code — including the repo's own sources."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import (
    LINT_RULES,
    Baseline,
    LintConfig,
    default_baseline_path,
    lint_file,
    lint_package,
    lint_paths,
    lint_source,
    render_findings,
    select_rules,
)

FIXTURES = Path(__file__).parent / "fixtures"


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


def lines_of(findings, rule) -> list[int]:
    return [f.line for f in findings if f.rule == rule]


class TestRandomnessRule:
    def test_fixture_trips_rpr001(self):
        findings = lint_file(FIXTURES / "bad_randomness.py")
        assert rules_of(findings) == {"RPR001"}
        # stdlib seed/random/randint + numpy seed/rand + three unseeded
        # generators; the seeded block and the noqa line stay silent.
        assert len(findings) == 8

    def test_unseeded_default_rng_flagged_inline(self):
        findings = lint_source(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert rules_of(findings) == {"RPR001"}

    def test_seeded_default_rng_is_clean(self):
        findings = lint_source(
            "import numpy as np\nrng = np.random.default_rng(7)\n"
        )
        assert findings == []

    def test_alias_resolution(self):
        findings = lint_source(
            "from numpy import random as nprand\nnprand.shuffle([1])\n"
        )
        assert rules_of(findings) == {"RPR001"}

    def test_noqa_suppression(self):
        findings = lint_source(
            "import random\nrandom.random()  # noqa: RPR001\n"
        )
        assert findings == []

    def test_bare_noqa_suppression(self):
        findings = lint_source("import random\nrandom.random()  # noqa\n")
        assert findings == []

    def test_wrong_code_noqa_does_not_suppress(self):
        findings = lint_source(
            "import random\nrandom.random()  # noqa: RPR002\n"
        )
        assert rules_of(findings) == {"RPR001"}


class TestWallClockRule:
    def test_fixture_trips_rpr002(self):
        # module override: on its real tests/ path the fixture would
        # enjoy the tests.* monotonic exemption.
        findings = lint_file(
            FIXTURES / "bad_wall_clock.py", module="repro.sim.fixture"
        )
        assert rules_of(findings) == {"RPR002"}
        # three wall-clock reads + two misplaced monotonic timers
        assert len(findings) == 5

    def test_monotonic_allowed_in_observability_modules(self):
        source = "import time\nwall = time.perf_counter()\n"
        assert lint_source(source, module="repro.experiments.runner") == []
        assert lint_source(source, module="repro.cli") == []
        assert rules_of(lint_source(source, module="repro.sim.state")) == {
            "RPR002"
        }

    def test_wall_clock_banned_everywhere(self):
        source = "import time\nnow = time.time()\n"
        assert rules_of(
            lint_source(source, module="repro.experiments.runner")
        ) == {"RPR002"}

    def test_datetime_alias(self):
        findings = lint_source(
            "from datetime import datetime as dt\nstamp = dt.now()\n"
        )
        assert rules_of(findings) == {"RPR002"}


class TestRegistryRule:
    def test_fixture_trips_rpr003(self):
        # module override: tests.* may construct registered classes
        # directly, so the fixture is linted as library code.
        findings = lint_file(
            FIXTURES / "bad_registry.py", module="repro.sim.fixture"
        )
        assert rules_of(findings) == {"RPR003"}
        assert len(findings) == 2  # NullPredictor stays exempt

    def test_tests_may_construct_directly(self):
        findings = lint_file(FIXTURES / "bad_registry.py")
        assert lines_of(findings, "RPR003") == []

    def test_defining_packages_are_exempt(self):
        source = (
            "from repro.core.heuristic import HeuristicResourceManager\n"
            "s = HeuristicResourceManager()\n"
        )
        assert lint_source(source, module="repro.registry") == []
        assert lint_source(source, module="repro.core.milp") == []
        assert rules_of(
            lint_source(source, module="repro.experiments.fig2_rejection")
        ) == {"RPR003"}


class TestRunSpecRule:
    def test_fixture_trips_rpr004(self):
        findings = lint_file(FIXTURES / "bad_runspec.py")
        assert rules_of(findings) == {"RPR004"}
        assert len(findings) == 3  # two lambdas + one closure

    def test_module_level_factory_is_fine(self):
        source = (
            "from repro.experiments.runner import RunSpec\n"
            "def factory():\n"
            "    return None\n"
            "spec = RunSpec('ok', factory)\n"
        )
        assert lint_source(source) == []


class TestInfrastructure:
    def test_syntax_error_yields_rpr000(self):
        findings = lint_source("def broken(:\n")
        assert rules_of(findings) == {"RPR000"}

    def test_rule_filtering(self):
        config = LintConfig(rules=frozenset({"RPR002"}))
        findings = lint_source(
            "import random, time\nrandom.random()\ntime.time()\n",
            config=config,
        )
        assert rules_of(findings) == {"RPR002"}

    def test_lint_paths_walks_directories(self):
        # The default config excludes the fixture tree (it is scanned as
        # part of tests/ by --self); walking it explicitly needs the
        # exclusion lifted.
        assert lint_paths([FIXTURES]) == []
        findings = lint_paths([FIXTURES], config=LintConfig(exclude_globs=()))
        # RPR003 / monotonic-RPR002 are absent by design: walked on
        # their real path the fixtures carry the tests.* exemptions.
        assert {"RPR001", "RPR002", "RPR004", "RPR101", "RPR102"} <= rules_of(
            findings
        )

    def test_explicit_file_bypasses_exclusion(self):
        findings = lint_paths([FIXTURES / "bad_randomness.py"])
        assert rules_of(findings) == {"RPR001"}

    def test_clean_fixture_is_clean(self):
        assert lint_file(FIXTURES / "clean_module.py") == []

    def test_render_findings(self):
        findings = lint_file(
            FIXTURES / "bad_registry.py", module="repro.sim.fixture"
        )
        text = render_findings(findings)
        assert "RPR003" in text
        assert f"{len(findings)} finding(s)" in text
        assert render_findings([]) == "lint: clean (0 findings)"

    def test_rule_catalogue_is_stable(self):
        # Rule ids are a public contract: baselines, noqa comments and
        # --rules selectors all reference them.  Removing or renaming
        # one is a breaking change and must update this test.
        assert set(LINT_RULES) == {
            "RPR000", "RPR001", "RPR002", "RPR003", "RPR004",
            "RPR101", "RPR102", "RPR103", "RPR104",
            "RPR201", "RPR202", "RPR203",
        }
        assert all(LINT_RULES.values())


class TestRuleSelection:
    def test_exact_ids(self):
        assert select_rules(["RPR001", "RPR002"]) == frozenset(
            {"RPR001", "RPR002"}
        )

    def test_family_prefix_expands(self):
        assert select_rules(["RPR10"]) == frozenset(
            {"RPR101", "RPR102", "RPR103", "RPR104"}
        )
        assert select_rules(["RPR2"]) == frozenset(
            {"RPR201", "RPR202", "RPR203"}
        )

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="unknown rule selector"):
            select_rules(["RPR9"])

    def test_selection_disables_other_rules(self):
        config = LintConfig(rules=select_rules(["RPR002"]))
        findings = lint_source(
            "import random, time\nrandom.random()\ntime.time()\n",
            config=config,
        )
        assert rules_of(findings) == {"RPR002"}


class TestRngTaint:
    def test_fixture_trips_taint_pass(self):
        findings = lint_file(FIXTURES / "bad_rng_taint.py")
        assert rules_of(findings) == {"RPR001"}
        # one direct unseeded default_rng + two unseeded make_rng calls
        # + one call to the never-seeded helper
        assert len(findings) == 4

    def test_seeded_helper_call_is_clean(self):
        source = (
            "import numpy as np\n"
            "def make_rng(seed=None):\n"
            "    return np.random.default_rng(seed)\n"
            "rng = make_rng(42)\n"
        )
        assert lint_source(source) == []

    def test_unseeded_helper_call_is_flagged(self):
        source = (
            "import numpy as np\n"
            "def make_rng(seed=None):\n"
            "    return np.random.default_rng(seed)\n"
            "rng = make_rng()\n"
        )
        findings = lint_source(source)
        assert rules_of(findings) == {"RPR001"}
        assert lines_of(findings, "RPR001") == [4]
        assert "laundered" in findings[0].message

    def test_required_seed_helper_is_not_a_taint_source(self):
        # A helper whose seed has no None default must be seeded by its
        # signature; calling it is never flagged.
        source = (
            "import numpy as np\n"
            "def make_rng(seed):\n"
            "    return np.random.default_rng(seed)\n"
            "rng = make_rng(derive())\n"
        )
        assert lint_source(source) == []

    def test_assign_then_return_helper_is_a_taint_source(self):
        # the generator can leave through a local, not just a direct
        # `return default_rng(...)`
        source = (
            "import numpy as np\n"
            "def fit_ar(series, seed=None):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng\n"
            "coeffs = fit_ar([1.0])\n"
        )
        findings = lint_source(source, module="repro.predict.demand")
        assert rules_of(findings) == {"RPR001"}
        assert lines_of(findings, "RPR001") == [5]

    def test_class_seed_laundering_flagged_at_construction(self):
        source = (
            "import numpy as np\n"
            "class Detector:\n"
            "    def __init__(self, seed=None):\n"
            "        self._rng = np.random.default_rng(seed)\n"
            "detector = Detector()\n"
        )
        findings = lint_source(source, module="repro.predict.drift")
        assert rules_of(findings) == {"RPR001"}
        assert lines_of(findings, "RPR001") == [5]
        assert "__init__" in findings[0].message

    def test_seeded_class_construction_is_clean(self):
        source = (
            "import numpy as np\n"
            "class Detector:\n"
            "    def __init__(self, seed=None):\n"
            "        self._rng = np.random.default_rng(seed)\n"
            "detector = Detector(seed=7)\n"
        )
        assert lint_source(source, module="repro.predict.drift") == []

    def test_int_defaulted_class_seed_is_not_a_taint_source(self):
        # the repro.predict.noisy shape: seed=0 is deterministic even
        # when the caller omits it
        source = (
            "import numpy as np\n"
            "class Noisy:\n"
            "    def __init__(self, seed=0):\n"
            "        self._rng = np.random.default_rng(seed)\n"
            "noisy = Noisy()\n"
        )
        assert lint_source(source) == []

    def test_predict_fixture_trips_taint_pass(self):
        findings = lint_file(FIXTURES / "bad_predict_rng.py")
        assert rules_of(findings) == {"RPR001"}
        # two unseeded fit_ar calls + two unseeded Detector constructions
        assert len(findings) == 4
        assert lines_of(findings, "RPR001") == [25, 26, 28, 29]

    def test_clean_predict_fixture_is_clean(self):
        assert lint_file(FIXTURES / "clean_predict_rng.py") == []


class TestMonotonicAllowlist:
    """Satellite #2: the RPR002 allowlist moved into LintConfig; the
    original hardcoded behaviour for sim/sched/core must be preserved
    and the serve extensions must be config, not special cases."""

    SOURCE = "import time\nwall = time.perf_counter()\n"

    @pytest.mark.parametrize("module", [
        "repro.sim.state", "repro.sched.milp", "repro.core.heuristic",
        "repro.serve.server", "repro.serve.depository",
    ])
    def test_monotonic_still_banned_in_deterministic_logic(self, module):
        assert rules_of(lint_source(self.SOURCE, module=module)) >= {
            "RPR002"
        }

    @pytest.mark.parametrize("module", [
        "repro.experiments.runner", "repro.cli",
        "repro.obs.tracing", "repro.serve.clock", "repro.serve.smoke",
        "tests.serve.test_server",
    ])
    def test_monotonic_allowed_in_timing_layers(self, module):
        findings = lint_source(self.SOURCE, module=module)
        assert lines_of(findings, "RPR002") == []

    def test_allowlist_is_configurable(self):
        config = LintConfig(monotonic_allowed_prefixes=("my.pkg",))
        assert lint_source(self.SOURCE, module="my.pkg.timer",
                           config=config) == []
        assert rules_of(
            lint_source(self.SOURCE, module="repro.cli", config=config)
        ) == {"RPR002"}


class TestSelfLint:
    def test_repro_package_is_clean_modulo_baseline(self):
        # The repo's own contract (and what CI enforces via
        # ``repro analyze --self``): every finding is either fixed or
        # carries a justified baseline entry — and no entry is stale.
        baseline_path = default_baseline_path()
        assert baseline_path is not None
        result = Baseline.load(baseline_path).apply(lint_package())
        assert result.kept == [], render_findings(result.kept)
        assert result.unused == []

    def test_lint_package_scans_the_test_suite(self):
        # tests/ is part of the scanned tree (satellite #3): the same
        # findings vanish when it is excluded only because the tree is
        # clean — prove the scan actually visits it by planting the
        # fixture exclusion's absence.
        findings_with = lint_package(LintConfig(exclude_globs=()))
        findings_without = lint_package(
            LintConfig(exclude_globs=()), include_tests=False
        )
        fixture_findings = {
            f.rule for f in findings_with
            if "tests/analysis/fixtures" in str(f.path)
        }
        assert {"RPR001", "RPR002", "RPR004", "RPR101"} <= fixture_findings
        assert all(
            "tests" not in str(f.path) for f in findings_without
        )

"""The public API surface: everything advertised in ``repro.__all__``
imports, and the README quickstart runs verbatim."""

import importlib

import pytest

import repro


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_sorted_within_sections_and_unique(self):
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_no_private_names_advertised(self):
        for name in repro.__all__:
            assert not name.startswith("_") or name == "__version__", name

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_symbol

    def test_serve_names_resolve_lazily(self):
        # The server stack must not load with `import repro`...
        import subprocess
        import sys

        probe = (
            "import sys, repro; "
            "assert 'repro.serve.server' not in sys.modules, 'eager'; "
            "assert 'asyncio' not in sys.modules, 'asyncio leaked'; "
            "repro.ServeConfig; "
            "assert 'repro.serve.server' in sys.modules, 'lazy broken'"
        )
        subprocess.run(
            [sys.executable, "-c", probe], check=True, timeout=120
        )

    def test_engine_layers_do_not_load_the_service(self):
        # The simulator, the RM strategies and the experiment harness
        # run on the platform state's logical time: none of them may
        # pull in any part of repro.serve.
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "import repro.sim, repro.core, repro.experiments\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.split('.')[:2] == ['repro', 'serve'])\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run(
            [sys.executable, "-c", probe], check=True, timeout=120
        )

    def test_only_a_milp_solve_loads_scipy(self):
        # The server and heuristic replays never touch scipy; the MILP
        # backend is imported on the first solve that needs it.
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "import repro.serve.server\n"
            "assert 'scipy' not in sys.modules, 'server import'\n"
            "from repro import (DeadlineGroup, Platform, TraceConfig,\n"
            "    generate_task_set, generate_trace, simulate)\n"
            "platform = Platform.cpu_gpu(n_cpus=5, n_gpus=1)\n"
            "trace = generate_trace(generate_task_set(platform),\n"
            "    TraceConfig(group=DeadlineGroup.VT, n_requests=30))\n"
            "simulate(trace, platform, 'heuristic', 'oracle')\n"
            "assert 'scipy' not in sys.modules, 'heuristic simulate'\n"
            "result = simulate(trace, platform, 'milp', 'oracle')\n"
            "assert 'scipy.optimize' in sys.modules, 'milp backend'\n"
            "assert result.n_accepted > 0, 'milp solved nothing'\n"
        )
        subprocess.run(
            [sys.executable, "-c", probe], check=True, timeout=120
        )

    def test_serve_classes_importable_from_top_level(self):
        from repro import (
            AdmissionServer,
            ServeClient,
            ServeConfig,
            WallClock,
        )

        assert WallClock is not None
        assert ServeConfig().mode == "live"
        assert AdmissionServer is not None
        assert ServeClient is not None

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.model",
            "repro.workload",
            "repro.sched",
            "repro.milp",
            "repro.core",
            "repro.predict",
            "repro.sim",
            "repro.experiments",
            "repro.util",
            "repro.serve",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_readme_quickstart(self):
        # Keep this in sync with the README / package-docstring example.
        from repro import (
            DeadlineGroup,
            Platform,
            TraceConfig,
            generate_task_set,
            generate_trace,
            simulate,
        )

        platform = Platform.cpu_gpu(n_cpus=5, n_gpus=1)
        tasks = generate_task_set(platform)
        trace = generate_trace(
            tasks, TraceConfig(group=DeadlineGroup.VT, n_requests=30)
        )
        off = simulate(trace, platform, "heuristic")
        on = simulate(trace, platform, "heuristic", "oracle")
        assert 0.0 <= off.rejection_percentage <= 100.0
        assert 0.0 <= on.rejection_percentage <= 100.0

    def test_registry_and_executor_exported(self):
        from repro import (
            Aggregate,
            RunSpec,
            resolve_predictor,
            resolve_strategy,
            run_matrix,
        )

        assert callable(run_matrix)
        assert RunSpec.from_names("x", strategy="heuristic").label == "x"
        assert Aggregate(label="x").n_traces == 0
        assert resolve_strategy("heuristic") is not None
        assert resolve_predictor("oracle") is not None


class TestExamplesImportable:
    @pytest.mark.parametrize(
        "example",
        [
            "quickstart",
            "motivational_example",
            "custom_platform",
            "online_predictors",
            "accuracy_sweep",
            "overhead_sweep",
        ],
    )
    def test_example_compiles(self, example):
        import pathlib
        import py_compile

        path = (
            pathlib.Path(__file__).parent.parent / "examples" / f"{example}.py"
        )
        py_compile.compile(str(path), doraise=True)

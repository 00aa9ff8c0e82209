"""Repository hygiene: no build artefacts, no untested packages.

Compiled bytecode is machine- and version-specific noise that bloats
diffs and can shadow real sources; ``.gitignore`` keeps it out of new
commits and this test keeps it from ever being re-added.  The mirror
check keeps the test tree honest: every ``src/repro/*`` package must
have a ``tests/`` package of the same name with at least one test
module, so a new subsystem cannot land without a home for its tests.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files() -> list[str]:
    if shutil.which("git") is None:
        pytest.skip("git not available")
    proc = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        pytest.skip(f"not a git checkout: {proc.stderr.strip()}")
    return proc.stdout.splitlines()

def test_no_bytecode_or_cache_dirs_tracked():
    offenders = [
        path
        for path in _tracked_files()
        if "__pycache__" in path.split("/")
        or path.endswith((".pyc", ".pyo"))
    ]
    assert offenders == [], (
        "bytecode artefacts are tracked by git (remove them and rely on "
        f".gitignore): {offenders}"
    )


def test_no_packaging_metadata_tracked():
    # setuptools rewrites *.egg-info on every install, so a tracked copy
    # goes stale as soon as a module is added or deleted.
    offenders = [
        path
        for path in _tracked_files()
        if any(part.endswith(".egg-info") for part in path.split("/"))
    ]
    assert offenders == [], (
        "packaging metadata is tracked by git (remove it and rely on "
        f".gitignore): {offenders}"
    )


def test_gitignore_covers_generated_artefacts():
    gitignore = (REPO_ROOT / ".gitignore").read_text()
    for pattern in ("__pycache__", "/BENCH_*.json", ".hypothesis"):
        assert pattern in gitignore, f".gitignore misses {pattern!r}"


#: Top-level ``src/repro/*.py`` modules whose tests live in flat
#: ``tests/test_<name>.py`` files rather than a mirror package.
_UNMIRRORED_MODULES = {
    "__init__": "tests/test_public_api.py",
    "__main__": "tests/test_cli.py",
    "cli": "tests/test_cli.py",
    "registry": "tests/test_registry.py",
}


def _source_packages() -> list[Path]:
    return sorted(
        path
        for path in (REPO_ROOT / "src" / "repro").iterdir()
        if path.is_dir() and (path / "__init__.py").is_file()
    )


def test_every_source_package_has_a_mirror_test_package():
    missing = []
    for package in _source_packages():
        mirror = REPO_ROOT / "tests" / package.name
        if not any(mirror.glob("test_*.py")):
            missing.append(f"{package.name} -> tests/{package.name}/")
    assert missing == [], (
        "source packages without a mirror tests/ package holding at "
        f"least one test_*.py module: {missing}"
    )


def test_every_top_level_module_is_tested():
    for path in sorted((REPO_ROOT / "src" / "repro").glob("*.py")):
        covering = _UNMIRRORED_MODULES.get(path.stem)
        assert covering is not None, (
            f"src/repro/{path.name} has no entry in _UNMIRRORED_MODULES; "
            "add its test file mapping (or move it into a package)"
        )
        assert (REPO_ROOT / covering).is_file(), (
            f"{covering} (claimed cover of src/repro/{path.name}) is missing"
        )


def test_every_test_module_is_collected():
    """A test file pytest cannot collect is silent coverage loss.

    Guards the classic failure modes: a module whose import crashes at
    collection, a basename collision between test packages (rootdir
    collection without ``__init__.py`` files errors on duplicates), or a
    file full of helpers with nothing pytest recognises as a test.  The
    subprocess neutralises ``addopts`` so slow-marked modules are
    collected too.
    """
    import sys

    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "--collect-only",
            "-q",
            "-o",
            "addopts=",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, (
        f"collection failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
    )
    collected = {
        line.split("::", 1)[0]
        for line in proc.stdout.splitlines()
        if "::" in line
    }
    on_disk = {
        str(path.relative_to(REPO_ROOT))
        for path in (REPO_ROOT / "tests").rglob("test_*.py")
    }
    uncollected = sorted(on_disk - collected)
    assert uncollected == [], (
        "test modules on disk that pytest collected nothing from "
        f"(import error, duplicate basename, or no tests): {uncollected}"
    )

"""The package surface that code outside the package imports: the benchmark
and the demo scripts, read as source, every module's __all__, and what
importing the package root loads."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lohe_sync

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("scripts/*.py"))


def _imported_names(path):
    """(module, name) for each name the file imports from lohe_sync, with
    name None for a plain `import lohe_sync.x`; imports inside functions
    count too."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "lohe_sync":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lohe_sync":
                    yield alias.name, None


def test_bench_and_scripts_import_only_names_that_exist():
    assert CALLERS, "no bench or scripts sources found"
    missing = []
    for path in CALLERS:
        for module, name in _imported_names(path):
            mod = importlib.import_module(module)
            if name is not None and not hasattr(mod, name):
                try:  # `from package import submodule`
                    importlib.import_module(f"{module}.{name}")
                except ModuleNotFoundError:
                    missing.append(f"{path.relative_to(ROOT)}: {module}.{name}")
    assert not missing, missing


@pytest.mark.parametrize(
    "argv",
    [["two_oscillator_regimes.py"], ["identical_sync_demo.py"], ["identical_sync_demo.py", "--potential"]],
    ids=["two_oscillator_regimes", "identical_sync_demo", "identical_sync_demo_potential"],
)
def test_demo_script_runs(tmp_path, argv):
    # the demo scripts read gram_series and the diagnostics records end to
    # end, which no other test does; any non-zero exit fails
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    script = [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]]
    subprocess.run(script, check=True, env=env, cwd=tmp_path, stdout=subprocess.DEVNULL, timeout=300)


@pytest.mark.parametrize(
    "module",
    ["lohe_sync"] + [f"lohe_sync.{m.name}" for m in pkgutil.iter_modules(lohe_sync.__path__)],
)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing


def test_package_import_loads_no_numpy():
    # the command line sets its BLAS thread count before numpy loads, so
    # the package root must leave numpy to the first name it hands out
    code = "import sys, lohe_sync\nassert 'numpy' not in sys.modules, 'numpy imported'\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)

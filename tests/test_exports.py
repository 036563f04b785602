"""Every name a module exports in ``__all__`` is an attribute of it, the
package imports nothing outside the standard library but numpy, and not
``numpy.random`` either, no module imports a name that it never uses,
and every private module-level name is used somewhere in the package.

Tools that wrap the public functions find them through ``__all__``, so a
stale entry left behind when a name is removed must fail here; so must
an import left behind when the last use of a name moves elsewhere, and a
private helper left behind when its last caller goes.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bousspec

# importing ``__main__`` would run the command line
MODULES = ["bousspec"] + [
    f"bousspec.{info.name}"
    for info in pkgutil.iter_modules(bousspec.__path__)
    if info.name != "__main__"
]


SOURCES = sorted(Path(bousspec.__file__).resolve().parent.glob("*.py"))


def _unused_imports(source):
    """Names that the module ``source`` imports but never uses; a name in
    ``__all__`` or in an annotation, string annotations included, counts
    as used."""
    tree = ast.parse(source)
    imported, used, annotations = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used.update(n.id for n in ast.walk(ast.parse(note.value))
                        if isinstance(n, ast.Name))
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_every_kind_of_use():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .grid import GridSpec, make_grid, _check_size\n"
        "from .fields import norm, l2_inner\n"
        "__all__ = ['make_grid']\n"
        "def f(x: GridSpec, y: 'l2_inner') -> None:\n"
        "    return np.sum(x)\n"
    )
    assert _unused_imports(source) == ["_check_size", "norm", "os"]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _unreferenced_private_names(sources):
    """``module.name`` of each private function, class or constant that
    a module of ``sources`` (module name to source text) defines at
    module level and that no module uses: a use is a name read in its
    own module outside its own definition, or an import of it into
    another module (where the unused-import check holds it to a use)."""
    defined, used = set(), set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ImportFrom):
                used.update((node.module, alias.name) for alias in node.names)
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                own = {n.id for target in targets for n in ast.walk(target)
                       if isinstance(n, ast.Name)}
            else:
                own = set()
            defined.update((module, name) for name in own if _private(name))
            used.update((module, n.id) for n in ast.walk(node)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load) and n.id not in own)
    return sorted(f"{module}.{name}" for module, name in defined - used)


def test_no_unreferenced_private_names():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert _unreferenced_private_names(sources) == []


def test_unreferenced_check_sees_every_kind_of_use():
    sources = {
        "grid": (
            "_LIMIT = 4\n"
            "_UNUSED: int = 5\n"
            "def _check(n):\n"
            "    return n <= _LIMIT\n"
            "def _exported():\n"
            "    return _exported\n"
            "class _Dead:\n"
            "    def f(self):\n"
            "        return _Dead()\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
        ),
        "fields": (
            "from .grid import _exported\n"
            "def _helper():\n"
            "    pass\n"
            "def run():\n"
            "    return _check, _exported\n"
        ),
    }
    assert _unreferenced_private_names(sources) == [
        "fields._helper", "grid._Dead", "grid._UNUSED", "grid._check"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _fresh_python(code):
    """Standard output of ``code`` run by a fresh interpreter with every
    warning an error, so that modules the tests import do not count."""
    src = str(Path(bousspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return proc.stdout


def test_numpy_is_the_only_runtime_dependency():
    code = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "roots = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(roots - set(sys.stdlib_module_names)))\n"
    )
    assert _fresh_python(code).split() == ["bousspec", "numpy"]


def test_runs_do_not_import_numpy_random():
    # rough data, a few steps and the oracle check: the paths of a run
    code = (
        "import os, sys, tempfile\n"
        "from bousspec import PhysicalParams, make_grid, synthesize_initial\n"
        "from bousspec.cli import main\n"
        "from bousspec.stepper import (SimulationState, StepperConfig,\n"
        "                              run_simulation)\n"
        "grid = make_grid(2, 8)\n"
        "u, theta = synthesize_initial('rough_h1', grid, seed=3)\n"
        "run_simulation(StepperConfig(1e-3, t_final=5e-3),\n"
        "               PhysicalParams(0.05, 0.05), grid,\n"
        "               SimulationState(u, theta))\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    cfg = os.path.join(tmp, 'run.cfg')\n"
        "    with open(cfg, 'w') as fh:\n"
        "        fh.write('dim = 2\\nmodes = 8\\nt_final = 0.01\\n')\n"
        "    assert main(['oracle-check', cfg, '--quiet']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert _fresh_python(code).split() == ["False"]


def _numpy_random_uses(source):
    """Line numbers of ``np.random`` or ``numpy.random`` in ``source``,
    as an attribute or as an imported module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        if any(name.split(".")[:2] in (["np", "random"], ["numpy", "random"])
               for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_numpy_random(path):
    assert _numpy_random_uses(path.read_text()) == []


def test_numpy_random_check_sees_every_kind_of_use():
    source = (
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy import random\n"
        "from numpy.random import default_rng\n"
        "rng = np.random.default_rng(0)\n"
        "x = np.randomize, numpy.linalg\n"
    )
    assert _numpy_random_uses(source) == [2, 3, 4, 5]

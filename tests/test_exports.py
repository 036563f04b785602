"""Every name a module exports in ``__all__`` is an attribute of it, and
the package imports nothing outside the standard library but numpy.

Tools that wrap the public functions find them through ``__all__``, so a
stale entry left behind when a name is removed must fail here.
"""

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


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_numpy_is_the_only_runtime_dependency():
    # a fresh interpreter, so that modules the tests import do not count
    src = str(Path(bousspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "roots = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(roots - set(sys.stdlib_module_names)))\n"
    )
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert proc.stdout.split() == ["bousspec", "numpy"]

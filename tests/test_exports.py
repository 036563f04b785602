"""Every name a module exports in ``__all__`` is an attribute of it.

Tools that wrap the public functions find them through ``__all__``, so a
stale entry left behind when a name is removed must fail here.
"""

import importlib
import pkgutil

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

"""The package's export lists name only what exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import allocsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(allocsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"allocsim.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    # every name `__init__` imports, read from its source (the star import
    # through errors.__all__), is bound on its module and on the package
    tree = ast.parse(Path(allocsim.__file__).read_text())
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"allocsim.{node.module}")
            names = (module.__all__ if node.names[0].name == "*"
                     else [alias.name for alias in node.names])
            missing += [f"{node.module}.{n}" for n in names if not hasattr(module, n)]
            missing += [n for n in names if not hasattr(allocsim, n)]
    assert missing == []

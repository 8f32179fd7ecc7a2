"""Public names: every declared or re-exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rscert

MODULES = sorted(m.name for m in pkgutil.iter_modules(rscert.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"rscert.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_package_imports_resolve_to_public_names():
    tree = ast.parse(Path(rscert.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"rscert.{node.module}")
        public = getattr(mod, "__all__", None)
        for alias in node.names:
            assert hasattr(mod, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(rscert, alias.asname or alias.name)
            if public is not None:
                assert alias.name in public, f"{node.module}.{alias.name} is not public"

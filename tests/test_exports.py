"""Public names: every declared or re-exported name resolves."""

import ast
import importlib
import importlib.util
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


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    """The benchmark's tracer wraps these by name; each must still exist."""
    tracing = _tracing()
    for _, module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    for _, module, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert callable(getattr(cls, attr, None)), f"{module}.{cls_name}.{attr}"

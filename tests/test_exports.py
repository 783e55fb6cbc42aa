"""The package's export lists and its independence from the tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import thermaldrift

SRC = Path(thermaldrift.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(thermaldrift.__path__))


@pytest.mark.parametrize("name", ["thermaldrift"]
                         + [f"thermaldrift.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_src_does_not_import_tests():
    """The tests' oracle stays in the tests: no package module imports a
    test module."""
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names
                          if n.split(".")[0] in test_modules]
    assert offenders == []

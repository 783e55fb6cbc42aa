"""The package's export lists and its independence from the tests."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import thermaldrift
from thermaldrift import cli

SRC = Path(thermaldrift.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
MODULES = sorted(info.name for info in pkgutil.iter_modules(thermaldrift.__path__))

#: an import that a package module keeps only for the benchmark's tracer:
#: (imported name, "<module>.<name>" the comment says is wrapped)
KEPT_FOR_TRACER = re.compile(
    r"^\s*(\w+),?\s+# noqa: F401  "
    r"kept: perfbench/layers\.py wraps (\w+\.\w+)$", re.MULTILINE)


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


def test_benchmark_wrappers_install_and_restore(monkeypatch, tmp_path):
    """Every package attribute the benchmark's tracer wraps exists: both
    hook sets install, and restore() puts each original back.  With the
    tracer installed, plan-steady and a one-scenario simulate (run inline,
    not forked) record calls in each per-layer row they exercise."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    modules = [importlib.import_module(f"thermaldrift.{m}") for m in MODULES]
    before = [dict(vars(m)) for m in modules]

    def replaced():
        return sorted(f"{m.__name__}.{name}"
                      for m, attrs in zip(modules, before)
                      for name, value in attrs.items()
                      if getattr(m, name) is not value)

    patcher = tracer.Patcher()
    tr = tracer.Tracer()
    out = str(tmp_path / "out")
    try:
        layers.install_capture(patcher, types.SimpleNamespace())
        layers.install_trace(patcher, tr)
        wrapped = replaced()
        assert cli.main(["plan-steady", "--out", out, "--arc", "20"]) == 0
        assert cli.main(["simulate", "--out", out]) == 0
    finally:
        patcher.restore()
    assert "thermaldrift.sim.run" in wrapped
    assert "thermaldrift.control.linearize" in wrapped
    # each import kept for a wrapper names its own module's attribute, and
    # the tracer wraps it; once it no longer does, the import goes
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    kept = [(f"thermaldrift.{stem}.{name}", f"thermaldrift.{target}")
            for stem, text in sorted(sources.items())
            for name, target in KEPT_FOR_TRACER.findall(text)]
    assert len(kept) == sum(text.count("kept: perfbench/layers.py")
                            for text in sources.values())
    assert [t for attr, t in kept if attr != t or t not in wrapped] == []
    assert replaced() == []
    calls = {name: stat[0] for name, stat in tr.stats.items()}
    for name in ("sim.run", "paths.project", "control.linearize",
                 "csvio.write"):
        assert calls.get(name, 0) > 0, name

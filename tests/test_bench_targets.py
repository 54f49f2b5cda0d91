"""What the benchmark reaches in ymqm, and what nothing reaches.

The benchmark's tracer (``perfbench/spans.py``) patches ymqm functions by
name, and its workloads and worker import ymqm names.  A rename or deletion
in ymqm would break every benchmark run without failing any other test, so
each target and each imported name is resolved here.

A public function or method of ymqm that no code in ``src/`` or
``perfbench/`` refers to is kept only as an independent oracle for the
tests, and its docstring says so."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_FILE = ROOT / "perfbench" / "spans.py"
PACKAGE_FILES = sorted((ROOT / "src" / "ymqm").glob("*.py"))
BENCH_FILES = sorted((ROOT / "perfbench").glob("*.py"))


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in spans.SPANS] + list(spans.COUNTED),
    ids=lambda x: x,
)
def test_traced_target_resolves(module, attr):
    importlib.import_module(module)
    _, fn = spans._resolve(module, attr)
    assert callable(fn)


MODULES = {"ymqm"} | {f"ymqm.{p.stem}" for p in PACKAGE_FILES if p.stem != "__init__"}


def _bench_imports(path):
    """Dotted ymqm names that a benchmark file imports, and the attributes it
    reads from the ymqm modules it imports (``spectral.build_hamiltonian``
    after ``from ymqm import spectral``)."""
    tree = ast.parse(path.read_text())
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ymqm":
                    names.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            if node.module.split(".")[0] != "ymqm":
                continue
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                names.add(dotted)
                if dotted in MODULES:
                    modules[alias.asname or alias.name] = dotted
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


BENCH_IMPORTS = sorted(
    _bench_imports(ROOT / "perfbench" / "workloads.py")
    | _bench_imports(ROOT / "perfbench" / "worker.py")
)


@pytest.mark.parametrize("dotted", BENCH_IMPORTS)
def test_benchmark_import_resolves(dotted):
    if dotted in MODULES:
        importlib.import_module(dotted)
        return
    module, _, attr = dotted.rpartition(".")
    assert hasattr(importlib.import_module(module), attr)


def _references():
    """Every identifier that package or benchmark code uses, including the
    dotted names that ``spans.py`` lists as strings."""
    refs = set()
    for path in PACKAGE_FILES + BENCH_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(p.isidentifier() for p in parts):
                    refs.update(parts)
    return refs


def _public_functions():
    """``(dotted name, name, docstring)`` of every public module-level
    function and every public method of a public module-level class of ymqm."""
    for path in PACKAGE_FILES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members = [(node.name, node)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = [
                    (f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, ast.FunctionDef)
                ]
            else:
                continue
            for name, fn in members:
                short = name.rpartition(".")[2]
                if not short.startswith("_"):
                    yield f"{path.stem}.{name}", short, ast.get_docstring(fn) or ""


def test_unreferenced_functions_are_test_oracles():
    refs = _references()
    unmarked = [
        name
        for name, short, doc in _public_functions()
        if short not in refs and "test oracle" not in doc.lower()
    ]
    assert not unmarked, f"no caller in src/ or perfbench/, and not a test oracle: {unmarked}"

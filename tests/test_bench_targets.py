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


@pytest.mark.parametrize("d, N", [(2, 12), (3, 7)])
def test_build_counters_read_real_handles(d, N):
    # the tracer's spectral.build callback unpacks the handle's blocks; a
    # change to their shape would otherwise show only in traced benchmark runs
    from ymqm.params import ModelParams
    from ymqm.spectral import BasisSpec, HamiltonianBlocks

    params, basis = ModelParams(g=1.0, v=0.5, hbar=1.0, t=1.0, n_model=d), BasisSpec(N, 1.0)
    tracer = spans.Tracer()
    tracer._after("spectral.build")((HamiltonianBlocks(params, basis), params, basis), None)
    assert tracer.counters["spectral.dimension"] == N**d
    assert tracer.counters["spectral.bytes_assembled"] > 0


def test_recursion_span_covers_every_order():
    # the tracer wraps kernels.recursion_step by name, so its self time
    # measures the recursion only while resummed_kernels calls that name
    # once per order
    for module in sorted(MODULES):
        importlib.import_module(module)
    kernels = importlib.import_module("ymqm.kernels")
    tracer = spans.Tracer()
    tracer.install()
    try:
        kernels.resummed_kernels(kernels.potential(3), 8)
    finally:
        tracer.uninstall()
    assert tracer.stats["kernels.recursion_step"][0] == 8
    assert tracer.counters["kernels.top_order_terms"] == 43972


@pytest.mark.parametrize("argv, n_rows, span, calls", [
    (["sweep", "--quantity", "z2", "--g", "1", "--v", "0.5:1.5:60", "--t", "0.2:0.4:40"],
     2400, "heatkernel.integral_Imn_closed", 4),
    (["sweep", "--quantity", "z2_n3", "--model", "n3", "--g", "0.6:1.2:40", "--t", "0.05:0.4:40"],
     1600, "heatkernel.radial_Jb", 1),
], ids=["z2", "z2_n3"])
def test_sweep_evaluates_its_grid_at_once(tmp_path, monkeypatch, argv, n_rows, span, calls):
    # on grids the size of the benchmark's sweeps, z2 calls its four moments
    # and z2_n3 its J_0, J_2 pair once for the whole grid (point by point it
    # was 9,600 and 3,200 calls), and every cell of the table is formatted
    # once for the stdout table and the CSV file together
    for module in sorted(MODULES):
        importlib.import_module(module)
    cli = importlib.import_module("ymqm.cli")
    formatted = []
    fmt = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda x: formatted.append(x) or fmt(x))
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, rows, _, _ = cli.run(cli.build_config([*argv, "--out", str(tmp_path / "out.csv")]))
    finally:
        tracer.uninstall()
    assert len(rows) == n_rows and tracer.stats[span][0] == calls
    assert len(formatted) == len(rows) * len(rows[0])


def _imports_scipy_integrate(node):
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("scipy.integrate") for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        return node.module.startswith("scipy.integrate") or (
            node.module == "scipy" and any(alias.name == "integrate" for alias in node.names)
        )
    return False


def test_quad_runs_only_in_the_line_integral():
    # the tracer counts one-dimensional integrals by patching ``quad`` in
    # ymqm.quadrature: it sees them all only while quadrature.line_integral
    # is the one caller of quad, scipy's quad is bound only inside the
    # wrapper quadrature.quad, and no other module reaches scipy.integrate
    importers, callers, bindings = set(), [], set()
    for path in PACKAGE_FILES:
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if _imports_scipy_integrate(node):
                    importers.add(path.name)
                    bindings.update(
                        (path.name, getattr(top, "name", None), alias.name, alias.asname)
                        for alias in node.names
                    )
                if isinstance(node, ast.Call) and "quad" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    callers.append((path.name, getattr(top, "name", None)))
    assert importers == {"quadrature.py"}
    assert callers == [("quadrature.py", "line_integral")]
    assert bindings == {
        ("quadrature.py", "quad", "quad", "scipy_quad"),
        ("quadrature.py", "line_integral", "IntegrationWarning", None),
    }

"""What a fresh interpreter loads, and what the first call of a deferred
scipy routine does.

``ymqm.quadrature`` imports ``scipy.integrate`` at its first
one-dimensional integral and ``ymqm.spectral`` imports ``scipy.linalg`` and
``scipy.sparse`` at its first basis build or solve, so ``import ymqm.cli``
and the commands that need neither load none of them (nor
``scipy.optimize``, which ``scipy.integrate`` pulls in).  pytest itself has
imported ``scipy.integrate`` by the time a test runs, so each check runs in
a child interpreter."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ymqm
from ymqm.params import ModelParams
from ymqm.spectral import BasisSpec, build_hamiltonian

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")

# runs ``cli.main`` on its own arguments with the table discarded and
# prints the exit status and the HEAVY modules then loaded
_RUN_COMMAND = """
import contextlib, io, json, sys
from ymqm import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
print(json.dumps([status, [m for m in HEAVY if m in sys.modules]]))
"""


def _fresh(code, *args):
    """The JSON object that ``code``, run with ``args`` in a fresh
    interpreter that imports the same ymqm as this process, prints on its
    last line."""
    src = os.path.dirname(os.path.dirname(ymqm.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    prelude = f"HEAVY = {HEAVY!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_deferred_subpackage():
    loaded = _fresh("""
        import json, sys
        import ymqm.cli
        print(json.dumps([m for m in HEAVY if m in sys.modules]))
    """)
    assert loaded == []


@pytest.mark.parametrize(
    "argv",
    [
        ["tf", "--g", "1", "--v", "0.5:2:4", "--t", "1"],
        ["sweep", "--quantity", "z2", "--g", "1", "--v", "0.5:1.5:4", "--t", "0.2:0.4:3"],
        ["resum", "--kmax", "4", "--g", "1", "--t", "0.2:0.8:4"],
        ["singular-scan", "--k", "2,4", "--g", "1", "--t", "1", "--v", "1e-3:1e-2:4:log"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_form_commands_load_no_deferred_subpackage(argv):
    status, loaded = _fresh(_RUN_COMMAND, *argv)
    assert status in (0, 1)
    assert loaded == []


def test_spectrum_loads_neither_integrate_nor_optimize():
    status, loaded = _fresh(_RUN_COMMAND, "spectrum", "--g", "1", "--v", "1", "--t", "2:3:2",
                            "--omega", "1.2", "--basis-n", "24")
    assert status in (0, 1)
    assert loaded == ["scipy.linalg", "scipy.sparse"]


def test_first_failing_line_integral_raises_accuracy_error():
    # 1/x on [0, 1] exhausts quad's subintervals: the first integral of the
    # process imports scipy.integrate and still turns the warning into
    # AccuracyError naming the integral
    loaded_before, error = _fresh("""
        import json, sys
        from ymqm.quadrature import line_integral
        before = "scipy.integrate" in sys.modules
        try:
            line_integral(lambda x: 1.0 / x, 0.0, 1.0, 1e-10, "1/x probe")
            error = None
        except BaseException as exc:
            error = [type(exc).__name__, str(exc)]
        print(json.dumps([before, error]))
    """)
    assert loaded_before is False
    name, message = error
    assert name == "AccuracyError"
    assert message.startswith("1/x probe did not converge on [0, 1]")


@pytest.mark.parametrize("d", [2, 3])
def test_first_spectral_solve_matches_a_warm_process(d):
    # the first solve of the process imports scipy.linalg (the band solver
    # in the plane, eigh in 3-D) and scipy.sparse, and gives the levels bit
    # for bit as this process does
    p = ModelParams(g=1.0, v=0.4, hbar=1.0, t=1.0, n_model=d)
    loaded_before, levels = _fresh(f"""
        import json, sys
        from ymqm.params import ModelParams
        from ymqm.spectral import BasisSpec, build_hamiltonian
        before = [m for m in HEAVY if m in sys.modules]
        merged, _ = build_hamiltonian({p!r}, BasisSpec(10, 1.0)).solve()
        print(json.dumps([before, [float(e).hex() for e in merged]]))
    """)
    assert loaded_before == []
    merged, _ = build_hamiltonian(p, BasisSpec(10, 1.0)).solve()
    assert levels == [float(e).hex() for e in np.asarray(merged)]

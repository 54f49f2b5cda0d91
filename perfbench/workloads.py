"""The three benchmark workloads: their seeded inputs and how each operation
is executed against ymqm.

``make_ops`` needs only the standard library, so the parent process can
draw the inputs without importing the program.  ``execute_op`` runs one
operation inside the worker process and returns what the checks need.

Every operation is either a CLI request (``ymqm.cli.main`` called in
process, its output file written under the round directory) or a direct
call into one module's public functions.  All inputs lie inside the
regimes where the program raises no flag, so an operation fails only
through a fault of the program.
"""

from __future__ import annotations

import contextlib
import io
import random

WORKLOADS = ("semiclassical_series", "route_crosscheck", "spectral_ground_truth")

#: kernel models built to order 8 by ``semiclassical_series``:
#: (label, dims, quartic, higgs)
KERNEL_MODELS = (
    ("d2_quartic", 2, True, False),
    ("d2_quartic_higgs", 2, True, True),
    ("d3_quartic_higgs", 3, True, True),
)

KERNEL_ORDER = 8
N3_PAIR_TOL = 1e-6
SPECTRAL_N3_CUTOFF = 16


def _r(x):
    """Round a drawn value so that the CLI argument and the reference see
    the same float."""
    return float(f"{x:.6g}")


def _cli(tag, argv):
    return {"kind": "cli", "tag": tag, "argv": list(argv)}


def _range(lo, hi, count, log=False):
    spec = f"{_r(lo)!r}:{_r(hi)!r}:{count}"
    return spec + ":log" if log else spec


def make_ops(name, seed, smoke=False):
    """The fixed batch of one round of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "semiclassical_series":
        return _semiclassical_ops(rng, smoke)
    if name == "route_crosscheck":
        return _route_ops(rng, smoke)
    if name == "spectral_ground_truth":
        return _spectral_ops(rng, smoke)
    raise ValueError(f"unknown workload {name!r}")


def _semiclassical_ops(rng, smoke):
    order = 4 if smoke else KERNEL_ORDER
    ops = [
        {"kind": "kernels", "tag": label, "dims": dims, "quartic": q, "higgs": h,
         "order": order}
        for label, dims, q, h in KERNEL_MODELS
        if not (smoke and dims == 3)
    ]
    n_v, n_t = (6, 4) if smoke else (60, 40)
    # lam2 = g^2 t^3 <= 0.09 keeps every sweep point inside the regime
    g = _r(rng.uniform(0.8, 1.2))
    t_hi = (0.09 / g**2) ** (1.0 / 3.0) * rng.uniform(0.9, 1.0)
    ops.append(_cli("sweep_z2", [
        "sweep", "--quantity", "z2", "--g", repr(g),
        "--v", _range(rng.uniform(0.4, 0.6), rng.uniform(1.3, 1.6), n_v),
        "--t", _range(0.5 * t_hi, t_hi, n_t),
    ]))
    n_g, n_t3 = (5, 4) if smoke else (40, 40)
    g_hi = rng.uniform(1.1, 1.3)
    t3_hi = (0.09 / g_hi**2) ** (1.0 / 3.0)
    ops.append(_cli("sweep_z2_n3", [
        "sweep", "--quantity", "z2_n3", "--model", "n3",
        "--g", _range(rng.uniform(0.5, 0.7), g_hi, n_g),
        "--t", _range(rng.uniform(0.05, 0.1), t3_hi, n_t3),
    ]))
    # z = t v^4 / (2 g^2) <= 0.1 keeps the small-v form inside its regime
    g_tf = _r(rng.uniform(0.8, 1.2))
    t_tf = (rng.uniform(0.4, 0.6), rng.uniform(1.2, 1.5))
    v_hi = 0.95 * (0.2 * g_tf**2 / t_tf[1]) ** 0.25
    ops.append(_cli("tf", [
        "tf", "--g", repr(g_tf),
        "--v", _range(0.3 * v_hi, v_hi, 5 if smoke else 20),
        "--t", _range(t_tf[0], t_tf[1], 4 if smoke else 20),
    ]))
    ops.append(_cli("singular_scan", [
        "singular-scan", "--k", "2,4,6", "--g", repr(_r(rng.uniform(0.8, 1.2))),
        "--v", _range(rng.uniform(1e-3, 2e-3), rng.uniform(0.05, 0.1), 8 if smoke else 60,
                      log=True),
        "--t", repr(_r(rng.uniform(0.8, 1.2))),
    ]))
    g_rs = _r(rng.uniform(0.8, 1.2))
    t_rs = (0.09 / g_rs**2) ** (1.0 / 3.0)
    ops.append(_cli("resum_full", [
        "resum", "--kmax", str(order), "--full-sums", "--g", repr(g_rs),
        "--t", _range(rng.uniform(0.1, 0.2) * t_rs, t_rs, 6 if smoke else 40),
    ]))
    ops.append(_cli("resum_leading", [
        "resum", "--kmax", "4", "--g", repr(g_rs),
        "--t", _range(0.2 * t_rs, t_rs, 4 if smoke else 10),
    ]))
    return ops


def _route_ops(rng, smoke):
    ops = []
    # the criterion-2 box: g in [0.7, 1.5], t in [0.6, 1.7], z in [0.1, 10]
    # (log), sampled as a Latin hypercube.  A point costs 0.4-1.8 s,
    # falling with z, so one point per z stratum keeps the batch cost steady
    n = 1 if smoke else 6
    strata = [rng.sample(range(n), n) for _ in range(3)]
    for i in range(n):
        u = [(s[i] + rng.random()) / n for s in strata]
        g = _r(0.7 + 0.8 * u[0])
        t = _r(0.6 + 1.1 * u[1])
        z = 0.1 * 100.0 ** u[2]
        v = _r((2.0 * z * g * g / t) ** 0.25)
        ops.append(_cli(f"compare_{i}", [
            "compare", "--routes", "closed,symbolic,quadrature", "--k", "0,2",
            "--g", repr(g), "--v", repr(v), "--t", repr(t),
            # the CSV writer keeps only the first row's columns, so the k=2
            # values of a multi-k compare survive only in JSON
            "--format", "json",
        ]))
    # 3-D pairs at fixed points: the x^2 structure at v > 0, and
    # x^2 (y^2 + z^2) at v = 0 with the effective regulator.  Not seeded:
    # the integrand evaluations of the raw integral change by a third
    # between (g, t) draws 5% apart, which would measure the draw
    for i, (which, v, effective) in enumerate(((1, 1.0, False), (2, 0.0, True))):
        if smoke and i:
            break
        ops.append({
            "kind": "n3_pair", "tag": f"n3_pair_{i}", "which": which,
            "g": 1.0, "v": v, "t": 1.0, "effective": effective,
            "rel_tol": N3_PAIR_TOL,
        })
    return ops


def _spectral_ops(rng, smoke):
    g = _r(rng.uniform(0.8, 1.25))
    v = _r(rng.uniform(0.8, 1.2))
    ops = [_cli("spectrum_planar", [
        "spectrum", "--g", repr(g), "--v", repr(v),
        "--t", _range(rng.uniform(1.0, 1.2), rng.uniform(2.5, 3.0), 8),
        "--basis-n", "60", "--save-spectrum", "{round_dir}/levels_planar.txt",
    ])]
    # hbar v t in [1, 3]: the shells cut off by the basis stay below 1e-10
    v0 = _r(rng.uniform(0.7, 1.4))
    ops.append(_cli("spectrum_harmonic", [
        "spectrum", "--g", "0", "--v", repr(v0),
        "--t", _range(1.0 / v0, 3.0 / v0, 8), "--basis-n", "60",
    ]))
    ops.append(_cli("spectrum_study", [
        "spectrum", "--study", "--g", repr(_r(rng.uniform(0.8, 1.25))), "--v", "0",
        "--t", "1", "--basis-n", "60",
    ]))
    g3 = _r(rng.uniform(0.8, 1.25))
    v3 = _r(rng.uniform(0.8, 1.2))
    ops.append({
        "kind": "spectral_n3", "tag": "spectral_n3", "g": g3, "v": v3,
        "cutoff": 12 if smoke else SPECTRAL_N3_CUTOFF,
        # 0.75 (g^(2/3) + v) leaves at least 10 converged levels at the
        # corners of the drawn (g, v) box
        "omega": _r(0.75 * (g3 ** (2.0 / 3.0) + v3)),
    })
    return ops


# -- execution (worker process only) -------------------------------------------


def execute_op(op, round_dir):
    """Run one operation; returns ``(ok, payload)``.  ``payload`` holds what
    the checks read: the output file of a CLI request, the values of a
    direct call, or the live objects of a kernel build."""
    kind = op["kind"]
    if kind == "cli":
        return _run_cli(op, round_dir)
    if kind == "kernels":
        return True, _run_kernels(op)
    if kind == "n3_pair":
        return True, _run_n3_pair(op)
    if kind == "spectral_n3":
        return True, _run_spectral_n3(op)
    raise ValueError(f"unknown operation kind {kind!r}")


def _run_cli(op, round_dir):
    from ymqm import cli

    argv = [a.replace("{round_dir}", str(round_dir)) for a in op["argv"]]
    out = f"{round_dir}/{op['tag']}.{'json' if 'json' in argv else 'csv'}"
    argv += ["--out", out]
    files = [out] + [argv[i + 1] for i, a in enumerate(argv) if a == "--save-spectrum"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main(argv)
    return status == 0, {"files": files, "status": status, "stderr": stderr.getvalue()}


def _run_kernels(op):
    from ymqm.kernels import potential, resummed_kernels, unresum
    from ymqm.reduction import extract_coefficients, integrate_momenta

    pot = potential(op["dims"], quartic=op["quartic"], higgs=op["higgs"])
    order = op["order"]
    S = resummed_kernels(pot, order)
    W = unresum(S, order, pot)
    even = range(0, order + 1, 2)
    reductions = {("S", k): integrate_momenta(S[k]) for k in even}
    reductions.update({("W", k): integrate_momenta(W[k]) for k in even})
    table = None
    if op["dims"] == 2 and not op["higgs"]:
        table = {k: extract_coefficients(reductions[("S", k)], k) for k in even if k}
    return {"S": S, "W": W, "reductions": reductions, "table": table}


def _run_n3_pair(op):
    from ymqm.params import ModelParams
    from ymqm.quadrature import QuadratureSpec, radial_quadrature_n3, raw_coordinate_n3

    p = ModelParams(g=op["g"], v=op["v"], hbar=1.0, t=op["t"], n_model=3)
    spec = QuadratureSpec(rel_tol=op["rel_tol"])
    raw = raw_coordinate_n3(op["which"], p, spec, effective=op["effective"])
    radial = radial_quadrature_n3(op["which"], p, spec, effective=op["effective"])
    return {"raw": raw.value, "radial": radial.value}


def _run_spectral_n3(op):
    from ymqm import spectral
    from ymqm.params import ModelParams

    p = ModelParams(g=op["g"], v=op["v"], hbar=1.0, t=1.0, n_model=3)
    handle = spectral.build_hamiltonian(p, spectral.BasisSpec(op["cutoff"], op["omega"]))
    res = spectral.eigenvalues(handle, how_many=1, conv_tol=1e-6)
    return {
        "enlarged": [float(e) for e in res.eigenvalues],
        "sectors": {"".join(map(str, sec)): [float(e) for e in w] for sec, w in res.sectors},
        "count_converged": res.count_converged,
    }


def summarize_kernels(payload):
    """Exact data the checks read from one kernel build: the harmonic
    partition term of the g^2-free part of every kernel (as the exact
    coefficient and power of w = hbar v t), and the coefficient table."""
    from fractions import Fraction

    from ymqm.polynomial import PhasePolynomial, variable_names
    from ymqm.reduction import harmonic_partition_exact

    out = {}
    for series in ("S", "W"):
        rows = []
        for k, kernel in enumerate(payload[series]):
            ig2 = variable_names(kernel.dims).index("g2")
            free = PhasePolynomial(
                kernel.dims,
                {e: c for e, c in kernel.terms() if e[ig2] == 0},
                i_power=kernel.i_power,
            )
            coeff, wpow = harmonic_partition_exact(free, k)
            rows.append([str(Fraction(coeff)), wpow])
        out[series] = rows
    out["top_terms"] = payload["S"][-1].n_terms
    if payload["table"] is not None:
        out["table"] = {
            str(k): {str(n): str(a) for n, a in sorted(t.items())}
            for k, t in payload["table"].items()
        }
    return out

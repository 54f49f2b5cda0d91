"""Command-line front end: parameter sweeps, route comparisons, singularity
scans, and CSV/JSON emission of plot-ready long-format data.

Every emitted number carries its route tag and, where applicable, an error
estimate and regime flags.  Identical configurations produce byte-identical
output (shortest round-trip float formatting, fixed ordering, no
timestamps).  Exit codes: 0 success, 1 tolerance flags present, 2 route
failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__, heatkernel, spectral
from .errors import DivergentIntegralError, DomainError
from .params import ModelParams
from .quadrature import QuadratureSpec, imn_quadrature, phase_space_quadrature, radial_quadrature_n3
from .reduction import integrate_momenta

COMMANDS = ("tf", "wk", "resum", "singular-scan", "n3", "spectrum", "compare", "sweep")
ROUTES = ("closed", "symbolic", "quadrature", "spectral")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    model: str = "n2"
    g: str = "1"
    v: str = "1"
    hbar: str = "1"
    t: str = "1"
    routes: tuple = ("closed", "quadrature")
    ks: tuple = (2,)
    kmax: int = 4
    full_sums: bool = False
    quantity: str = "tf"
    out: str | None = None
    fmt: str = "csv"
    tol_quad: float = 1e-9
    tol_conv: float = 1e-6
    disc_tol: float = 1e-6
    basis_n: int = 32
    omega: float | None = None
    save_spectrum: str | None = None
    study: bool = False

    def quad_spec(self):
        return QuadratureSpec(rel_tol=self.tol_quad)


def _parse_axis(text):
    """Scalar or 'start:stop:count[:log]' -> list of floats."""
    parts = str(text).split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) not in (3, 4):
        raise ConfigError(f"bad range spec {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ConfigError("range count must be >= 1")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ConfigError(f"bad range modifier {parts[3]!r}")
        if start <= 0 or stop <= 0:
            raise ConfigError("log ranges need positive endpoints")
        return [float(x) for x in np.geomspace(start, stop, count)]
    return [float(x) for x in np.linspace(start, stop, count)]


def build_grid(cfg):
    axes = {}
    for name in ("g", "v", "hbar", "t"):
        axes[name] = _parse_axis(getattr(cfg, name))
    swept = [n for n, vals in axes.items() if len(vals) > 1]
    if len(swept) > 2:
        raise ConfigError("at most two swept variables per run")
    n_model = 2 if cfg.model == "n2" else 3
    grid = []
    for gval in axes["g"]:
        for vval in axes["v"]:
            for hval in axes["hbar"]:
                for tval in axes["t"]:
                    grid.append(
                        ModelParams(g=gval, v=vval, hbar=hval, t=tval, n_model=n_model)
                    )
    if not grid:
        raise ConfigError("empty sweep grid")
    return grid, swept


# -- route evaluation -----------------------------------------------------------


def _kernel_reduction(k, dims=2):
    from .kernels import conventional_kernels, potential

    pot = potential(dims, quartic=True, higgs=True)
    W = conventional_kernels(pot, k)
    return integrate_momenta(W[k]), W[k]


_REDUCTION_CACHE = {}


def _cached_kernel(k):
    if k not in _REDUCTION_CACHE:
        _REDUCTION_CACHE[k] = _kernel_reduction(k)
    return _REDUCTION_CACHE[k]


def eval_zk_route(route, k, params, cfg):
    """One route's value of the order-k partition term (planar model)."""
    if params.n_model != 2:
        raise DomainError("the order-k routes cover the planar model only")
    if route == "closed":
        if k == 0:
            return heatkernel.tf_partition_n2(params)
        if k == 2:
            return heatkernel.z2_closed_n2(params)
        raise DomainError("closed forms cover k in {0, 2}")
    if route == "symbolic":
        red, _ = _cached_kernel(k)
        spec = cfg.quad_spec()

        def moment(mn):
            return imn_quadrature(mn[0], mn[1], params, spec).value

        return red.partition_value(params, moment)
    if route == "quadrature":
        _, kernel = _cached_kernel(k)
        return phase_space_quadrature(kernel, params, cfg.quad_spec()).value
    raise DomainError(f"route {route!r} not usable here")


# -- commands --------------------------------------------------------------------


def rows_tf(cfg, grid):
    rows = []
    for p in grid:
        if cfg.model == "n3":
            rows.append(
                {
                    **_param_cols(p),
                    "tf_n3": heatkernel.tf_term_n3(p),
                    "route": "closed",
                    "flag": not p.lam2_in_regime(),
                }
            )
        else:
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                limit = heatkernel.tf_limit_v0(p) if p.v > 0 else float("nan")
            exact = heatkernel.tf_partition_n2(p) if p.v > 0 else float("nan")
            rows.append(
                {
                    **_param_cols(p),
                    "tf": exact,
                    "tf_small_v": limit,
                    "rel_gap": abs(exact - limit) / abs(exact) if exact == exact else float("nan"),
                    "route": "closed",
                    "flag": not p.z_in_regime(),
                }
            )
    return rows


def rows_wk_compare(cfg, grid):
    rows = []
    for p in grid:
        for k in cfg.ks:
            row = {**_param_cols(p), "k": k}
            vals = {}
            for route in cfg.routes:
                if route == "spectral":
                    continue
                vals[route] = float(eval_zk_route(route, k, p, cfg))
                row[f"z{k}_{route}"] = vals[route]
            disc = 0.0
            names = sorted(vals)
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    denom = max(abs(vals[a]), abs(vals[b]), 1e-300)
                    disc = max(disc, abs(vals[a] - vals[b]) / denom)
            row["max_rel_discrepancy"] = float(disc)
            row["flag"] = bool(disc > cfg.disc_tol)
            rows.append(row)
    return rows


def rows_resum(cfg, grid):
    from .kernels import potential, resummed_kernels
    from .reduction import extract_coefficients

    pot = potential(2, quartic=True, higgs=False)
    S = resummed_kernels(pot, cfg.kmax)
    acoef = {
        k: extract_coefficients(integrate_momenta(S[k]), k)
        for k in range(2, cfg.kmax + 1, 2)
    }
    rows = []
    import warnings

    for p in grid:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            terms, total = heatkernel.series_assemble(
                p, cfg.kmax, acoef, full_sums=cfg.full_sums
            )
            exact0 = heatkernel.resummed_term(0, p)
        K = p.prefactor_K()
        row = {**_param_cols(p)}
        for term in terms:
            row[f"term_k{term.order_k}"] = term.value
        row["tf_exact_bessel"] = exact0
        row["total"] = total
        row["constant"] = total / K + math.log(p.lam2)
        row["flag"] = not p.lam2_in_regime()
        rows.append(row)
    return rows


def rows_singular_scan(cfg, grid):
    rows = []
    for p in grid:
        row = {**_param_cols(p)}
        for k in cfg.ks:
            term = heatkernel.zk_most_singular(k, k // 2, p)
            row[f"abs_z{k}_singular"] = abs(term.value)
            if k == 2 and p.g > 0:
                row["abs_z2_closed"] = abs(heatkernel.z2_closed_n2(p))
        row["flag"] = False
        rows.append(row)
    return rows


def fit_singular_slopes(cfg, rows):
    out = {}
    vs = np.array([r["v"] for r in rows])
    if len(vs) < 2 or np.allclose(vs.min(), vs.max()):
        return out
    for col in [c for c in rows[0] if c.startswith("abs_z")]:
        ys = np.array([r[col] for r in rows])
        slope = np.polyfit(np.log(vs), np.log(ys), 1)[0]
        out[f"slope_{col}"] = float(slope)
    return out


def rows_n3(cfg, grid):
    rows = []
    spec = cfg.quad_spec()
    for p in grid:
        lam = p.lam
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            z2 = heatkernel.z2_n3(p)
        row = {
            **_param_cols(p),
            "lam": lam,
            "tf_n3": heatkernel.tf_term_n3(p),
            "z2_n3": z2,
            "z2_structure": heatkernel.z2_n3_structure(p),
            "j0_sqrtlam": heatkernel.radial_Jb(0, lam) * math.sqrt(lam),
            "j2": heatkernel.radial_Jb(2, lam),
        }
        try:
            radial_quadrature_n3(1, p, spec, effective=False)
            row["i1_divergent"] = False
        except DivergentIntegralError:
            row["i1_divergent"] = True
        row["i2"] = radial_quadrature_n3(2, p, spec, effective=False).value
        row["flag"] = lam >= 1.0
        rows.append(row)
    return rows


def rows_spectrum(cfg, grid):
    rows = []
    by_static = {}
    for p in grid:
        key = (p.g, p.v, p.hbar, p.n_model)
        by_static.setdefault(key, []).append(p)
    if cfg.save_spectrum and len(by_static) > 1:
        raise ConfigError(
            "--save-spectrum keeps one spectrum: sweep only t, not g, v or hbar"
        )
    for key, plist in sorted(by_static.items()):
        p0 = plist[0]
        omega = cfg.omega
        if omega is None:
            if p0.g == 0 and p0.v > 0:
                omega = p0.v
            else:
                omega = spectral.trace_maximizing_omega(p0, t_ref=p0.t)
        basis = spectral.BasisSpec(cfg.basis_n, omega)
        handle = spectral.build_hamiltonian(p0, basis)
        spectrum = spectral.eigenvalues(handle, how_many=4, conv_tol=cfg.tol_conv)
        if cfg.save_spectrum:
            spectral.save_spectrum(spectrum, cfg.save_spectrum)
        for p in plist:
            try:
                z, bracket = spectral.partition_from_spectrum(
                    spectrum, p.t, tail_rel_tol=1e-6
                )
                rows.append(
                    {
                        **_param_cols(p),
                        "omega": omega,
                        "n_basis": cfg.basis_n,
                        "z_spectral": z,
                        "z_lo": bracket[0],
                        "z_hi": bracket[1],
                        "n_converged": spectrum.count_converged,
                        "flag": False,
                    }
                )
            except spectral.ConvergenceError:
                rows.append(
                    {
                        **_param_cols(p),
                        "omega": omega,
                        "n_basis": cfg.basis_n,
                        "z_spectral": float("nan"),
                        "z_lo": float("nan"),
                        "z_hi": float("nan"),
                        "n_converged": spectrum.count_converged,
                        "flag": True,
                    }
                )
    return rows


def rows_study(cfg, grid):
    p0 = grid[0]
    study = spectral.leading_log_study(p0, n_top=cfg.basis_n)
    rows = []
    for t, lam2, y, raw in zip(
        study.t_grid, study.lam2, study.z_over_k, study.z_raw_top
    ):
        rows.append(
            {
                "g": p0.g,
                "v": p0.v,
                "hbar": p0.hbar,
                "t": float(t),
                "lam2": float(lam2),
                "z_over_k_corrected": float(y),
                "z_raw": float(raw),
                "flag": not all(study.flags.values()),
            }
        )
    summary = {
        "slope": study.slope,
        "intercept": study.intercept,
        "deficit_power": study.deficit_power,
        "fit_rms": study.fit_rms,
        "omega": study.omega,
        "intercept_candidate_leading": 5 * math.log(2.0) - float(np.euler_gamma),
        "intercept_candidate_with_constants": 5 * math.log(2.0)
        - float(np.euler_gamma)
        + 427.0 / 180.0,
    }
    return rows, summary


def rows_sweep(cfg, grid):
    fns = {
        "tf": lambda p: heatkernel.tf_partition_n2(p),
        "z2": lambda p: heatkernel.z2_closed_n2(p),
        "resum_total": lambda p: heatkernel.resummed_term(0, p)
        + heatkernel.resummed_term(2, p)
        + heatkernel.resummed_term(4, p),
        "tf_n3": lambda p: heatkernel.tf_term_n3(p),
        "z2_n3": lambda p: heatkernel.z2_n3(p),
    }
    if cfg.quantity not in fns:
        raise ConfigError(f"unknown sweep quantity {cfg.quantity!r}")
    fn = fns[cfg.quantity]
    max_workers = max(1, int(os.environ.get("YMQM_THREADS", "4")))
    import warnings

    def one(p):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fn(p)

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        values = list(pool.map(one, grid))
    rows = []
    for p, val in zip(grid, values):
        rows.append(
            {**_param_cols(p), cfg.quantity: val, "flag": not p.lam2_in_regime()}
        )
    return rows


def _param_cols(p):
    return {"g": p.g, "v": p.v, "hbar": p.hbar, "t": p.t, "lam2": p.lam2}


# -- output ----------------------------------------------------------------------


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "FLAG" if x else "ok"
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def manifest_lines(cfg, summary=None):
    items = {
        "tool": f"ymqm {__version__}",
        "command": cfg.command,
        "model": cfg.model,
        "g": cfg.g,
        "v": cfg.v,
        "hbar": cfg.hbar,
        "t": cfg.t,
        "routes": ",".join(cfg.routes),
        "k": ",".join(map(str, cfg.ks)),
        "kmax": cfg.kmax,
        "tol_quad": repr(cfg.tol_quad),
        "tol_conv": repr(cfg.tol_conv),
        "disc_tol": repr(cfg.disc_tol),
        "threads": os.environ.get("YMQM_THREADS", "4"),
        "seed": "none",
    }
    if summary:
        items.update({k: repr(v) if isinstance(v, float) else v for k, v in summary.items()})
    return [f"# {k}: {v}" for k, v in items.items()]


def _columns(rows):
    """Every key of every row, in first-seen order."""
    return list(dict.fromkeys(c for r in rows for c in r))


def _cell(row, col):
    return _fmt(row[col]) if col in row else ""


def write_csv(rows, cfg, fh, summary=None):
    for line in manifest_lines(cfg, summary):
        fh.write(line + "\n")
    if not rows:
        fh.write("\n")
        return
    cols = _columns(rows)
    fh.write(",".join(cols) + "\n")
    for r in rows:
        fh.write(",".join(_cell(r, c) for c in cols) + "\n")


def write_json(rows, cfg, fh, summary=None):
    payload = {
        "manifest": {
            line[2:].split(": ", 1)[0]: line[2:].split(": ", 1)[1]
            for line in manifest_lines(cfg, summary)
        },
        "rows": rows,
    }
    json.dump(payload, fh, indent=1)
    fh.write("\n")


def report(rows, summary=None):
    """Aligned human-readable table; returns (text, n_flagged)."""
    lines = []
    n_flag = 0
    if rows:
        cols = _columns(rows)
        table = [[_cell(r, c) for c in cols] for r in rows]
        widths = [
            max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(cols)
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for r, row in zip(rows, table):
            if r.get("flag"):
                n_flag += 1
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    else:
        lines.append("(no rows)")
    if summary:
        for k, v in summary.items():
            lines.append(f"{k}: {_fmt(v)}")
    lines.append(f"{n_flag} FLAG" if n_flag else "0 FLAG")
    return "\n".join(lines) + "\n", n_flag


# -- argument handling -----------------------------------------------------------


def make_parser():
    ap = argparse.ArgumentParser(
        prog="ymqm",
        description="partition sums of the coupled quartic oscillators: "
        "closed forms, symbolic expansion, quadrature and spectral oracles",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--model", choices=("n2", "n3"), default=None)
    for name in ("g", "v", "hbar", "t"):
        ap.add_argument(f"--{name}", default=None, help="scalar or start:stop:count[:log]")
    ap.add_argument("--routes", default=None, help="comma list of " + ",".join(ROUTES))
    ap.add_argument("--k", default=None, help="comma list of even orders")
    ap.add_argument("--kmax", type=int, default=None)
    ap.add_argument("--full-sums", action="store_true", default=None)
    ap.add_argument("--quantity", default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    ap.add_argument("--config", default=None)
    ap.add_argument("--tol-quad", type=float, default=None)
    ap.add_argument("--tol-conv", type=float, default=None)
    ap.add_argument("--disc-tol", type=float, default=None)
    ap.add_argument("--basis-n", type=int, default=None)
    ap.add_argument("--omega", type=float, default=None)
    ap.add_argument("--save-spectrum", default=None)
    ap.add_argument("--study", action="store_true", default=None)
    return ap


def load_config_file(path, cfg):
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    sections = {
        "run": {
            "model",
            "g",
            "v",
            "hbar",
            "t",
            "routes",
            "k",
            "kmax",
            "quantity",
            "out",
            "format",
            "full_sums",
        },
        "quadrature": {"tol_quad", "disc_tol"},
        "spectral": {"tol_conv", "basis_n", "omega"},
    }
    for section, keys in sections.items():
        if not cp.has_section(section):
            continue
        for key, val in cp.items(section):
            norm = key.replace("-", "_")
            if norm not in keys:
                raise ConfigError(f"unknown config key [{section}] {key}")
            _apply_option(cfg, norm, val)
    return cfg


def _apply_option(cfg, name, val):
    if name == "format":
        cfg.fmt = val
    elif name == "routes":
        routes = tuple(x.strip() for x in val.split(",") if x.strip())
        bad = [r for r in routes if r not in ROUTES]
        if bad:
            raise ConfigError(f"unknown routes {bad}")
        cfg.routes = routes
    elif name == "k":
        try:
            cfg.ks = tuple(int(x) for x in str(val).split(","))
        except ValueError:
            raise ConfigError(f"bad k list {val!r}")
        if any(k % 2 or k < 0 for k in cfg.ks):
            raise ConfigError("orders must be non-negative even integers")
    elif name in ("kmax", "basis_n"):
        setattr(cfg, name, int(val))
    elif name in ("tol_quad", "tol_conv", "disc_tol", "omega"):
        setattr(cfg, name, float(val))
    elif name == "full_sums":
        cfg.full_sums = str(val).lower() in ("1", "true", "yes")
    elif name in ("model", "g", "v", "hbar", "t", "quantity", "out"):
        setattr(cfg, name, val)
    else:
        raise ConfigError(f"unknown option {name}")


def build_config(argv):
    ns = make_parser().parse_args(argv)
    cfg = RunConfig(command=ns.command, model="n3" if ns.command == "n3" else "n2")
    if ns.config:
        load_config_file(ns.config, cfg)
    for name in (
        "model",
        "g",
        "v",
        "hbar",
        "t",
        "routes",
        "kmax",
        "quantity",
        "out",
        "fmt",
        "tol_quad",
        "tol_conv",
        "disc_tol",
        "basis_n",
        "omega",
        "save_spectrum",
        "study",
        "full_sums",
    ):
        val = getattr(ns, name)
        if val is not None:
            if name == "routes":
                _apply_option(cfg, "routes", val)
            elif name == "fmt":
                cfg.fmt = val
            else:
                setattr(cfg, name, val)
    if ns.k is not None:
        _apply_option(cfg, "k", ns.k)
    if cfg.model not in ("n2", "n3"):
        raise ConfigError(f"bad model {cfg.model!r}")
    if cfg.command == "n3" and cfg.model != "n3":
        raise ConfigError("the n3 command computes the three-coordinate model only")
    if cfg.command == "spectrum" and cfg.study and cfg.save_spectrum:
        raise ConfigError("--study solves a basis ladder; --save-spectrum keeps one spectrum")
    for name in ("g", "v", "hbar", "t"):
        _parse_axis(getattr(cfg, name))  # validate early: bad specs are config errors
    return cfg


def run(cfg):
    """Execute a configuration; returns (exit_status, rows, summary, text)."""
    grid, swept = build_grid(cfg)
    summary = None
    if cfg.command == "tf":
        rows = rows_tf(cfg, grid)
    elif cfg.command in ("wk", "compare"):
        rows = rows_wk_compare(cfg, grid)
    elif cfg.command == "resum":
        rows = rows_resum(cfg, grid)
    elif cfg.command == "singular-scan":
        rows = rows_singular_scan(cfg, grid)
        summary = fit_singular_slopes(cfg, rows)
    elif cfg.command == "n3":
        rows = rows_n3(cfg, grid)
    elif cfg.command == "spectrum":
        if cfg.study:
            rows, summary = rows_study(cfg, grid)
        else:
            rows = rows_spectrum(cfg, grid)
    elif cfg.command == "sweep":
        rows = rows_sweep(cfg, grid)
    else:  # pragma: no cover
        raise ConfigError(f"unknown command {cfg.command}")
    text, n_flag = report(rows, summary)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                if cfg.fmt == "csv":
                    write_csv(rows, cfg, fh, summary)
                else:
                    write_json(rows, cfg, fh, summary)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}")
    return (1 if n_flag else 0), rows, summary, text


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = build_config(argv)
    except (ConfigError, SystemExit) as exc:
        if isinstance(exc, SystemExit):
            return int(exc.code or 0) and 3
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 3
    try:
        status, rows, summary, text = run(cfg)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 3
    except Exception as exc:  # route failure: machine-readable record
        print(
            json.dumps(
                {"error": "route", "type": type(exc).__name__, "message": str(exc)}
            ),
            file=sys.stderr,
        )
        return 2
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: parameter sweeps, route comparisons, singularity
scans, and CSV/JSON emission of plot-ready long-format data.

Every emitted number carries its route tag and, where applicable, an error
estimate and regime flags.  Identical configurations produce byte-identical
output (shortest round-trip float formatting, fixed ordering, no
timestamps).  Exit codes: 0 success, 1 tolerance flags present, 2 route
failure, 3 configuration error.

Every option is declared once, in :func:`make_parser`; a ``--config`` file
is read into the same parser, so a value meets the same type and allowed
values whichever way it is given.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import json
import math
import re
import sys
import warnings

import numpy as np

from . import __version__, heatkernel, spectral
from .errors import DomainError, RegimeWarning
from .params import ModelParams
from .quadrature import (
    QuadratureSpec,
    imn_quadrature,
    phase_space_quadrature,
    radial_divergence_n3,
    radial_quadrature_n3,
)
from .reduction import integrate_momenta

COMMANDS = ("tf", "wk", "resum", "singular-scan", "n3", "spectrum", "compare", "sweep")
ROUTES = ("closed", "symbolic", "quadrature")
AXES = ("g", "v", "hbar", "t")
CONFIG_SECTIONS = ("run", "quadrature", "spectral")
#: each sweep quantity with the model its formula computes and the regime
#: test of its flag: the planar terms and the resummed ones (in units of the
#: planar prefactor K), in regime for lam2 <= 0.1, or the three-coordinate
#: terms, in regime for lam < 1 as in ``n3``.  Each formula and test takes
#: the whole grid at once (``ModelParams.grid``) and returns one value per
#: point.
SWEEP_QUANTITIES = {
    "tf": ("n2", lambda p: heatkernel.tf_partition_n2(p), ModelParams.lam2_in_regime),
    "z2": ("n2", lambda p: heatkernel.z2_closed_n2(p), ModelParams.lam2_in_regime),
    "resum_total": (
        "n2",
        lambda p: heatkernel.resummed_term(0, p)
        + heatkernel.resummed_term(2, p)
        + heatkernel.resummed_term(4, p),
        ModelParams.lam2_in_regime,
    ),
    "tf_n3": ("n3", lambda p: heatkernel.tf_term_n3(p), ModelParams.lam_in_regime),
    "z2_n3": ("n3", lambda p: heatkernel.z2_n3(p), ModelParams.lam_in_regime),
}


class ConfigError(Exception):
    pass


def _parse_axis(text):
    """Scalar or 'start:stop:count[:log]' -> list of floats."""
    parts = str(text).split(":")
    if len(parts) not in (1, 3, 4):
        raise ConfigError(f"bad range spec {text!r}")
    try:
        ends = [float(x) for x in parts[:2]]
        count = int(parts[2]) if len(parts) > 1 else 1
    except ValueError:
        raise ConfigError(f"bad number in {text!r}")
    if not all(map(math.isfinite, ends)):
        raise ConfigError(f"non-finite value in {text!r}")
    if len(parts) == 1:
        return ends
    start, stop = ends
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
    """The (g, v, hbar, t) product grid, t varying fastest."""
    n_model = 2 if cfg.model == "n2" else 3
    axes = [_parse_axis(getattr(cfg, name)) for name in AXES]
    return [
        ModelParams(g=g, v=v, hbar=hbar, t=t, n_model=n_model)
        for g, v, hbar, t in itertools.product(*axes)
    ]


# -- route evaluation -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _cached_kernel(k):
    """Momentum reduction and kernel W_k of the planar quartic+Higgs model."""
    from .kernels import conventional_kernels, potential

    W = conventional_kernels(potential(2, quartic=True, higgs=True), k)
    return integrate_momenta(W[k]), W[k]


def eval_zk_route(route, k, params, cfg):
    """One route's value of the order-k partition term (planar model)."""
    if params.n_model != 2:
        raise DomainError("the order-k routes cover the planar model only")
    spec = QuadratureSpec(rel_tol=cfg.tol_quad)
    if route == "closed":
        if k == 0:
            return heatkernel.tf_partition_n2(params)
        if k == 2:
            return heatkernel.z2_closed_n2(params)
        red, _ = _cached_kernel(k)
        return red.partition_value(
            params, lambda mn: heatkernel.integral_Imn_closed(max(mn), min(mn), params)
        )
    if route == "symbolic":
        red, _ = _cached_kernel(k)

        def moment(mn):
            return imn_quadrature(mn[0], mn[1], params, spec).value

        return red.partition_value(params, moment)
    if route == "quadrature":
        _, kernel = _cached_kernel(k)
        return phase_space_quadrature(kernel, params, spec).value
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
            limit = heatkernel.tf_limit_v0(p) if p.v > 0 else float("nan")
            exact = heatkernel.tf_partition_n2(p) if p.v > 0 else float("nan")
            rows.append(
                {
                    **_param_cols(p),
                    "tf": exact,
                    "tf_small_v": limit,
                    "rel_gap": abs(exact - limit) / abs(exact) if exact == exact else float("nan"),
                    "route": "closed",
                    # v = 0 has no planar Thomas-Fermi value: a NaN is flagged
                    "flag": math.isnan(exact) or not p.z_in_regime(),
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
    for p in grid:
        terms, total = heatkernel.series_assemble(
            p, cfg.kmax, acoef, full_sums=cfg.full_sums
        )
        exact0 = heatkernel.resummed_term(0, p)
        K = p.prefactor_K()
        row = {**_param_cols(p)}
        for k, value in terms.items():
            row[f"term_k{k}"] = value
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
            row[f"abs_z{k}_singular"] = abs(heatkernel.zk_singular(k, k // 2, p))
            if k == 2:
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
    """One row per point.  The closed-form columns are evaluated over the
    whole grid at once, as in :func:`rows_sweep`, reading the J pair once;
    the radial integrals point by point."""
    spec = QuadratureSpec(rel_tol=cfg.tol_quad)
    points = ModelParams.grid(grid)
    lam = points.lam
    j0, j2 = heatkernel.radial_Jb(lam)
    cols = {
        **_param_cols(points),
        "lam": lam,
        "tf_n3": heatkernel.tf_term_n3(points),
        "z2_n3": heatkernel.z2_n3(points, (j0, j2)),
        "z2_structure": heatkernel.z2_n3_structure(points),
        "j0_sqrtlam": j0 * np.sqrt(lam),
        "j2": j2,
    }
    rows = []
    for p, values in zip(grid, zip(*(c.tolist() for c in cols.values()))):
        row = dict(zip(cols, values))
        row["i1_divergent"] = radial_divergence_n3(1, p) is not None
        row["i2"] = radial_quadrature_n3(2, p, spec, effective=False).value
        row["flag"] = not p.lam_in_regime()
        rows.append(row)
    return rows


def rows_spectrum(cfg, grid):
    rows = []
    by_static = {}
    for p in grid:
        key = (p.g, p.v, p.hbar, p.n_model)
        by_static.setdefault(key, []).append(p)
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
                z, (z_lo, z_hi) = spectral.partition_from_spectrum(
                    spectrum, p.t, tail_rel_tol=1e-6
                )
                flag = False
            except spectral.ConvergenceError:
                z = z_lo = z_hi = float("nan")
                flag = True
            rows.append(
                {
                    **_param_cols(p),
                    "omega": omega,
                    "n_basis": cfg.basis_n,
                    "z_spectral": z,
                    "z_lo": z_lo,
                    "z_hi": z_hi,
                    "n_converged": spectrum.count_converged,
                    "flag": flag,
                }
            )
    return rows


def rows_study(cfg, grid):
    p0 = grid[0]
    study = spectral.leading_log_study(p0, n_top=cfg.basis_n, omega=cfg.omega)
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
        "intercept_candidate_leading": heatkernel.LEADING_LOG_CONSTANT,
        "intercept_candidate_with_constants": sum(
            heatkernel.RESUMMED_CONSTANTS.values(), heatkernel.LEADING_LOG_CONSTANT
        ),
    }
    return rows, summary


def rows_sweep(cfg, grid):
    """One row per point.  Every column is evaluated over the whole grid at
    once, the quantity in one call of its formula."""
    _, fn, in_regime = SWEEP_QUANTITIES[cfg.quantity]
    points = ModelParams.grid(grid)
    cols = {**_param_cols(points), cfg.quantity: fn(points), "flag": ~in_regime(points)}
    return [dict(zip(cols, row)) for row in zip(*(c.tolist() for c in cols.values()))]


def _param_cols(p):
    """The columns of the point ``p``, or arrays of them over a grid."""
    return {"g": p.g, "v": p.v, "hbar": p.hbar, "t": p.t, "lam2": p.lam2}


# -- output ----------------------------------------------------------------------


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "FLAG" if x else "ok"
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def manifest(cfg, summary=None):
    """The run manifest with every value a string: ``# key: value`` lines
    ahead of a CSV table, the ``manifest`` object of a JSON file.  It holds
    every option that can change a result; a summary value (the study's
    chosen omega) replaces the option of the same name."""
    items = {
        "tool": f"ymqm {__version__}",
        "command": cfg.command,
        "model": cfg.model,
        **{name: getattr(cfg, name) for name in AXES},
        "routes": ",".join(cfg.routes),
        "k": ",".join(map(str, cfg.ks)),
        "kmax": cfg.kmax,
        "full_sums": cfg.full_sums,
        "quantity": cfg.quantity,
        "tol_quad": cfg.tol_quad,
        "tol_conv": cfg.tol_conv,
        "disc_tol": cfg.disc_tol,
        "basis_n": cfg.basis_n,
        "omega": "auto" if cfg.omega is None else cfg.omega,
        "study": cfg.study,
        "format": cfg.fmt,
        "seed": "none",
        **(summary or {}),
    }
    return {k: repr(v) if isinstance(v, float) else str(v) for k, v in items.items()}


def _columns(rows):
    """Every key of every row, in first-seen order."""
    return list(dict.fromkeys(c for r in rows for c in r))


def _table(rows):
    """``(columns, cells, n_flagged)``: every key of every row in first-seen
    order, each row's cells, every value formatted once ("" where a row
    lacks the column), and the number of flagged rows.  The stdout table
    and the CSV file both print these strings."""
    cols = _columns(rows)
    cells = [[_fmt(r[c]) if c in r else "" for c in cols] for r in rows]
    return cols, cells, sum(1 for r in rows if r.get("flag"))


def write_csv(table, cfg, fh, summary=None):
    """The manifest as ``#`` lines, then the :func:`_table` ``table`` as CSV."""
    for key, value in manifest(cfg, summary).items():
        fh.write(f"# {key}: {value}\n")
    cols, cells, _ = table
    if not cells:
        fh.write("\n")
        return
    fh.write(",".join(cols) + "\n")
    fh.writelines(",".join(row) + "\n" for row in cells)


def write_json(rows, cfg, fh, summary=None):
    json.dump({"manifest": manifest(cfg, summary), "rows": rows}, fh, indent=1)
    fh.write("\n")


def report(table, summary=None):
    """Aligned human-readable table from a :func:`_table` ``table``;
    returns (text, n_flagged)."""
    lines = []
    cols, cells, n_flag = table
    if cells:
        widths = [
            max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for row in cells:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    else:
        lines.append("(no rows)")
    if summary:
        for k, v in summary.items():
            lines.append(f"{k}: {_fmt(v)}")
    lines.append(f"{n_flag} FLAG" if n_flag else "0 FLAG")
    return "\n".join(lines) + "\n", n_flag


# -- argument handling -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a malformed option as a :class:`ConfigError` instead of exiting.
    A negative number, in scientific notation too (``--g -1e-3``), is read
    as the value of the option before it, so the value's own check names it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


#: axes whose values must be positive; the others must be non-negative
_POSITIVE_AXES = ("hbar", "t")


def _axis(name):
    """Type of the option ``--name``: a g, v, hbar or t value or range inside
    the model's domain, kept as written (the manifest echoes it)."""

    def parse(text):
        try:
            _parse_axis(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        # every value of a range lies between its two written endpoints
        low = min(float(x) for x in str(text).split(":")[:2])
        if name in _POSITIVE_AXES and low <= 0:
            raise argparse.ArgumentTypeError(f"{name} must be positive, got {text!r}")
        if low < 0:
            raise argparse.ArgumentTypeError(f"{name} must be non-negative, got {text!r}")
        return text

    return parse


def _routes(text):
    routes = tuple(x.strip() for x in text.split(",") if x.strip())
    bad = [r for r in routes if r not in ROUTES]
    if bad:
        raise argparse.ArgumentTypeError(f"unknown routes {bad}")
    return routes


def _order(text):
    """A non-negative even integer."""
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad order {text!r}")
    if k % 2 or k < 0:
        raise argparse.ArgumentTypeError("orders must be non-negative even integers")
    return k


def _orders(text):
    return tuple(_order(x) for x in text.split(","))


def _positive(text, zero_ok=False):
    """A finite positive number, or zero too with ``zero_ok``: an infinite
    or NaN tolerance would switch its check off."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if math.isfinite(x) and (x > 0 or (zero_ok and x == 0)):
        return x
    kind = "non-negative" if zero_ok else "positive"
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite {kind} number")


def make_parser():
    """Every option, declared once with its type, allowed values and default.
    The option groups run, quadrature and spectral are the sections of a
    ``--config`` file, whose keys are the long options of the group."""
    ap = _Parser(
        prog="ymqm",
        description="partition sums of the coupled quartic oscillators: "
        "closed forms, symbolic expansion, quadrature and spectral oracles",
        epilog="A --config FILE holds [run], [quadrature] and [spectral] "
        "sections; a key is an option of that group without its leading "
        "dashes (basis_n = 40, full_sums = true).  Options on the command "
        "line override the file.",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", metavar="FILE")
    ap.add_argument("--save-spectrum", metavar="FILE")
    ap.add_argument("--study", action="store_true")
    run_opts = ap.add_argument_group("run")
    run_opts.add_argument("--model", choices=("n2", "n3"), help="n3 for the n3 command, else n2")
    for name in AXES:
        run_opts.add_argument(f"--{name}", type=_axis(name), default="1",
                              help="scalar or start:stop:count[:log]")
    run_opts.add_argument("--routes", type=_routes, default="closed,quadrature",
                          help="comma list of " + ",".join(ROUTES))
    run_opts.add_argument("--k", dest="ks", metavar="K", type=_orders, default="2",
                          help="comma list of even orders")
    run_opts.add_argument("--kmax", type=_order, default=4)
    run_opts.add_argument("--full-sums", action="store_true")
    run_opts.add_argument("--quantity", choices=tuple(SWEEP_QUANTITIES), default="tf")
    run_opts.add_argument("--out", metavar="FILE")
    run_opts.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    quad_opts = ap.add_argument_group("quadrature")
    quad_opts.add_argument("--tol-quad", type=_positive, default=1e-9)
    quad_opts.add_argument("--disc-tol", type=functools.partial(_positive, zero_ok=True),
                           default=1e-6)
    spec_opts = ap.add_argument_group("spectral")
    spec_opts.add_argument("--tol-conv", type=_positive, default=1e-6)
    spec_opts.add_argument("--basis-n", type=int, default=32)
    spec_opts.add_argument("--omega", type=_positive)
    return ap


_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_flags(ap, path):
    """The entries of a config file as options of ``ap``."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeError) as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}")
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    groups = {g.title: g._group_actions for g in ap._action_groups}
    flags = []
    for section in cp.sections():
        if section not in CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        actions = {a.option_strings[0]: a for a in groups[section]}
        for key, val in cp.items(section):
            flag = "--" + key.replace("_", "-")
            if flag not in actions:
                raise ConfigError(f"unknown config key [{section}] {key}")
            if actions[flag].nargs != 0:
                flags.append(f"{flag}={val}")
            elif val.lower() not in _SWITCH:
                raise ConfigError(f"[{section}] {key} = {val!r}: expected true or false")
            elif _SWITCH[val.lower()]:
                flags.append(flag)
    return flags


def build_config(argv):
    """Parse ``argv`` and the config file it names into one namespace; a
    malformed or inconsistent value raises :class:`ConfigError`."""
    ap = make_parser()
    cfg = ap.parse_args(argv)
    if cfg.config:
        flags = _config_flags(ap, cfg.config)
        try:
            from_file = ap.parse_args([*flags, cfg.command])
        except ConfigError as exc:
            raise ConfigError(f"config file {cfg.config!r}: {exc}")
        cfg = ap.parse_args(argv, namespace=from_file)
    if cfg.model is None:
        cfg.model = "n3" if cfg.command == "n3" else "n2"
    if cfg.command == "n3" and cfg.model != "n3":
        raise ConfigError("the n3 command computes the three-coordinate model only")
    if cfg.command == "sweep" and SWEEP_QUANTITIES[cfg.quantity][0] != cfg.model:
        raise ConfigError(
            f"sweep --quantity {cfg.quantity} computes the "
            f"{SWEEP_QUANTITIES[cfg.quantity][0]} model, not --model {cfg.model}"
        )
    swept = [name for name in AXES if len(_parse_axis(getattr(cfg, name))) > 1]
    if len(swept) > 2:
        raise ConfigError("at most two swept variables per run")
    if cfg.command != "spectrum" and min(_parse_axis(cfg.g)) == 0:
        raise ConfigError(
            f"g must be positive for {cfg.command}, got {cfg.g!r}; only spectrum takes g = 0"
        )
    if cfg.command == "singular-scan" and min(cfg.ks) < 2:
        raise ConfigError(f"singular-scan needs orders k >= 2, got --k {min(cfg.ks)}")
    if _needs_positive_v(cfg) and min(_parse_axis(cfg.v)) == 0:
        what = f"sweep --quantity {cfg.quantity}" if cfg.command == "sweep" else cfg.command
        raise ConfigError(
            f"v must be positive for {what}, got {cfg.v!r}: its planar terms diverge at v = 0"
        )
    if cfg.command == "spectrum":
        _check_spectrum(cfg, swept)
    return cfg


def _needs_positive_v(cfg):
    """Whether no route of the command evaluates v = 0, where the planar
    terms diverge: every wk/compare route (closed, symbolic, quadrature),
    singular-scan, and the tf and z2 sweeps.  tf (its planar v = 0 row is
    NaN and flagged, so the run exits 1), resum, n3, spectrum and the other
    sweeps take v = 0."""
    if cfg.command == "sweep":
        return cfg.quantity in ("tf", "z2")
    return cfg.command in ("wk", "compare", "singular-scan")


def _check_spectrum(cfg, swept):
    if 0.0 in _parse_axis(cfg.g) and 0.0 in _parse_axis(cfg.v):
        raise ConfigError(
            f"spectrum needs g > 0 or v > 0 at every point, got --g {cfg.g!r} --v {cfg.v!r}: "
            "at g = v = 0 the free particle has no discrete spectrum"
        )
    if cfg.study:
        if cfg.save_spectrum:
            raise ConfigError("--study solves a basis ladder; --save-spectrum keeps one spectrum")
        if swept:
            raise ConfigError(
                f"--study takes one (g, v, hbar) point and picks its own t window: "
                f"do not sweep {', '.join(swept)}"
            )
        if cfg.model == "n3":
            raise ConfigError("--study is defined for the planar model (--model n2)")
        if 0.0 in _parse_axis(cfg.g):
            raise ConfigError(
                "--study needs g > 0: its t window scales as (g^2 hbar^4)^(-1/3)"
            )
        try:
            spectral.study_ladder(cfg.basis_n)
        except DomainError as exc:
            raise ConfigError(f"--basis-n {cfg.basis_n}: {exc}")
        return
    if cfg.save_spectrum and set(swept) - {"t"}:
        raise ConfigError("--save-spectrum keeps one spectrum: sweep only t, not g, v or hbar")
    d = 3 if cfg.model == "n3" else 2
    top = spectral.max_cutoff(d)
    if not spectral.MIN_CUTOFF <= cfg.basis_n <= top:
        raise ConfigError(
            f"--basis-n {cfg.basis_n}: the {d}-D spectrum needs {spectral.MIN_CUTOFF} "
            f"to {top} levels per axis (the convergence check adds "
            f"{spectral.ENLARGEMENT}, within the size cap {spectral.SIZE_CAP})"
        )


def run(cfg):
    """Execute a configuration; returns (exit_status, rows, summary, text)."""
    grid = build_grid(cfg)
    summary = None
    with warnings.catch_warnings():
        # every point outside a formula's regime is flagged on its row
        warnings.simplefilter("ignore", RegimeWarning)
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
        elif cfg.command == "spectrum" and cfg.study:
            rows, summary = rows_study(cfg, grid)
        elif cfg.command == "spectrum":
            rows = rows_spectrum(cfg, grid)
        else:  # sweep
            rows = rows_sweep(cfg, grid)
    table = _table(rows)
    text, n_flag = report(table, summary)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                if cfg.fmt == "csv":
                    write_csv(table, cfg, fh, summary)
                else:
                    write_json(rows, cfg, fh, summary)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}")
    return (1 if n_flag else 0), rows, summary, text


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        status, rows, summary, text = run(build_config(argv))
    except SystemExit as exc:  # --help
        return int(exc.code or 0) and 3
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

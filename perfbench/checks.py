"""Correctness checks on a workload's outputs.

``load_data`` gathers what the worker left behind: the parsed CLI output
files of the last round, the saved planar spectrum, the direct-call values,
and the per-round file hashes.  ``check(name, data)`` returns a list of
failure messages, empty when every output is right.  Each comparison is
against a value from ``refs`` (computed without ymqm) or against a
property the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp

import refs

#: rows of each large sweep compared with mpmath (evenly spaced)
SWEEP_SAMPLE = 12
TF_REL = 1e-10
Z2_REL = 1e-8
SERIES_REL = 1e-10
CONSTANT_ABS = 1e-12
ROUTE_REL = 1e-6
CLOSED_REL = 1e-9
HARMONIC_REL = 1e-10
FD_LEVEL_ABS = 2e-6
FD_LEVELS = 6
SLOPE_TOL = 1e-9
STUDY_SLOPE = (0.9, 1.1)
FOURTH_ORDER = {0: Fraction(1, 30), 1: Fraction(1, 180), 2: Fraction(1, 576)}


def parse_csv(text):
    """``(manifest, rows)`` of a ymqm CSV output; row cells are floats where
    they parse as numbers."""
    manifest, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            manifest[key] = val
        elif line:
            body.append(line)
    rows = []
    for rec in csv.DictReader(io.StringIO("\n".join(body))):
        row = {}
        for k, v in rec.items():
            try:
                row[k] = float(v)
            except ValueError:
                row[k] = v
        rows.append(row)
    return manifest, rows


def parse_json(text):
    """``(manifest, rows)`` of a ymqm JSON output, flags spelled as in CSV."""
    payload = json.loads(text)
    rows = [
        {k: ("FLAG" if v else "ok") if k == "flag" else v for k, v in r.items()}
        for r in payload["rows"]
    ]
    return payload["manifest"], rows


def parse_levels(text):
    header, levels = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            header[key.strip()] = val.strip()
        elif line.strip():
            levels.append(float(line.split()[1]))
    return header, levels


def load_data(ops, result):
    tables, levels = {}, {}
    for op in ops:
        out = result["outputs"].get(op["tag"], {})
        for path in out.get("files", ()):
            path = Path(path)
            if not path.is_file():
                continue
            if path.suffix == ".csv":
                tables[op["tag"]] = parse_csv(path.read_text())
            elif path.suffix == ".json":
                tables[op["tag"]] = parse_json(path.read_text())
            else:
                levels[op["tag"]] = parse_levels(path.read_text())
    return {
        "ops": ops,
        "tables": tables,
        "levels": levels,
        "outputs": result["outputs"],
        "hashes": [r["hashes"] for r in result["rounds"]],
        "failed": sorted({f["tag"] for f in result["failures"]}),
    }


def _num(x):
    """A finite float, or nan for anything else in an output cell."""
    return float(x) if isinstance(x, (int, float)) and math.isfinite(x) else math.nan


def _rel(a, b):
    return abs(_num(a) - b) / max(abs(b), 1e-300)


def _sample(rows):
    step = max(1, len(rows) // SWEEP_SAMPLE)
    return rows[::step]


class Checker:
    def __init__(self, data):
        self.data = data
        self.failures = []

    def fail(self, msg):
        self.failures.append(msg)

    def output(self, tag):
        """The direct-call output of ``tag``; None if the operation failed,
        which is counted in ``failed`` and not checked."""
        if tag in self.data["failed"]:
            return None
        if tag not in self.data["outputs"]:
            self.fail(f"{tag}: no output")
            return None
        return self.data["outputs"][tag]

    def table(self, tag):
        if tag in self.data["failed"]:
            return {}, []
        if tag not in self.data["tables"]:
            self.fail(f"{tag}: no output file")
            return {}, []
        manifest, rows = self.data["tables"][tag]
        if not rows:
            self.fail(f"{tag}: no rows")
        for i, r in enumerate(rows):
            if r.get("flag") != "ok":
                self.fail(f"{tag}: row {i} flagged")
        return manifest, rows

    def close(self, tag, what, got, want, rel):
        if not _rel(got, float(want)) <= rel:
            self.fail(f"{tag}: {what} = {got!r}, reference {mp.nstr(want, 17)} (rel tol {rel:g})")

    def identical_rounds(self):
        hashes = self.data["hashes"]
        if len(hashes) < 2:
            self.fail("fewer than two rounds: output stability not checked")
        for i, h in enumerate(hashes[1:], 1):
            if h != hashes[0]:
                diff = sorted(k for k in set(h) | set(hashes[0]) if h.get(k) != hashes[0].get(k))
                self.fail(f"round {i} output files differ from round 0: {diff}")


def check(name, data):
    c = Checker(data)
    {"semiclassical_series": _semiclassical,
     "route_crosscheck": _route,
     "spectral_ground_truth": _spectral}[name](c)
    c.identical_rounds()
    return c.failures


# -- semiclassical_series --------------------------------------------------------


def _semiclassical(c):
    sinh = refs.load_sinh_series()
    for op in c.data["ops"]:
        if op["kind"] != "kernels":
            continue
        out = c.output(op["tag"])
        if out is None:
            continue
        if op["higgs"]:
            # the g^2-free part of each kernel is the harmonic oscillator's
            d = op["dims"]
            for series, ref_name in (("W", "conventional"), ("S", "resummed")):
                for k, (coeff, wpow) in enumerate(out[series]):
                    want = sinh[ref_name][d][k]
                    got = Fraction(coeff)
                    if got != want or (got and wpow != k - d):
                        c.fail(
                            f"{op['tag']}: g^2-free {series}_{k} gives {got} w^{wpow}, "
                            f"sinh series {want} w^{k - d}"
                        )
        if "table" in out and "4" in out["table"]:
            got = {int(n): Fraction(a) for n, a in out["table"]["4"].items()}
            if got != FOURTH_ORDER:
                c.fail(f"{op['tag']}: k=4 coefficients {got}, expected 1/30, 1/180, 1/576")

    _, rows = c.table("tf")
    for i, r in enumerate(rows):
        args = (r["g"], r["v"], r["hbar"], r["t"])
        c.close("tf", f"row {i} tf", r["tf"], refs.tf_n2(*args), TF_REL)
        c.close("tf", f"row {i} tf_small_v", r["tf_small_v"], refs.tf_small_v(*args), TF_REL)

    _, rows = c.table("sweep_z2")
    for r in _sample(rows):
        c.close("sweep_z2", f"z2 at g={r['g']} v={r['v']} t={r['t']}", r["z2"],
                refs.z2_n2(r["g"], r["v"], r["t"]), Z2_REL)
    _, rows = c.table("sweep_z2_n3")
    for r in _sample(rows):
        c.close("sweep_z2_n3", f"z2_n3 at g={r['g']} t={r['t']}", r["z2_n3"],
                refs.z2_n3(r["g"], r["hbar"], r["t"]), Z2_REL)

    manifest, _ = c.table("singular_scan")
    if manifest:
        for k in (2, 4, 6):
            key = f"slope_abs_z{k}_singular"
            slope = float(manifest.get(key, "nan"))
            if not abs(slope + k) <= SLOPE_TOL:
                c.fail(f"singular_scan: {key} = {slope!r}, expected {-k}")

    _, rows = c.table("resum_leading")
    const = refs.leading_constant()
    for i, r in enumerate(rows):
        if not abs(_num(r.get("constant")) - float(const)) <= CONSTANT_ABS:
            c.fail(f"resum_leading: row {i} constant {r['constant']!r}, "
                   f"expected 5 ln 2 - C + 427/180 = {mp.nstr(const, 17)}")

    table = _coefficient_table(c)
    _, rows = c.table("resum_full")
    for i, r in enumerate(rows):
        args = (r["g"], r["hbar"], r["t"])
        c.close("resum_full", f"row {i} tf_exact_bessel", r["tf_exact_bessel"],
                refs.resummed_tf(*args), SERIES_REL)
        if table is not None:
            c.close("resum_full", f"row {i} total", r["total"],
                    refs.series_total(*args, table), SERIES_REL)


def _coefficient_table(c):
    for op in c.data["ops"]:
        if op["kind"] != "kernels" or op["dims"] != 2 or op["higgs"]:
            continue
        out = c.output(op["tag"])
        if out is None:
            return None
        if "table" in out:
            return {
                int(k): {int(n): Fraction(a) for n, a in t.items()}
                for k, t in out["table"].items()
            }
    c.fail("no coefficient table in the kernel outputs")
    return None


# -- route_crosscheck -------------------------------------------------------------


def _route(c):
    for op in c.data["ops"]:
        tag = op["tag"]
        if op["kind"] == "n3_pair":
            out = c.output(tag)
            if out is None:
                continue
            c.close(tag, "raw_coordinate_n3 vs radial_quadrature_n3", out["raw"],
                    out["radial"], op["rel_tol"])
            continue
        _, rows = c.table(tag)
        for r in rows:
            k = int(r["k"])
            vals = {route: _num(r.get(f"z{k}_{route}"))
                    for route in ("closed", "symbolic", "quadrature")}
            names = sorted(vals)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    if not _rel(vals[a], vals[b]) <= ROUTE_REL:
                        c.fail(f"{tag}: k={k} routes {a} and {b} differ: "
                               f"{vals[a]!r} vs {vals[b]!r}")
            if k == 0:
                want = refs.tf_n2(r["g"], r["v"], r["hbar"], r["t"])
            else:
                want = refs.z2_n2(r["g"], r["v"], r["t"])
            c.close(tag, f"k={k} closed route", vals["closed"], want, CLOSED_REL)


# -- spectral_ground_truth ---------------------------------------------------------


def _brackets(c, tag, rows):
    for i, r in enumerate(rows):
        if not _num(r["z_lo"]) <= _num(r["z_hi"]):
            c.fail(f"{tag}: row {i} bracket lo {r['z_lo']!r} > hi {r['z_hi']!r}")


def _planar(c):
    _, rows = c.table("spectrum_planar")
    if not rows:
        return
    _brackets(c, "spectrum_planar", rows)
    header, levels = c.data["levels"].get("spectrum_planar", ({}, []))
    if not levels:
        c.fail("spectrum_planar: no saved levels")
        return
    n_conv = int(header.get("count_converged", 0))
    for i, r in enumerate(rows):
        want = math.fsum(math.exp(-r["t"] * e) for e in levels[:n_conv])
        c.close("spectrum_planar", f"row {i} z from the saved levels", r["z_spectral"],
                want, 1e-12)
    r = rows[0]
    fd = refs.fd_planar_levels(r["g"], r["v"], r["hbar"], k=FD_LEVELS)
    for i in range(min(FD_LEVELS, n_conv)):
        if not abs(levels[i] - fd[i]) <= FD_LEVEL_ABS:
            c.fail(f"spectrum_planar: level {i} = {levels[i]!r}, finite differences {fd[i]!r}")


def _spectral(c):
    _, rows = c.table("spectrum_harmonic")
    _brackets(c, "spectrum_harmonic", rows)
    for i, r in enumerate(rows):
        c.close("spectrum_harmonic", f"row {i} z", r["z_spectral"],
                refs.harmonic_z(r["v"], r["hbar"], r["t"]), HARMONIC_REL)

    _planar(c)

    manifest, _ = c.table("spectrum_study")
    slope = float(manifest.get("slope", "nan"))
    if manifest and not STUDY_SLOPE[0] <= slope <= STUDY_SLOPE[1]:
        c.fail(f"spectrum_study: leading-log slope {slope!r} outside 1.0 +/- 0.1")

    out = c.output("spectral_n3")
    if out is None:
        return
    sectors = out["sectors"]
    for group in (("001", "010", "100"), ("011", "101", "110")):
        base = sectors[group[0]]
        for other in group[1:]:
            w = sectors[other]
            if len(w) != len(base) or any(
                abs(a - b) > 1e-9 * max(1.0, abs(a)) for a, b in zip(base, w)
            ):
                c.fail(f"spectral_n3: parity sectors {group[0]} and {other} disagree")
    merged = sorted(e for w in sectors.values() for e in w)
    big = out["enlarged"]
    if len(big) != len(merged):
        c.fail(f"spectral_n3: {len(big)} enlarged levels for {len(merged)} base levels")
    for i, (a, b) in enumerate(zip(merged, big)):
        if b > a + 1e-9 * max(1.0, abs(a)):
            c.fail(f"spectral_n3: level {i} rose from {a!r} to {b!r} under enlargement")
            break
    if out["count_converged"] < 1:
        c.fail("spectral_n3: no converged level")

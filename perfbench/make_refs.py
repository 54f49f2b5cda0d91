#!/usr/bin/env python3
"""Regenerate ``perfbench/refs/sinh_series.json`` with sympy:

    python3 perfbench/make_refs.py

For d = 1, 2, 3 and every order k <= 8 it stores the coefficient of
w^(k-d) in the Laurent series of (2 sinh(w/2))^-d (the harmonic partition
function, matched by the conventional kernels) and of
e^(d w^2/4) (2 sinh(w/2))^-d (matched by the resummed kernels).
"""

import json
from pathlib import Path

import sympy as sp

MAX_ORDER = 8
OUT = Path(__file__).resolve().parent / "refs" / "sinh_series.json"


def coefficients(expr, d):
    w = sp.Symbol("w")
    series = sp.series(expr(w) * w**d, w, 0, MAX_ORDER + 1).removeO()
    return [str(sp.Rational(series.coeff(w, k))) for k in range(MAX_ORDER + 1)]


def main():
    data = {"conventional": {}, "resummed": {}}
    for d in (1, 2, 3):
        data["conventional"][str(d)] = coefficients(
            lambda w: (2 * sp.sinh(w / 2)) ** -d, d
        )
        data["resummed"][str(d)] = coefficients(
            lambda w: sp.exp(d * w**2 / 4) * (2 * sp.sinh(w / 2)) ** -d, d
        )
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(
        json.dumps({"generator": "perfbench/make_refs.py", "coefficients": data}, indent=1)
        + "\n"
    )


if __name__ == "__main__":
    main()

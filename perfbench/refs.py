"""Reference values computed apart from ymqm.

These run in the benchmark's parent process, after the workload process has
exited, so they count neither towards ``batch_s`` nor ``peak_rss_mb``.
Nothing here imports ymqm.

* mpmath: the Bessel K_0 leading terms, the coordinate moments I_mn as a
  one-dimensional integral (the Gaussian y-integral done by hand), the
  radial J_b integrals of the three-coordinate model, and the resummed
  series from its coefficient table;
* numpy/scipy: a fourth-order finite-difference diagonalisation of the
  planar Hamiltonian on two grids, Richardson-extrapolated in h^4;
* sympy, offline: the harmonic sinh series, stored in
  ``refs/sinh_series.json`` by ``python3 perfbench/make_refs.py``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import mpmath as mp

mp.mp.dps = 25

SINH_SERIES = Path(__file__).resolve().parent / "refs" / "sinh_series.json"

LN2 = mp.log(2)
EULER = mp.euler


def load_sinh_series():
    """``{"conventional"|"resummed": {d: [Fraction per order k]}}``: the
    coefficient of w^(k-d) in (2 sinh(w/2))^-d, and in
    e^(d w^2/4) (2 sinh(w/2))^-d."""
    raw = json.loads(SINH_SERIES.read_text())
    return {
        series: {int(d): [Fraction(c) for c in coeffs] for d, coeffs in by_d.items()}
        for series, by_d in raw["coefficients"].items()
    }


def prefactor_K(g, hbar, t):
    return 1 / mp.sqrt(2 * mp.pi * g**2 * hbar**4 * t**3)


def tf_n2(g, v, hbar, t):
    """K e^w K_0(w), w = t v^4 / (4 g^2)."""
    g, v, hbar, t = map(mp.mpf, (g, v, hbar, t))
    w = t * v**4 / (4 * g**2)
    return prefactor_K(g, hbar, t) * mp.exp(w) * mp.besselk(0, w)


def tf_small_v(g, v, hbar, t):
    g, v, hbar, t = map(mp.mpf, (g, v, hbar, t))
    return prefactor_K(g, hbar, t) * (mp.log(8 * g**2 / (t * v**4)) - EULER)


def imn(m, n, g, v, t):
    """I_mn = 4 int int x^2m y^2n exp[-(t/2)(v^2 (x^2+y^2) + g^2 x^2 y^2)],
    with the y-integral int y^2n e^(-a y^2) = Gamma(n+1/2) / (2 a^(n+1/2))."""
    g, v, t = map(mp.mpf, (g, v, t))

    def f(x):
        a = t * (v**2 + g**2 * x**2) / 2
        return x ** (2 * m) * mp.exp(-t * v**2 * x**2 / 2) * a ** -(n + mp.mpf(1) / 2)

    s1, s2 = sorted((v / g, 1 / mp.sqrt(t * v**2)))
    return 2 * mp.gamma(n + mp.mpf(1) / 2) * mp.quad(f, [0, s1, s2, mp.inf])


def z2_n2(g, v, t):
    """(t / 12 pi) [(-g^2 + t v^4/2) I_10 + (t g^4/2) I_21 - v^2 I_00 + t g^2 v^2 I_11]."""
    g, v, t = map(mp.mpf, (g, v, t))
    g2, v2 = g**2, v**2
    bracket = (
        (-g2 + t * v2**2 / 2) * imn(1, 0, g, v, t)
        + t * g2**2 / 2 * imn(2, 1, g, v, t)
        - v2 * imn(0, 0, g, v, t)
        + t * g2 * v2 * imn(1, 1, g, v, t)
    )
    return t / (12 * mp.pi) * bracket


def radial_jb(b, lam):
    """J_b(lam) = int_0^inf u^b e^(-u^2 - lam u) (lam + 8u)^(-3/2) du."""
    lam = mp.mpf(lam)
    return mp.quad(
        lambda u: u**b * mp.exp(-u * u - lam * u) * (lam + 8 * u) ** mp.mpf(-1.5),
        [0, lam / 8, lam, 1, mp.inf],
    )


def z2_n3(g, hbar, t):
    """sqrt(2) t^(-3/4) / (hbar g^(1/2)) [-J_0(lam) + 4 J_2(lam)], lam = g hbar^2 t^(3/2)."""
    g, hbar, t = map(mp.mpf, (g, hbar, t))
    lam = g * hbar**2 * t**1.5
    return mp.sqrt(2) * t ** mp.mpf(-0.75) / (hbar * mp.sqrt(g)) * (
        -radial_jb(0, lam) + 4 * radial_jb(2, lam)
    )


def resummed_tf(g, hbar, t):
    """K e^(lam2/16) K_0(lam2/16)."""
    g, hbar, t = map(mp.mpf, (g, hbar, t))
    w = g**2 * hbar**4 * t**3 / 16
    return prefactor_K(g, hbar, t) * mp.exp(w) * mp.besselk(0, w)


def series_total(g, hbar, t, table):
    """K [-ln lam2 + 5 ln 2 - C + sum_k sum_n a_n^(k) Zt_k,n] with the full
    singular sums

        Zt_k,n = 2^k (2n-1)!!/Gamma(n+1/2)
                 sum_{p=0}^{k/2-1} Gamma(k/2-p) Gamma(n+1/2+p) (-lam2/8)^p / p!."""
    g, hbar, t = map(mp.mpf, (g, hbar, t))
    lam2 = g**2 * hbar**4 * t**3
    acc = -mp.log(lam2) + 5 * LN2 - EULER
    half = mp.mpf(1) / 2
    for k, coeffs in table.items():
        for n, a in coeffs.items():
            psum = mp.fsum(
                mp.gamma(k // 2 - p) * mp.gamma(n + half + p) * (-lam2 / 8) ** p
                / mp.factorial(p)
                for p in range(k // 2)
            )
            dfact = mp.fac2(2 * n - 1) if n else 1
            coeff = mp.mpf(a.numerator) / a.denominator
            acc += coeff * 2**k * dfact / mp.gamma(n + half) * psum
    return prefactor_K(g, hbar, t) * acc


def leading_constant():
    """5 ln 2 - C + 427/180, the assembled constant through k = 4."""
    return 5 * LN2 - EULER + mp.mpf(427) / 180


def harmonic_z(v, hbar, t):
    return (2 * mp.sinh(mp.mpf(hbar) * v * t / 2)) ** -2


# -- finite differences ---------------------------------------------------------

FD_HALF_WIDTH = 7.0
FD_GRIDS = (140, 180)


def _fd_levels(g, v, hbar, n, k):
    import numpy as np
    import scipy.sparse as sps
    from scipy.sparse.linalg import eigsh

    h = 2 * FD_HALF_WIDTH / (n + 1)
    x = -FD_HALF_WIDTH + h * np.arange(1, n + 1)
    d2 = sps.diags(
        [-np.ones(n - 2), 16 * np.ones(n - 1), -30 * np.ones(n), 16 * np.ones(n - 1),
         -np.ones(n - 2)],
        [-2, -1, 0, 1, 2],
    ) / (12 * h * h)
    eye = sps.identity(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    V = 0.5 * g * g * X**2 * Y**2 + 0.5 * v * v * (X**2 + Y**2)
    H = -0.5 * hbar**2 * (sps.kron(d2, eye) + sps.kron(eye, d2)) + sps.diags(V.ravel())
    w = eigsh(H.tocsc(), k=k, sigma=0, which="LM", return_eigenvectors=False)
    return np.sort(w), h


def fd_planar_levels(g, v, hbar, k=6):
    """Lowest ``k`` planar levels from a fourth-order stencil on a
    [-7, 7]^2 grid with Dirichlet walls, extrapolated from two grids.
    Needs v of order one so that the walls are far in the harmonic tail;
    the extrapolated levels are good to about 1e-7."""
    (e1, h1), (e2, h2) = (_fd_levels(g, v, hbar, n, k) for n in FD_GRIDS)
    return (e2 * h1**4 - e1 * h2**4) / (h1**4 - h2**4)

"""Closed-form partition sums of the quartic-oscillator models.

Routes implemented here:

* leading (phase-space) term with its harmonic-strength Bessel form and the
  v -> 0 logarithmic limit;
* the order-hbar^2 correction as a bracket of four moment integrals;
* the general moment integrals I_mn in Bessel form: with a = t v^2/2,
  b = t g^2/2 and u = a^2/(2b) = z/2,

      I_mn = sqrt(pi/b) sum c a^p b^q E_j(u),   E_0 = e^u K_0(u), E_1 = e^u K_1(u),

  with exact rational c from I_00 = sqrt(pi/b) E_0(u), I_{m+1,n+1} = -d_b I_mn
  and the integration by parts (2m+1) I_mn = 2a I_{m+1,n} + 2b I_{m+1,n+1}.
  Where the terms cancel the Whittaker (Laplace-integral) form is used;
* the v -> 0 structures at order hbar^k, each family written once:
  :func:`zk_singular`, the power divergences v^-(k - 4 ell) with indices
  m - n = k/2 - 2 ell (ell = 0 the most singular), and
  :func:`zk_diagonal_log`, the purely logarithmic equal-index structures;
* their resummations v^2 -> v^2 + hbar^2 g^2 t/2, regular as v -> 0:
  :func:`tilde_zk_singular` (the alternating singular p-sums of the same
  ell family), :func:`zk_diagonal_log` at ``params.with_veff()``, the
  closed terms :func:`resummed_term`, and the asymptotic series in
  lam2 = g^2 hbar^4 t^3 assembled by :func:`series_assemble`;
* the three-coordinate model: leading term, radial J integrals (a series
  in upper incomplete gamma functions, with quadrature as the fallback)
  and the order-hbar^2 correction.

Dimensionless outputs depend only on lam2 and z = t v^4/(2 g^2).
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import AccuracyError, DomainError, RegimeWarning
from .special import (
    EULER_GAMMA,
    WhittakerArgs,
    bessel_k0_scaled,
    bessel_k1_scaled,
    digamma,
    double_factorial,
    gamma_fn,
    gamma_upper,
    whittaker_w,
)

_C = EULER_GAMMA
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
#: a closed sum (Bessel or incomplete-gamma) is used while
#: sum |terms| * 2^-52 <= _CANCEL_TOL * sum
_CANCEL_TOL = 1e-12
_FIVE_LN2 = 5.0 * math.log(2.0)
#: terms of the incomplete-gamma series of radial_Jb; at lam = 4 the last
#: one is about 1e-9 of the sum, so the guard hands the point to quadrature
_JB_TERMS = 40
#: small-lam2 constants of the resummed series in units of K:
#: Z = K [-ln lam2 + LEADING_LOG_CONSTANT + RESUMMED_CONSTANTS[2] + RESUMMED_CONSTANTS[4] + ..]
LEADING_LOG_CONSTANT = _FIVE_LN2 - _C
RESUMMED_CONSTANTS = {2: 5.0 / 3.0, 4: 127.0 / 180.0}


def tf_partition_n2(params):
    """Leading term of the planar model: K e^(z/2) K_0(z/2) with z/2 = t v^4/(4 g^2)."""
    if params.v <= 0:
        raise DomainError("v must be positive (use tf_limit_v0 for the limit)")
    if params.g <= 0:
        raise DomainError("g must be positive")
    w = params.t * params.v**4 / (4.0 * params.g**2)
    return params.prefactor_K() * bessel_k0_scaled(w)


def tf_limit_v0(params):
    """Small-v form of the leading term, K (ln(8 g^2/(t v^4)) - C)."""
    if params.v <= 0 or params.g <= 0:
        raise DomainError("g and v must be positive")
    if not params.z_in_regime():
        warnings.warn(
            f"z = {params.z:.3g} outside the small-z regime", RegimeWarning
        )
    return params.prefactor_K() * (
        math.log(8.0 * params.g**2 / (params.t * params.v**4)) - _C
    )


def _collect(items):
    """Sum ``(key, c)`` pairs into ``{key: c}``, dropping zero coefficients."""
    out = {}
    for key, c in items:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _minus_d_b(form):
    """-d/db of sqrt(pi/b) sum c a^p b^q E_j(u), u = a^2/(2b), as the
    coefficients of the same form; uses E_0' = E_0 - E_1 and
    E_1' = E_1 - E_0 - E_1/u with du/db = -a^2/(2b^2)."""
    half = Fraction(1, 2)
    items = []
    for (j, p, q), c in form.items():
        s = half * c if j == 0 else -half * c
        items += [((j, p, q - 1), (half - q) * c),
                  ((0, p + 2, q - 2), s), ((1, p + 2, q - 2), -s)]
        if j == 1:
            items.append(((1, p, q - 1), -c))
    return _collect(items)


@lru_cache(maxsize=None)
def _bessel_form(m, n):
    """Exact coefficients {(j, p, q): c} of I_mn = sqrt(pi/b) sum c a^p b^q E_j(u)."""
    if n > 0:
        return _minus_d_b(_bessel_form(m - 1, n - 1))
    if m == 0:
        return {(0, 0, 0): Fraction(1)}
    # (2m-1) I_{m-1,0} = 2a I_m0 + 2b I_m1, solved for I_m0
    lower = [((j, p - 1, q), Fraction(2 * m - 1, 2) * c)
             for (j, p, q), c in _bessel_form(m - 1, 0).items()]
    upper = [((j, p - 1, q + 1), -c) for (j, p, q), c in _bessel_form(m, 1).items()]
    return _collect(lower + upper)


@lru_cache(maxsize=None)
def _bessel_terms(m, n):
    """``(j, p, float(c))`` of :func:`_bessel_form`.  Every term has
    p + 2q = -(m+n), so a^p b^q = b^(-(m+n)/2) r^p with r = a/sqrt(b)."""
    return tuple((j, p, float(c)) for (j, p, _), c in sorted(_bessel_form(m, n).items()))


def integral_Imn_closed(m, n, params):
    """Coordinate moment I_mn (m >= n >= 0) in closed Bessel form.

    With a = t v^2/2, b = t g^2/2, u = a^2/(2b) = z/2 and r = a/sqrt(b):

        I_mn = sqrt(pi/b) sum c a^p b^q E_j(u)
             = sqrt(pi) b^(-(m+n+1)/2) sum c r^p E_j(u),

    E_0 = e^u K_0(u), E_1 = e^u K_1(u), with the exact rational
    coefficients c of :func:`_bessel_form`, built once per (m, n).  The
    terms have both signs and cancel as z grows (for (8, 8) at z = 50 by
    about sixteen digits), so when the sum is not positive or
    sum |terms| * 2^-52 > 1e-12 * sum the value comes from the Whittaker
    form :func:`integral_Imn_whittaker` instead.
    """
    if m < n or n < 0:
        raise DomainError("requires m >= n >= 0 (symmetrize the indices first)")
    if params.v <= 0 or params.g <= 0:
        raise DomainError("g and v must be positive")
    b = 0.5 * params.t * params.g**2
    r = 0.5 * params.t * params.v**2 / math.sqrt(b)
    u = 0.5 * r * r
    e = (bessel_k0_scaled(u), bessel_k1_scaled(u))
    terms = [c * r**p * e[j] for j, p, c in _bessel_terms(m, n)]
    total = math.fsum(terms)
    rounding = math.fsum(map(abs, terms)) * 2.0**-52
    if not 0.0 < total < math.inf or rounding > _CANCEL_TOL * total:
        return integral_Imn_whittaker(m, n, params)
    return _SQRT_PI * b ** (-(m + n + 1) / 2.0) * total


def integral_Imn_whittaker(m, n, params):
    """Coordinate moment I_mn (m >= n >= 0) in Whittaker form:

        I_mn = sqrt(2 pi) (2n-1)!! (v^2)^(m-n) t^(-n-1/2) g^(-2m-1)
               e^(z/2) z^(-(m-n+1)/2) Gamma(m+1/2) W_{-(m+n)/2,(m-n)/2}(z),

    with W from its Laplace integral: the fallback of
    :func:`integral_Imn_closed` and the oracle it is tested against.
    """
    if m < n or n < 0:
        raise DomainError("requires m >= n >= 0 (symmetrize the indices first)")
    if params.v <= 0 or params.g <= 0:
        raise DomainError("g and v must be positive")
    z = params.z
    w = whittaker_w(WhittakerArgs(-(m + n) / 2.0, (m - n) / 2.0, z))
    return (
        _SQRT_2PI
        * double_factorial(2 * n - 1)
        * params.v ** (2 * (m - n))
        * params.t ** -(n + 0.5)
        * params.g ** -(2 * m + 1)
        * math.exp(0.5 * z)
        * z ** (-(m - n + 1) / 2.0)
        * gamma_fn(m + 0.5)
        * w
    )


def z2_closed_n2(params):
    """Order-hbar^2 term of the planar model as the four-moment bracket

        Z_2 = (t / 12 pi) [ (-g^2 + t v^4/2) I_10 + (t g^4/2) I_21
                            - v^2 I_00 + t g^2 v^2 I_11 ].
    """
    if params.v <= 0 or params.g <= 0:
        raise DomainError("g and v must be positive")
    g2 = params.g**2
    v2 = params.v**2
    t = params.t
    i00 = integral_Imn_closed(0, 0, params)
    i10 = integral_Imn_closed(1, 0, params)
    i11 = integral_Imn_closed(1, 1, params)
    i21 = integral_Imn_closed(2, 1, params)
    bracket = (
        (-g2 + 0.5 * t * v2**2) * i10
        + 0.5 * t * g2**2 * i21
        - v2 * i00
        + t * g2 * v2 * i11
    )
    return t / (12.0 * math.pi) * bracket


def z2_limit_v0(params):
    """Test oracle of :func:`z2_closed_n2` as v -> 0 (acceptance 3a), its
    asymptote -K hbar^2 g^2 t^(3/2) / (6 sqrt(t v^4))."""
    if params.v <= 0:
        raise DomainError("v must be positive")
    return (
        -params.prefactor_K()
        * params.hbar**2
        * params.g**2
        * params.t**1.5
        / (6.0 * math.sqrt(params.t * params.v**4))
    )


# -- v -> 0 singular families ------------------------------------------------


def _check_order(k, ell=0):
    """Validate the order k (even, >= 2) and the mildness index
    0 <= ell < k/4; returns ell as an int."""
    if k < 2 or k % 2:
        raise DomainError("k must be an even integer >= 2")
    if not float(ell).is_integer() or not 0 <= ell < k / 4:
        raise DomainError("ell must be an integer in [0, k/4)")
    return int(ell)


def zk_singular(k, m, params, ell=0):
    """Generic magnitude of a power-divergent structure at order hbar^k with
    indices m - n = k/2 - 2 ell (k/2 <= m <= k, 0 <= ell < k/4):

        Z = K (4 g^4 hbar^4 t^3/(v^4 t))^(k/4) (v^4 t / 4 g^4)^ell
            Gamma(k/2 - ell) (2m-k-1)!!,

    diverging as v^-(k - 4 ell); ell = 0 is the most singular structure.
    """
    ell = _check_order(k, ell)
    if not k // 2 <= m <= k:
        raise DomainError("m must satisfy k/2 <= m <= k")
    if params.v <= 0:
        raise DomainError("v must be positive")
    ratio = 4.0 * params.g**4 * params.hbar**4 * params.t**3 / (params.v**4 * params.t)
    return (
        params.prefactor_K()
        * ratio ** (k / 4.0)
        * (params.v**4 * params.t / (4.0 * params.g**4)) ** ell
        * gamma_fn(k / 2.0 - ell)
        * double_factorial(2 * m - k - 1)
    )


def zk_diagonal_log(k, m, params):
    """Equal-index structures, logarithmic only:

        Z = K (g^2 hbar^4 t^3)^(k/4) [ln(2 g^2/(v^4 t)) - 2C - psi(m+1/2)].

    At ``params.with_veff()`` (v^2 -> hbar^2 g^2 t/2) this is the resummed
    diagonal structure K lam2^(k/4) [-ln lam2 + 3 ln 2 - 2C - psi(m+1/2)],
    finite and v-independent.  Test oracle: no route calls it.
    """
    _check_order(k)
    if m < 0:
        raise DomainError("m must be non-negative")
    if params.v <= 0:
        raise DomainError("v must be positive")
    return (
        params.prefactor_K()
        * params.lam2 ** (k / 4.0)
        * (
            math.log(2.0 * params.g**2 / (params.v**4 * params.t))
            - 2.0 * _C
            - digamma(m + 0.5)
        )
    )


# -- resummed (effective-Higgs) terms ----------------------------------------


def _warn_lam2(params):
    if not params.lam2_in_regime():
        warnings.warn(
            f"lam2 = {params.lam2:.3g} outside the small-lam2 regime",
            RegimeWarning,
        )


def resummed_term(k, params):
    """Resummed terms, finite and v-independent as v -> 0:

    k = 0: K e^(lam2/16) K_0(lam2/16)  (exactly);
    k = 2, 4: RESUMMED_CONSTANTS[k] K  (leading small-lam2 constants).
    """
    K = params.prefactor_K()
    if k == 0:
        w = params.lam2 / 16.0
        return K * bessel_k0_scaled(w)
    _warn_lam2(params)
    if k in RESUMMED_CONSTANTS:
        return RESUMMED_CONSTANTS[k] * K
    raise DomainError("closed resummed constants exist for k in {0, 2, 4}")


def resummed_tf_log_form(params):
    """Small-lam2 form of the resummed leading term, K (ln(1/lam2) + 5 ln 2 - C)."""
    # summed left to right: -ln lam2 + LEADING_LOG_CONSTANT rounds differently
    return params.prefactor_K() * (-math.log(params.lam2) + _FIVE_LN2 - _C)


def _singular_p_sum(k_eff, n, lam2, pmax=None):
    """sum_p Gamma(k_eff - p) Gamma(n + 1/2 + p) (-lam2/8)^p / p! over
    p = 0 .. k_eff - 1 (or fewer)."""
    last = k_eff - 1 if pmax is None else min(pmax, k_eff - 1)
    total = 0.0
    fact = 1.0
    for p in range(last + 1):
        if p:
            fact *= p
        total += (
            gamma_fn(k_eff - p)
            * gamma_fn(n + 0.5 + p)
            * (-lam2 / 8.0) ** p
            / fact
        )
    return total


def tilde_zk_singular(k, n, params, ell=0, pmax=None):
    """Resummed power-divergent structures, regular as v -> 0: the full
    singular series (0 <= ell < k/4, n >= 0, and n <= k/2 at ell = 0)

        K lam2^ell 2^(k-4 ell) (2n-1)!!/Gamma(n+1/2)
          sum_{p=0}^{k/2-2 ell-1} Gamma(k/2-2 ell-p) Gamma(n+1/2+p) (-lam2/8)^p / p!.

    ``pmax=0`` keeps only the leading term of each series.
    """
    ell = _check_order(k, ell)
    if n < 0:
        raise DomainError("n must be non-negative")
    if not ell and n > k // 2:
        raise DomainError("n must lie in [0, k/2] at ell = 0")
    return (
        params.prefactor_K()
        * params.lam2**ell
        * 2.0 ** (k - 4 * ell)
        * double_factorial(2 * n - 1)
        / gamma_fn(n + 0.5)
        * _singular_p_sum(k // 2 - 2 * ell, n, params.lam2, pmax)
    )


def series_assemble(params, k_max, a_coefficients, full_sums=False):
    """Assemble the asymptotic series

        Z(t) = K [ -ln lam2 + 5 ln 2 - C
                   + sum_{k=2,4,..} sum_n a_n^(k/2) * (singular sums) ]

    from the symbolically extracted coefficient table
    ``a_coefficients[k][n]``.  With ``full_sums`` the complete alternating
    p-sums are used instead of their leading terms.

    Returns ``({k: Z_k}, total)`` for k = 0, 2, .., k_max.
    """
    if k_max < 0 or k_max % 2:
        raise DomainError("k_max must be a non-negative even integer")
    _warn_lam2(params)
    terms = {0: resummed_tf_log_form(params)}
    pmax = None if full_sums else 0
    for k in range(2, k_max + 1, 2):
        terms[k] = sum(
            float(a) * tilde_zk_singular(k, n, params, pmax=pmax)
            for n, a in sorted(a_coefficients[k].items())
        )
    return terms, sum(terms.values())


# -- three-coordinate model ---------------------------------------------------


def tf_term_n3(params):
    """Leading term of the three-coordinate model,
    L = Gamma(1/4)^3/2 * (2 pi^2 g^2 hbar^4 t^3)^(-3/4)."""
    return params.prefactor_L()


def _check_jb(b, lam):
    if lam <= 0:
        raise DomainError("lam must be positive")
    if b not in (0, 2):
        raise DomainError("only the b = 0, 2 members are used")


def radial_Jb(b, lam):
    """J_b(lam) = int_0^inf u^b e^(-u^2 - lam u) (lam + 8u)^(-3/2) du, b = 0, 2,
    as a series in upper incomplete gamma functions.

    With y = (lam + 8u)/8, a = lam/8, c = 3 lam/8 and
    F_s = int_a^inf y^s e^(-(y+c)^2) dy,

        J_0 = 8^(-3/2) e^(lam^2/4) F_{-3/2},
        J_2 = 8^(-3/2) e^(lam^2/4) [F_{1/2} - 2a F_{-1/2} + a^2 F_{-3/2}],

    where, by parts, F_{-3/2} = 2 [a^(-1/2) e^(-(a+c)^2) - 2 F_{1/2} - 2c F_{-1/2}]
    and e^(lam^2/4) e^(-(a+c)^2) = 1.  Expanding e^(-2cy), for s = +-1/2

        F_s = e^(-c^2) sum_n (-2c)^n/n! Gamma((n+s+1)/2, a^2)/2,

    so that, with G_k = Gamma(k/2 + 1/4, a^2),

        J_b = 8^(-3/2) [2 a^(b-1/2) + e^(lam^2/4 - c^2)
                        sum_{n<40} (-2c)^n/n! (alpha G_{n+1} + beta G_n)/2],

    alpha = -4, beta = -4c for b = 0 and alpha = 1 - 4a^2,
    beta = -2a(1 + 2ac) for b = 2.  The terms have both signs; when their
    sum is not finite and positive, sum |terms| * 2^-52 > 1e-12 * sum, or
    the last term exceeds 1e-12 * sum, the value comes from
    :func:`radial_Jb_quadrature` instead.  That happens from lam of about
    3.4 on, never for lam < 1.
    """
    _check_jb(b, lam)
    a = lam / 8.0
    c = 3.0 * a
    n = np.arange(_JB_TERMS + 1.0)
    G = gamma_upper(n / 2.0 + 0.25, a * a)
    if b == 0:
        edge, alpha, beta = 2.0 / math.sqrt(a), -4.0, -4.0 * c
    else:
        edge, alpha, beta = 2.0 * a * math.sqrt(a), 1.0 - 4.0 * a * a, -2.0 * a * (1.0 + 2.0 * a * c)
    # a large lam overflows to inf or nan terms, which the guard refuses
    with np.errstate(over="ignore", invalid="ignore"):
        # e^(lam^2/4 - c^2) (-2c)^n / (2 n!) as a running product
        coef = np.empty(_JB_TERMS)
        coef[0] = 0.5 * np.exp(lam * lam / 4.0 - c * c)
        coef[1:] = -2.0 * c / n[1:-1]
        series = coef.cumprod() * (alpha * G[1:] + beta * G[:-1])
        total = edge + series.sum()
        rounding = (edge + np.abs(series).sum()) * 2.0**-52
    if not 0.0 < total < math.inf or max(rounding, abs(series[-1])) > _CANCEL_TOL * total:
        return radial_Jb_quadrature(b, lam)
    return 8.0**-1.5 * float(total)


def radial_Jb_quadrature(b, lam, rel_tol=1e-11):
    """J_b(lam) by adaptive quadrature: the fallback of :func:`radial_Jb`
    and the oracle it is tested against.

    The lam-scale boundary layer [0, 100 lam] is resolved explicitly, and
    the algebraic stretch u^(b - 3/2) from there to u = 1, which spans
    decades as lam -> 0, is integrated in s = ln u.  Raises
    :class:`AccuracyError` if a piece does not converge.
    """
    _check_jb(b, lam)

    def f(u):
        return u**b * math.exp(-u * u - lam * u) * (lam + 8.0 * u) ** -1.5

    def stretched(s):
        u = math.exp(s)
        return u * f(u)

    edge = min(1.0, 100.0 * lam)
    opts = dict(epsabs=0.0, epsrel=rel_tol, limit=300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            total = quad(f, 0.0, edge, **opts)[0]
            if edge < 1.0:
                total += quad(stretched, math.log(edge), 0.0, **opts)[0]
            return total + quad(f, 1.0, 30.0, **opts)[0]
        except IntegrationWarning as exc:
            raise AccuracyError(f"J_{b}({lam:g}) quadrature did not converge: {exc}") from None


def z2_n3(params):
    """Order-hbar^2 term of the three-coordinate model with the effective
    harmonic regulator applied:

        Z_2 = sqrt(2) t^(-3/4) / (hbar g^(1/2)) * [-J_0(lam) + 4 J_2(lam)].

    As lam -> 0 this reproduces -L * Gamma(3/4)^3 / (2^(5/4) pi^(3/2)) * lam^(1/2),
    the correction to the leading term L.
    """
    if params.n_model != 3:
        raise DomainError("z2_n3 requires n_model = 3")
    if params.g <= 0:
        raise DomainError("g must be positive")
    lam = params.lam
    if lam >= 1.0:
        warnings.warn(f"lam = {lam:.3g} outside the small-lam regime", RegimeWarning)
    j0 = radial_Jb(0, lam)
    j2 = radial_Jb(2, lam)
    return (
        math.sqrt(2.0)
        * params.t**-0.75
        / (params.hbar * math.sqrt(params.g))
        * (-j0 + 4.0 * j2)
    )


def z2_n3_structure(params):
    """The small-lam structural form of the order-hbar^2 term,
    -(L) * Gamma(3/4)^3 / (2^(5/4) pi^(3/2)) * lam2^(1/4)."""
    return (
        -tf_term_n3(params)
        * gamma_fn(0.75) ** 3
        / (2.0**1.25 * math.pi**1.5)
        * params.lam2**0.25
    )

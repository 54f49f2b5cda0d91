"""Brute-force numerical evaluation of every integral the closed forms claim.

Momentum integrals are exact Gaussians, so only coordinate integrals are
numeric.  A moment integral I_mn is one adaptive ``quad`` along the
channel-aligned line u = x y, the hyperbolic-angle integral done exactly as
a Bessel K.  The phase-space integral of a reduced kernel in two or three
coordinates and the raw three-coordinate structures are one adaptive
cubature of a vectorized integrand over the box [0, R]^d (the weight is
even in every coordinate), with R chosen so the Gaussian tail beyond it
stays below rel_tol / _TAIL_SAFETY.  The radial reductions of the
three-coordinate model are one-dimensional ``quad`` as well.

Every :class:`OracleValue` error is the engine's own estimate plus, where a
cutoff truncates the domain, the tail bound it was chosen for; an engine
that does not converge raises :class:`AccuracyError`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np
from scipy import special as sp
# the benchmark's traced rounds count calls by patching ``quad`` here (perfbench/spans.py)
from scipy.integrate import IntegrationWarning, cubature, quad

from .errors import AccuracyError, DivergentIntegralError, DomainError
from .reduction import integrate_momenta

_TAIL_SAFETY = 10.0  # tail-truncation bound kept below rel_tol / safety
_QUAD_LIMIT = 200  # subintervals per one-dimensional quad
#: below this z = t v^4 / (2 g^2) of the weight phase_space_quadrature
#: refuses: the box cubature misses the channels from z ~ 3e-5
_CHANNEL_Z = 1e-3


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-9


@dataclass(frozen=True)
class OracleValue:
    value: float
    error: float

    def __float__(self):
        return self.value


def _cubature(f, d, cut, spec):
    """(value, error) of int_[0, cut]^d f for f mapping (npoints, d) to
    (npoints,)."""
    res = cubature(f, np.zeros(d), np.full(d, cut), rtol=spec.rel_tol / _TAIL_SAFETY)
    if res.status != "converged":
        raise AccuracyError(
            f"{d}-D cubature not converged: error {float(res.error):.3g} "
            f"on {float(res.estimate):.6g}"
        )
    return float(res.estimate), float(res.error)


def _line_integral(f, a, b, spec, points=None):
    """(value, error) of a one-dimensional integral by adaptive quad."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            return quad(
                f, a, b, epsabs=0.0, epsrel=spec.rel_tol / _TAIL_SAFETY,
                limit=_QUAD_LIMIT, points=points,
            )
        except IntegrationWarning as exc:
            raise AccuracyError(f"quadrature did not converge: {exc}") from None


def _oracle(value, error, spec):
    """Engine error plus the relative tail bound the cutoffs were chosen for."""
    return OracleValue(value, abs(error) + abs(value) * spec.rel_tol / _TAIL_SAFETY)


def _weight_params(params, effective):
    """(g2, v2_weight, extra): couplings of the coordinate weight
    exp(-t [v2_w r^2/2 + quartic]).  With ``effective`` the resummed
    regulator v^2 -> v^2 + hbar^2 g^2 t/2 is applied (times a constant
    factor exp(-hbar^2 t^2 v^2 / 2) from the harmonic part, returned as
    ``extra``)."""
    g2 = params.g**2
    if effective:
        v2 = params.v**2 + params.veff2
        extra = math.exp(-0.5 * params.hbar**2 * params.t**2 * params.v**2)
    else:
        v2 = params.v**2
        extra = 1.0
    return g2, v2, extra


def _weight(X, t, g2, v2):
    """exp(-t [v2 |x|^2/2 + (g2/2) sum over coordinate pairs x_i^2 x_j^2]) at
    the rows of X."""
    sq = X * X
    quart = sum(sq[:, i] * sq[:, j] for i, j in combinations(range(X.shape[1]), 2))
    return np.exp(-0.5 * t * (v2 * sq.sum(axis=1) + g2 * quart))


def imn_quadrature(m, n, params, spec=QuadratureSpec(), effective=False):
    """I_mn = 4 int_0^inf int_0^inf x^2m y^2n exp[-(t/2)(v^2(x^2+y^2)+g^2x^2y^2)]
    in hyperbolic coordinates u = x y, w = ln(x/y), which align with the
    channels.  The w-integral is a Bessel K, so

        I_mn = 4 int_0^inf u^(m+n) e^(-t g^2 u^2/2) K_|m-n|(t v^2 u) du,

    one adaptive quad over the half-line (exponentially scaled K), accurate
    at every z = t v^4 / (2 g^2) and at g = 0.  ``effective`` switches on
    the resummed regulator (the tilde variant).  Returns an
    :class:`OracleValue`.
    """
    if m < 0 or n < 0:
        raise DomainError("m, n must be non-negative")
    g2, v2, _ = _weight_params(params, effective)
    if v2 <= 0:
        raise DivergentIntegralError(
            "moment integrals diverge along the channels at v = 0"
        )
    t = params.t
    nu = abs(m - n)

    def f(u):
        a = t * v2 * u
        return u ** (m + n) * math.exp(-0.5 * t * g2 * u * u - a) * sp.kve(nu, a)

    val, err = _line_integral(f, 0.0, math.inf, spec)
    return OracleValue(4.0 * val, 4.0 * err)


def _gauss_cutoff_exponent(spec):
    # e^-X below rel_tol / (10 * safety margin)
    return -math.log(spec.rel_tol / (10.0 * _TAIL_SAFETY)) + 5.0


def _gauss_cutoff(a, mpow, spec):
    """R with x^(2 mpow) e^(-a x^2) tail beyond R negligible at spec.rel_tol."""
    if a <= 0:
        raise DivergentIntegralError("non-decaying Gaussian weight")
    X = _gauss_cutoff_exponent(spec) + 2.0 * mpow
    return math.sqrt(X / a) + math.sqrt(max(mpow, 1) / a)


def phase_space_quadrature(poly, params, spec=QuadratureSpec(), effective=False):
    """(2 pi hbar)^(-d) int dGamma poly e^(-tH): Gaussian momentum moments
    applied exactly, then one numeric coordinate integral of the reduced
    polynomial against the coordinate weight (no moment-by-moment
    decomposition, so the route is independent of the closed forms).

    In the channel regime the box cubature misreads its own error, as it
    does for :func:`imn_quadrature`: at g = t = 1 the W_2 integral at
    v = 0.1 (z = 5e-5) is off by 2.9e-7 relative with 2e-10 reported.
    There is no channel route for a whole kernel, so below z = 1e-3 of the
    weight the call raises :class:`AccuracyError`.
    """
    d = poly.dims
    if d not in (2, 3):
        raise DomainError("phase-space quadrature supports 2 or 3 coordinates")
    g2, v2, extra = _weight_params(params, effective)
    if v2 <= 0:
        raise DivergentIntegralError("phase-space integral diverges at v = 0")
    t = params.t
    if t * v2 * v2 < 2.0 * _CHANNEL_Z * g2:
        raise AccuracyError(
            f"phase-space cubature refused in the channel regime: "
            f"z = {t * v2 * v2 / (2.0 * g2):.3g} of the weight is below {_CHANNEL_Z:g}"
        )
    gg2 = params.g**2
    vv2 = params.v**2
    # each entry's symmetrized moment is the mean over its distinct
    # permutations; collect the coefficient of every coordinate monomial
    coeffs = {}
    for e in integrate_momenta(poly).entries:
        perms = set(permutations(e.moments))
        base = float(e.coeff) * t**e.e_t * gg2**e.e_g2 * vv2**e.e_v2
        for perm in perms:
            coeffs[perm] = coeffs.get(perm, 0.0) + base / len(perms)
    if not coeffs:
        return OracleValue(0.0, 0.0)
    powers = 2 * np.array(list(coeffs), dtype=float)
    weights = np.array(list(coeffs.values()))

    def f(X):
        monomials = np.prod(X[:, None, :] ** powers, axis=2)
        return (monomials @ weights) * _weight(X, t, g2, v2)

    cut = _gauss_cutoff(0.5 * t * v2, max(map(max, coeffs)) + 1, spec)
    val, err = _cubature(f, d, cut, spec)
    norm = (
        2.0**d
        * params.hbar ** (poly.i_power - d)
        * (2.0 * math.pi) ** (-d)
        * (2.0 * math.pi / t) ** (d / 2.0)
        * extra
    )
    return _oracle(norm * val, norm * err, spec)


# -- three-coordinate radial integrals ----------------------------------------


def radial_integrand_n3(which, r, params, effective):
    """Integrand of the radial reduction (full-space normalization):

        I_b = (2 pi/t)^(3/2) int_0^inf r^(1|3) e^(-t g^2 r^4/16) I_0(t g^2 r^4/16)
              e^(-t v^2 r^2/2) (v^2 + g^2 r^2)^(-3/2) dr

    for the x^2 (``which=1``) and x^2 (y^2+z^2) (``which=2``) moments.
    """
    from .special import bessel_i0_scaled

    g2, v2, _ = _weight_params(params, effective)
    t = params.t
    w = t * g2 * r**4 / 16.0
    power = 1 if which == 1 else 3
    return (
        r**power
        * bessel_i0_scaled(w)
        * math.exp(-0.5 * t * v2 * r * r)
        * (v2 + g2 * r * r) ** -1.5
    )


def radial_quadrature_n3(which, params, spec=QuadratureSpec(), effective=False):
    """The two radial coordinate integrals of the three-coordinate model
    (``which`` is 1 for the x^2 structure, 2 for x^2 (y^2+z^2)).  At v = 0
    without the effective regulator the first diverges at r = 0 and is
    rejected; the second stays finite."""
    if which not in (1, 2):
        raise DomainError("which must be 1 or 2")
    g2, v2, _ = _weight_params(params, effective)
    if which == 1 and v2 <= 0:
        # integrand ~ r (g^2 r^2)^(-3/2) = r^-2/g^3 near r = 0
        raise DivergentIntegralError(
            "the x^2 radial integral diverges at r = 0 for v = 0"
        )
    if v2 <= 0 and g2 <= 0:
        raise DivergentIntegralError("no decay in the radial weight")
    t = params.t
    # the quartic scale: beyond r0 the Bessel factor has eaten the quartic
    # exponential and only the algebraic r^-2 channel tail is left
    r0 = math.inf
    if g2 > 0:
        r0 = max((8.0 * _gauss_cutoff_exponent(spec) / (t * g2)) ** 0.25, 10.0)
    norm = (2.0 * math.pi / t) ** 1.5

    def integral(rcut):
        points = [r0] if r0 < rcut else None
        return _line_integral(
            lambda r: radial_integrand_n3(which, r, params, effective), 0.0, rcut, spec, points
        )

    if v2 > 0:
        # the harmonic factor sets the cutoff; at small v it lies far
        # beyond r0, which becomes a breakpoint so quad sees the bulk
        val, err = integral(_gauss_cutoff(0.5 * t * v2, 2, spec))
        return _oracle(norm * val, norm * err, spec)
    # which = 2 at v = 0: add the asymptotic tail
    # int_R^inf r^3 e^-w I_0(w) (g^2 r^2)^(-3/2) dr, w = t g^2 r^4/16, from
    # e^-w I_0(w) ~ (2 pi w)^(-1/2) (1 + 1/(8w) + 9/(128w^2) + 225/(3072w^3));
    # the last term is left out and bounds the error.  It falls as R^-13,
    # so R grows until it is below the tail bound of rel_tol
    A = math.sqrt(16.0 / (2.0 * math.pi * t * g2)) / g2**1.5
    rcut = r0
    while True:
        s = 1.0 / (t * g2 * rcut**4)
        tail = A / rcut * (1.0 + 0.4 * s + 2.0 * s * s)
        tail_err = A / rcut * 300.0 / 13.0 * s**3
        val, err = integral(rcut)
        target = abs(val + tail) * spec.rel_tol / _TAIL_SAFETY
        if tail_err <= target:
            return _oracle(norm * (val + tail), norm * (err + tail_err), spec)
        rcut *= 1.05 * (tail_err / target) ** (1.0 / 13.0)


def raw_coordinate_n3(which, params, spec=QuadratureSpec(), effective=False):
    """The same structures as a raw 3-D coordinate integral (full space,
    octant times 8) for cross-checking the radial reduction.  Needs a
    harmonic weight (v > 0 or ``effective``): at v = 0 the x^2 structure
    diverges and x^2 (y^2+z^2) has an algebraic channel tail no box holds."""
    if which not in (1, 2):
        raise DomainError("which must be 1 or 2")
    g2, v2, _ = _weight_params(params, effective)
    if v2 <= 0:
        if which == 1:
            raise DivergentIntegralError(
                "the x^2 coordinate integral diverges along the channels at v = 0"
            )
        raise DomainError(
            "the raw box misses the algebraic channel tail at v = 0: "
            "use radial_quadrature_n3 or effective=True"
        )
    t = params.t

    def f(X):
        sq = X * X
        moment = sq[:, 0] if which == 1 else sq[:, 0] * (sq[:, 1] + sq[:, 2])
        return moment * _weight(X, t, g2, v2)

    val, err = _cubature(f, 3, _gauss_cutoff(0.5 * t * v2, 3, spec), spec)
    return _oracle(8.0 * val, 8.0 * err, spec)


def imn_factorized_g0(m, n, params):
    """Test oracle of :func:`imn_quadrature` at g = 0, the closed form
    Gamma(m+1/2) Gamma(n+1/2) (2/(t v^2))^(m+n+1)."""
    if params.v <= 0:
        raise DomainError("v must be positive")
    return (
        math.gamma(m + 0.5)
        * math.gamma(n + 0.5)
        * (2.0 / (params.t * params.v**2)) ** (m + n + 1)
    )

"""Special functions underlying the closed-form partition sums.

The irregular confluent (Whittaker) function W is evaluated through its
defining Laplace-type integral

    W_{kappa,mu}(z) = e^{-z/2} z^{mu+1/2} / Gamma(mu - kappa + 1/2)
                      * int_0^inf u^{mu-kappa-1/2} (1+u)^{mu+kappa-1/2} e^{-zu} du,

valid for mu - kappa + 1/2 > 0, by adaptive quadrature on a split domain.
Every closed-form moment integral is a Whittaker function, but the hot
path, ``heatkernel.integral_Imn_closed``, evaluates the moments as
exact-rational combinations of the scaled Bessel functions e^u K_0(u) and
e^u K_1(u).  The Laplace integral is the oracle those combinations are
tested against and their fallback where they cancel.
Everything else is a thin, domain-checked layer over scipy.special.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as sp
from scipy.integrate import IntegrationWarning, quad

from .errors import AccuracyError, DomainError

#: Euler's constant C
EULER_GAMMA = float(np.euler_gamma)

_QUAD_OPTS = dict(epsabs=0.0, epsrel=2e-13, limit=400)


@dataclass(frozen=True)
class WhittakerArgs:
    """Index pair and argument (kappa, mu, z) with z > 0.

    The moment integrals use kappa = -(m+n)/2, mu = (m-n)/2 with integers
    m >= n >= 0, but any indices with mu - kappa + 1/2 > 0 (after using the
    mu -> -mu symmetry) are accepted.
    """

    kappa: float
    mu: float
    z: float

    def __post_init__(self):
        if not self.z > 0:
            raise DomainError("Whittaker argument requires z > 0")


def _laplace_integral(a, c, z):
    """int_0^inf u^a (1+u)^c e^{-zu} du with a > -1, z > 0, and its error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            p1, e1 = quad(
                lambda u: u**a * (1.0 + u) ** c * math.exp(-z * u),
                0.0,
                1.0,
                **_QUAD_OPTS,
            )
            if z < 1.0:
                # tail u in [1, inf): substitute w = z*u, stretch the
                # power-law stretch w in [z, 1] logarithmically
                s_hi = math.log(1.0 / z)

                def stretched(s):
                    w = z * math.exp(s)
                    return w ** (a + 1.0) * (1.0 + math.exp(s)) ** c * math.exp(-w)

                p2a, e2a = quad(stretched, 0.0, s_hi, **_QUAD_OPTS)
                p2b, e2b = quad(
                    lambda w: w**a * (1.0 + w / z) ** c * math.exp(-w),
                    1.0,
                    np.inf,
                    **_QUAD_OPTS,
                )
                scalefac = z ** -(a + 1.0)
                return p1 + (p2a + p2b) * scalefac, e1 + (e2a + e2b) * scalefac
            p2, e2 = quad(
                lambda u: u**a * (1.0 + u) ** c * math.exp(-z * u),
                1.0,
                np.inf,
                **_QUAD_OPTS,
            )
            return p1 + p2, e1 + e2
        except IntegrationWarning as exc:  # pragma: no cover - defensive
            raise AccuracyError(f"Whittaker quadrature did not converge: {exc}")


def whittaker_w(args):
    """W_{kappa,mu}(z) for real indices and the :class:`WhittakerArgs`
    ``args``, from the integral representation."""
    kappa, mu, z = args.kappa, args.mu, args.z
    # W is symmetric under mu -> -mu; pick the branch where the integral exists
    if mu - kappa + 0.5 <= 0:
        mu = -mu
    if mu - kappa + 0.5 <= 0:
        raise DomainError(
            "integral representation requires mu - kappa + 1/2 > 0 for some sign of mu"
        )
    a = mu - kappa - 0.5
    c = mu + kappa - 0.5
    F, err = _laplace_integral(a, c, z)
    if not (F > 0) or err > 1e-10 * F:
        raise AccuracyError("Whittaker quadrature error estimate above target")
    log_w = -0.5 * z + (mu + 0.5) * math.log(z) - sp.gammaln(mu - kappa + 0.5)
    return math.exp(log_w) * F


def bessel_k0(z):
    """Modified Bessel function K_0(z), z > 0: test oracle of
    :func:`bessel_k0_scaled`, spanned by the benchmark (``perfbench/spans.py``)."""
    if not z > 0:
        raise DomainError("K_0 requires z > 0")
    return float(sp.k0(z))


def bessel_k0_scaled(z):
    """e^z K_0(z), stable for large z."""
    if not z > 0:
        raise DomainError("K_0 requires z > 0")
    return float(sp.k0e(z))


def bessel_k1_scaled(z):
    """e^z K_1(z), stable for large z."""
    if not z > 0:
        raise DomainError("K_1 requires z > 0")
    return float(sp.k1e(z))


def bessel_i0(z):
    """Modified Bessel function I_0(z), z >= 0; spanned by the benchmark."""
    if z < 0:
        raise DomainError("I_0 requires z >= 0")
    return float(sp.i0(z))


def bessel_i0_scaled(z):
    """e^{-z} I_0(z), stable for large z."""
    if z < 0:
        raise DomainError("I_0 requires z >= 0")
    return float(sp.i0e(z))


def gamma_fn(x):
    """Gamma(x) for x > 0, with an explicit overflow check."""
    if not x > 0:
        raise DomainError("gamma_fn requires x > 0")
    val = float(sp.gamma(x))
    if math.isinf(val):
        raise OverflowError(f"Gamma({x}) exceeds the floating-point range")
    return val


def gamma_upper(s, x):
    """Upper incomplete gamma Gamma(s, x) = int_x^inf y^(s-1) e^-y dy,
    elementwise over an array of s > 0, for x >= 0."""
    if not x >= 0:
        raise DomainError("Gamma(s, x) requires x >= 0")
    return sp.gammaincc(s, x) * sp.gamma(s)


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError("digamma requires x > 0")
    return float(sp.digamma(x))


def double_factorial(n):
    """n!! as an exact integer, with (-1)!! = 1 by convention."""
    if n < -1:
        raise DomainError("double factorial requires n >= -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result

"""Special functions underlying the closed-form partition sums.

The irregular confluent (Whittaker) function W is evaluated through its
defining Laplace-type integral

    W_{kappa,mu}(z) = e^{-z/2} z^{mu+1/2} / Gamma(mu - kappa + 1/2)
                      * int_0^inf u^{mu-kappa-1/2} (1+u)^{mu+kappa-1/2} e^{-zu} du,

valid for mu - kappa + 1/2 > 0; the integral is
``quadrature.laplace_integral``.  Every closed-form moment integral is a
Whittaker function, but the hot path, ``heatkernel.integral_Imn_closed``,
evaluates the moments as exact-rational combinations of the scaled Bessel
functions e^u K_0(u) and e^u K_1(u), tested against the Laplace integral
and falling back to it where they cancel.  This module holds no integrals:
it is a thin, domain-checked layer over scipy.special.

A closed form evaluated over a grid of parameter points takes a float
array with one entry per point where it would take a number.  The
functions marked "elementwise" accept either and return the same kind;
over an array they give every point the value that the number gives.
:func:`power` exists for that: numpy's own ``**`` rounds some results
differently from the libm ``pow`` behind Python's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import DomainError

#: Euler's constant C
EULER_GAMMA = float(np.euler_gamma)


def all_points(mask):
    """Whether a condition holds at every point: ``mask`` is a bool, or a
    bool array over a grid."""
    return mask.all() if isinstance(mask, np.ndarray) else mask


def power(x, y):
    """x ** y for a number, or for each entry of a 1-D array through libm
    ``pow``, as Python's ``**`` computes a number; numpy's own ``**``
    differs from it in the last place for some inputs."""
    if isinstance(x, np.ndarray):
        return np.array([math.pow(e, y) for e in x.tolist()])
    return x**y


def sqrt(x):
    """Square root, elementwise (correctly rounded both ways)."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def per_point(x, values):
    """``values``, computed at each point of ``x``: the array for an array
    ``x``, a float for a number (``values`` then holds one value)."""
    return values if isinstance(x, np.ndarray) else values.item()


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


def whittaker_w(args):
    """W_{kappa,mu}(z) for real indices and the :class:`WhittakerArgs`
    ``args``, from the integral representation: a test oracle, spanned by
    the benchmark (``perfbench/spans.py``)."""
    # quadrature imports this module
    from .quadrature import laplace_integral

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
    F = laplace_integral(a, c, z)
    log_w = -0.5 * z + (mu + 0.5) * math.log(z) - sp.gammaln(mu - kappa + 0.5)
    return math.exp(log_w) * F


def bessel_k0(z):
    """Modified Bessel function K_0(z), z > 0: test oracle of
    :func:`bessel_k0_scaled`, spanned by the benchmark (``perfbench/spans.py``)."""
    if not z > 0:
        raise DomainError("K_0 requires z > 0")
    return float(sp.k0(z))


def bessel_k0_scaled(z):
    """e^z K_0(z), stable for large z; elementwise."""
    if not all_points(z > 0):
        raise DomainError("K_0 requires z > 0")
    return per_point(z, sp.k0e(z))


def bessel_k1_scaled(z):
    """e^z K_1(z), stable for large z; elementwise."""
    if not all_points(z > 0):
        raise DomainError("K_1 requires z > 0")
    return per_point(z, sp.k1e(z))


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
    elementwise over arrays of s > 0 and x >= 0 that broadcast together."""
    if not all_points(x >= 0):
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

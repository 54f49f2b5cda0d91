"""Reduction of phase-space kernels to coordinate moment integrals.

Momentum integrals against exp(-t p^2/2) are Gaussian and are carried out
exactly: each p^(2j) contributes (2j-1)!! t^(-j), odd powers vanish, and a
normalization (2 pi / t)^(d/2) is kept symbolically.  What remains is an
exact linear combination of coordinate moments

    M[m] = int d^dx x^(2 m_1) y^(2 m_2) ... exp(-t V_weight),

symmetrized so the exponent multi-index is non-increasing (the weight is
permutation symmetric).  For two coordinates M[(m, n)] is the moment
integral I_mn of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .polynomial import PhasePolynomial
from .special import double_factorial


@dataclass(frozen=True)
class ReductionEntry:
    """One structure: coeff * t^e_t * (g^2)^e_g2 * (v^2)^e_v2 * M[moments]."""

    moments: tuple
    e_t: int
    e_g2: int
    e_v2: int
    coeff: Fraction


@dataclass
class MomentReduction:
    """Exact moment decomposition of one kernel.

    ``value = (2 pi / t)^(dims/2) * sum coeff t^e_t g2^e_g2 v2^e_v2 M[moments]``
    evaluates ``int d^d p d^d x  poly * exp(-t p^2/2 - t V_weight)``; the
    i-power of the source kernel has already been folded into the signs.
    """

    dims: int
    order_k: int
    entries: list = field(default_factory=list)

    def evaluate(self, params, moment_fn):
        """Numeric value given a moment evaluator ``moment_fn(moments) -> float``."""
        g2 = params.g**2
        v2 = params.v**2
        t = params.t
        total = 0.0
        for e in self.entries:
            total += (
                float(e.coeff)
                * t**e.e_t
                * g2**e.e_g2
                * v2**e.e_v2
                * moment_fn(e.moments)
            )
        return (2.0 * math.pi / t) ** (self.dims / 2.0) * total

    def partition_value(self, params, moment_fn):
        """hbar^k (2 pi hbar)^(-d) * integral, the order-k partition term."""
        d = self.dims
        return (
            params.hbar ** (self.order_k - d)
            * (2.0 * math.pi) ** (-d)
            * self.evaluate(params, moment_fn)
        )


def integrate_momenta(poly, order_k=None):
    """Reduce a kernel to coordinate moments (see module docstring).

    ``order_k`` defaults to the polynomial's i-power; it must be even, and
    the kernel's momentum parity must match (odd kernels reduce to zero).
    """
    k = poly.i_power if order_k is None else order_k
    d = poly.dims
    if k % 2:
        par = poly.momentum_parity()
        if par == 0:
            raise DomainError("odd-order kernel with even momentum parity")
        return MomentReduction(dims=d, order_k=k, entries=[])
    # i^k = (-1)^(k/2) relates the stored real polynomial to the kernel value
    sign = -1 if (k // 2) % 2 else 1
    acc = {}
    for exps, c in poly.terms():
        mom = exps[d : 2 * d]
        if any(e % 2 for e in mom):
            continue
        coeff = c * sign
        e_t = exps[2 * d]
        for e in mom:
            j = e // 2
            coeff *= double_factorial(2 * j - 1)
            e_t -= j
        coords = exps[:d]
        if any(e % 2 for e in coords):
            raise DomainError("surviving term is odd in a coordinate")
        moments = tuple(sorted((e // 2 for e in coords), reverse=True))
        key = (moments, e_t, exps[2 * d + 1], exps[2 * d + 2])
        acc[key] = acc.get(key, Fraction(0)) + coeff
    red = MomentReduction(dims=d, order_k=k)
    for (moments, e_t, e_g2, e_v2), coeff in sorted(acc.items()):
        if coeff:
            red.entries.append(ReductionEntry(moments, e_t, e_g2, e_v2, coeff))
    return red


def extract_coefficients(reduction, k):
    """Coefficients a_n^(k/2) of the leading singular structures.

    For the pure-quartic resummed kernel at even order k, the structures
    with moment indices (m, n), m - n = k/2, carry the unique powers
    t^(m + k/2) (g^2)^m; normalized so that

        integral = (2 pi / t) * sum_n a_n t^(n + k) (g^2)^(n + k/2) M[(n + k/2, n)].

    Returns ``{n: Fraction}``; at k = 4 these are 1/30, 1/180, 1/576.
    """
    if k % 2:
        raise DomainError("no even contribution exists at odd order")
    if reduction.dims != 2:
        raise DomainError("coefficient extraction is defined for the planar model")
    if k == 0:
        return {0: Fraction(1)}
    out = {}
    for e in reduction.entries:
        m, n = e.moments
        if m - n != k // 2:
            continue
        if e.e_v2 != 0:
            raise DomainError("extraction requires the pure-quartic reduction")
        if e.e_g2 != m or e.e_t != m + k // 2:
            raise DomainError(
                f"unexpected powers t^{e.e_t} g2^{e.e_g2} on structure {e.moments}"
            )
        out[n] = e.coeff
    return out


def harmonic_partition_exact(kernel, k, resummed=True):
    """Exact-rational harmonic-oscillator partition term.

    For the pure harmonic potential every coordinate integral is Gaussian,
    so the order-k term is an exact rational multiple of a power of
    w = hbar v t:  ``Z_k = coeff * w^(k - dims)`` (resummed terms carry an
    additional global factor exp(-d w^2/4) handled by the caller).

    Returns ``(coeff: Fraction, wpower: int)``.
    """
    red = integrate_momenta(kernel, order_k=k)
    d = red.dims
    acc = {}
    for e in red.entries:
        if e.e_g2 != 0:
            raise DomainError("harmonic evaluation requires g = 0 kernels")
        coeff = e.coeff
        mtot = sum(e.moments)
        for m in e.moments:
            coeff *= double_factorial(2 * m - 1)
        # x^(2m) Gaussian: (2m-1)!! (t v2)^-m sqrt(2 pi/(t v2)); the (2 pi)
        # factors cancel against the momentum norm and (2 pi hbar)^-d
        tpow = e.e_t - mtot - d
        vpow = 2 * (e.e_v2 - mtot) - d
        hpow = k - d
        if not (tpow == vpow == hpow):
            raise DomainError("harmonic term is not a pure power of hbar*v*t")
        acc[tpow] = acc.get(tpow, Fraction(0)) + coeff
    acc = {p: c for p, c in acc.items() if c}
    if not acc:
        return Fraction(0), 0
    if len(acc) != 1:
        raise DomainError(f"mixed powers in harmonic partition term: {sorted(acc)}")
    ((wpow, coeff),) = acc.items()
    return coeff, wpow

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
from .polynomial import EXP_MASK, field_shift, variable_names
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
    names = variable_names(d)
    shifts = [field_shift(d, name) for name in names]
    coord_shifts, mom_shifts = shifts[:d], shifts[d : 2 * d]
    sh_t, sh_g2, sh_v2 = shifts[2 * d :]
    mom_mask = sum(EXP_MASK << sh for sh in mom_shifts)
    odd_mom = sum(1 << sh for sh in mom_shifts)
    odd_coord = sum(1 << sh for sh in coord_shifts)
    # Terms are grouped first by their packed momentum-free part and the
    # total momentum half-power j; each momentum part p^(2j) contributes
    # its (2j-1)!! factors, looked up once per distinct momentum part
    gauss = {}
    grouped = {}
    for key, num in poly.packed_numerators().items():
        if key & odd_mom:
            continue
        mom = key & mom_mask
        f = gauss.get(mom)
        if f is None:
            f = gauss[mom] = _gaussian_moment(mom, mom_shifts)
        group = (key - mom, f[1])
        grouped[group] = grouped.get(group, 0) + num * f[0]
    acc = {}
    for (rest, j), num in grouped.items():
        if rest & odd_coord:
            raise DomainError("surviving term is odd in a coordinate")
        moments = tuple(
            sorted((((rest >> sh) & EXP_MASK) // 2 for sh in coord_shifts), reverse=True)
        )
        e_t = ((rest >> sh_t) & EXP_MASK) - j
        entry = (moments, e_t, (rest >> sh_g2) & EXP_MASK, (rest >> sh_v2) & EXP_MASK)
        acc[entry] = acc.get(entry, 0) + num
    # i^k = (-1)^(k/2) relates the stored real polynomial to the kernel value
    sign = -1 if (k // 2) % 2 else 1
    den = poly.denominator
    red = MomentReduction(dims=d, order_k=k)
    for (moments, e_t, e_g2, e_v2), num in sorted(acc.items()):
        if num:
            red.entries.append(
                ReductionEntry(moments, e_t, e_g2, e_v2, Fraction(sign * num, den))
            )
    return red


def _gaussian_moment(mom, mom_shifts):
    """``((2j_1-1)!! (2j_2-1)!! ..., j_1 + j_2 + ...)`` for the even packed
    momentum part ``p_1^(2j_1) p_2^(2j_2) ...``."""
    factor, j = 1, 0
    for sh in mom_shifts:
        e = (mom >> sh) & EXP_MASK
        factor *= double_factorial(e - 1)
        j += e // 2
    return factor, j


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


def harmonic_partition_exact(kernel, k):
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

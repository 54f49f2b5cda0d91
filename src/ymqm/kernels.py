"""Recursive construction of the semiclassical expansion kernels.

The heat-kernel phase-space function factorizes as
``W = Wt * exp(-hbar^2 t^2 LapV / 4)``; expanding ``Wt`` in powers of hbar
gives kernels ``Wt_k`` obeying a first-order recursion in t.  Order k
carries a uniform factor i^k, so we store the real polynomials
``S_k = (-i)^k Wt_k`` which satisfy, with S_0 = 1 and S_k(t=0) = 0,

    dS_k/dt = p.(grad - t gradV) S_{k-1}
              - 1/2 [Lap + t^2 (gradV)^2 - 2 t gradV.grad] S_{k-2}
              + t^2/4 p.grad(LapV) S_{k-3}
              + [t^3/4 gradV.grad(LapV) - t^2/4 grad(LapV).grad
                 - t^2/8 LapLapV] S_{k-4}
              - t^4/32 (grad LapV)^2 S_{k-6}.

Multiplying back by the Taylor series of the exponential factor recovers
the conventional (un-resummed) kernels W_k.  Even-k kernels are even in the
momenta, odd-k kernels odd (their phase-space integrals vanish).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .polynomial import PhasePolynomial, _t_integral

_COORDS = ("x", "y", "z")
_MOMENTA = ("px", "py", "pz")


class Potential:
    """Polynomial potential with precomputed derivative combinations."""

    def __init__(self, dims, V, label):
        self.dims = dims
        self.label = label
        self.V = V
        self.grad = [V.diff(c) for c in _COORDS[:dims]]
        lap = PhasePolynomial.zero(dims)
        for c in _COORDS[:dims]:
            lap = lap + V.diff(c).diff(c)
        self.lap = lap
        g2 = PhasePolynomial.zero(dims)
        for gi in self.grad:
            g2 = g2 + gi * gi
        self.grad_sq = g2
        self.grad_lap = [lap.diff(c) for c in _COORDS[:dims]]
        gl = PhasePolynomial.zero(dims)
        for gi, li in zip(self.grad, self.grad_lap):
            gl = gl + gi * li
        self.grad_dot_grad_lap = gl
        laplap = PhasePolynomial.zero(dims)
        for c in _COORDS[:dims]:
            laplap = laplap + lap.diff(c).diff(c)
        self.lap_lap = laplap
        gl2 = PhasePolynomial.zero(dims)
        for li in self.grad_lap:
            gl2 = gl2 + li * li
        self.grad_lap_sq = gl2

    def __repr__(self):
        return f"Potential({self.label}, dims={self.dims})"


def potential(dims, quartic=True, higgs=True):
    """The model potentials: pairwise-quartic coupling g^2/2 * sum x_i^2 x_j^2
    plus the harmonic term v^2/2 * sum x_i^2, in 1-3 coordinates."""
    if dims == 1 and quartic:
        raise DomainError("the quartic coupling needs at least two coordinates")
    V = PhasePolynomial.zero(dims)
    half = Fraction(1, 2)
    if quartic:
        pairs = [(0, 1)] if dims == 2 else [(0, 1), (1, 2), (2, 0)]
        for i, j in pairs:
            V = V + PhasePolynomial.monomial(
                dims, half, g2=1, **{_COORDS[i]: 2, _COORDS[j]: 2}
            )
    if higgs:
        for i in range(dims):
            V = V + PhasePolynomial.monomial(dims, half, v2=1, **{_COORDS[i]: 2})
    label = {
        (True, True): "quartic+higgs",
        (True, False): "quartic",
        (False, True): "harmonic",
    }.get((quartic, higgs))
    if label is None:
        raise DomainError("potential must contain at least one term")
    return Potential(dims, V, label)


def recursion_step(prev, k, pot):
    """One step of the kernel recursion: from ``prev = [S_0 .. S_{k-1}]``
    (missing leading entries treated as zero) build S_k, as one sum of the
    terms of the recursion integrated in t."""
    if k < 1:
        raise DomainError("recursion starts at k = 1")
    zero, one = PhasePolynomial.zero(pot.dims), PhasePolynomial.one(pot.dims)
    s1, s2, s3, s4, s6 = (
        prev[k - j] if 0 <= k - j < len(prev) else zero for j in (1, 2, 3, 4, 6)
    )
    # (c, monomial, factor, source, variable, order) stands for
    # c * monomial * factor * d^order source / d variable^order, and the
    # parts follow the recursion in the module docstring term by term
    parts = []
    for x, p, grad, grad_lap in zip(_COORDS, _MOMENTA, pot.grad, pot.grad_lap):
        parts += [
            (1, {p: 1}, one, s1, x, 1),
            (-1, {"t": 1, p: 1}, grad, s1, None, 0),
            (Fraction(-1, 2), {}, one, s2, x, 2),
            (1, {"t": 1}, grad, s2, x, 1),
            (Fraction(1, 4), {"t": 2, p: 1}, grad_lap, s3, None, 0),
            (Fraction(-1, 4), {"t": 2}, grad_lap, s4, x, 1),
        ]
    parts += [
        (Fraction(-1, 2), {"t": 2}, pot.grad_sq, s2, None, 0),
        (Fraction(1, 4), {"t": 3}, pot.grad_dot_grad_lap, s4, None, 0),
        (Fraction(-1, 8), {"t": 2}, pot.lap_lap, s4, None, 0),
        (Fraction(-1, 32), {"t": 4}, pot.grad_lap_sq, s6, None, 0),
    ]
    return _t_integral(pot.dims, parts, i_power=k)


def resummed_kernels(pot, order):
    """S_0 .. S_order for the given potential (S_k carries i_power = k)."""
    if order < 0:
        raise DomainError("order must be non-negative")
    S = [PhasePolynomial.one(pot.dims)]
    for k in range(1, order + 1):
        S.append(recursion_step(S, k, pot))
    return S


def unresum(wtilde, order, pot):
    """Conventional kernels from the resummed ones: multiply the series by
    the Taylor expansion of exp(-hbar^2 t^2 LapV / 4) and collect the hbar
    powers, i.e. (-i)^k W_k = sum_r S_{k-2r} (t^2 LapV / 4)^r / r!.

    Returns the list ``[W_0* .. W_order*]`` in the same (-i)^k convention.
    """
    if len(wtilde) < order + 1:
        raise DomainError(
            f"need kernels through order {order}, got {len(wtilde) - 1}"
        )
    d = pot.dims
    quarter = pot.lap.times_monomial(Fraction(1, 4), t=2)
    powers = [PhasePolynomial.one(d)]  # (t^2 LapV / 4)^r / r!
    for r in range(1, order // 2 + 1):
        powers.append((powers[-1] * quarter).scaled(Fraction(1, r)))
    out = []
    for k in range(order + 1):
        acc = PhasePolynomial.zero(d)
        for r in range(k // 2 + 1):
            acc = acc + wtilde[k - 2 * r].with_i_power(0) * powers[r]
        out.append(acc.with_i_power(k))
    return out


def conventional_kernels(pot, order):
    """W_0 .. W_order (times (-i)^k) built through the resummed hierarchy."""
    return unresum(resummed_kernels(pot, order), order, pot)

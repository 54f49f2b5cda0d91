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

Every model potential is invariant under the cyclic rotation of the axes,
x -> y -> z with px -> py -> pz together (the swap in the plane), and by
induction so is every S_k.  The right-hand side is a sum over the axes of
the same one-axis terms, with L = LapV and d the number of coordinates,

    A_x = p_x (d_x - t d_xV) S_{k-1}
          - 1/2 [d_x^2 + t^2 (d_xV)^2 - 2 t d_xV d_x] S_{k-2}
          + t^2/4 p_x d_xL S_{k-3}
          + [t^3/4 d_xV d_xL - t^2/4 d_xL d_x - t^2/(8d) Lap L] S_{k-4}
          - t^4/32 (d_xL)^2 S_{k-6},

and the terms of the other axes are the rotated images of A_x.  So a step
sums A_x alone and adds its d - 1 images.  In three coordinates (d_xV)^2
has 6 terms against 13 for (gradV)^2, and the per-axis parts are summed
once instead of three times; the images cost the rotations of one key per
orbit of keys and one write per key of the result.  The step checks that
its sources are invariant: a kernel of an earlier step is so by
construction, and any other source is checked exactly, term by term.

Multiplying back by the Taylor series of the exponential factor recovers
the conventional (un-resummed) kernels W_k.  Even-k kernels are even in the
momenta, odd-k kernels odd (their phase-space integrals vanish).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .polynomial import PhasePolynomial, _sum, _t_integral

_COORDS = ("x", "y", "z")


class Potential:
    """Polynomial potential V, invariant under the rotation of the axes
    (:meth:`PhasePolynomial.is_invariant`), with the one-axis derivative
    products of the recursion along x: with L = LapV, ``dV = d_xV``,
    ``dL = d_xL``, ``dV_dV = (d_xV)^2``, ``dV_dL = d_xV d_xL``,
    ``dL_dL = (d_xL)^2``, and ``lap = L``, ``lap_lap = Lap L``."""

    def __init__(self, dims, V, label):
        if not V.is_invariant():
            raise DomainError(
                f"potential {label!r} is not invariant under the rotation of the axes"
            )
        self.dims = dims
        self.label = label
        coords = _COORDS[:dims]
        one = PhasePolynomial.one(dims)
        self.lap = _sum(dims, [(1, {}, one, V, c, 2) for c in coords])
        self.lap_lap = _sum(dims, [(1, {}, one, self.lap, c, 2) for c in coords])
        self.dV, self.dL = V.diff("x"), self.lap.diff("x")
        self.dV_dV = _sum(dims, [(1, {}, self.dV, self.dV, None, 0)])
        self.dV_dL = _sum(dims, [(1, {}, self.dV, self.dL, None, 0)])
        self.dL_dL = _sum(dims, [(1, {}, self.dL, self.dL, None, 0)])

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
    one-axis terms A_x of the module docstring that :func:`_t_integral`
    completes with their rotated images and integrates in t.  A source that
    is not invariant under the rotation of the axes raises ``DomainError``."""
    if k < 1:
        raise DomainError("recursion starts at k = 1")
    d = pot.dims
    zero, one = PhasePolynomial.zero(d), PhasePolynomial.one(d)
    s1, s2, s3, s4, s6 = (
        prev[k - j] if 0 <= k - j < len(prev) else zero for j in (1, 2, 3, 4, 6)
    )
    if not all(s.is_invariant() for s in (s1, s2, s3, s4, s6)):
        raise DomainError("a source is not invariant under the rotation of the axes")
    # (c, monomial, factor, source, variable, order) stands for
    # c * monomial * factor * d^order source / d variable^order, and the
    # parts follow A_x in the module docstring term by term
    parts = [
        (1, {"px": 1}, one, s1, "x", 1),
        (-1, {"t": 1, "px": 1}, pot.dV, s1, None, 0),
        (Fraction(-1, 2), {}, one, s2, "x", 2),
        (Fraction(-1, 2), {"t": 2}, pot.dV_dV, s2, None, 0),
        (1, {"t": 1}, pot.dV, s2, "x", 1),
        (Fraction(1, 4), {"t": 2, "px": 1}, pot.dL, s3, None, 0),
        (Fraction(1, 4), {"t": 3}, pot.dV_dL, s4, None, 0),
        (Fraction(-1, 4), {"t": 2}, pot.dL, s4, "x", 1),
        (Fraction(-1, 8 * d), {"t": 2}, pot.lap_lap, s4, None, 0),
        (Fraction(-1, 32), {"t": 4}, pot.dL_dL, s6, None, 0),
    ]
    return _t_integral(d, parts, i_power=k)


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
    powers = [PhasePolynomial.one(d)]  # (t^2 LapV / 4)^r / r!
    for r in range(1, order // 2 + 1):
        powers.append(_sum(d, [(Fraction(1, 4 * r), {"t": 2}, pot.lap, powers[-1], None, 0)]))
    return [
        _sum(d, [(1, {}, powers[r], wtilde[k - 2 * r], None, 0) for r in range(k // 2 + 1)], k)
        for k in range(order + 1)
    ]


def conventional_kernels(pot, order):
    """W_0 .. W_order (times (-i)^k) built through the resummed hierarchy."""
    return unresum(resummed_kernels(pot, order), order, pot)

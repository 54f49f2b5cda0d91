"""Brute-force numerical evaluation of every integral the closed forms claim.

Momentum integrals are exact Gaussians, so only coordinate integrals are
numeric.  A moment integral I_mn is one adaptive ``quad`` along the
channel-aligned line u = x y, the hyperbolic-angle integral done exactly as
a Bessel K.  The phase-space integral of a reduced kernel in two or three
coordinates and the raw three-coordinate structures close their last
coordinate in closed form: at fixed leading coordinates the weight is
Gaussian in it, and :func:`_closed_last_axis` integrates it exactly (y in
two coordinates, z in three).  What is left is one adaptive cubature over
the box [0, R]^(d-1) of the leading coordinates (the weight is even in
every coordinate), with R chosen so the Gaussian tail beyond it stays
below rel_tol / _TAIL_SAFETY: one-dimensional in x for a planar kernel,
two-dimensional in (x, y) for a three-coordinate one.  That cubature,
:func:`_cubature`, is the product Gauss-Kronrod 21 rule (QUADPACK
``dqk21``) in any dimension d, with 2^d bisection of the box of largest
error first; a box's error is its Kronrod minus its Gauss sum, and each
bisection evaluates its 2^d children in one integrand call on all their
Kronrod node grids and one on all their Gauss node grids.  An integrand is
a broadcasting function of d coordinate arrays, ``f(x_1, ..., x_d)``,
called on open node grids behind d leading box axes (axis i holds its
nodes in each box along box dimension i and grid dimension i), so a factor
of one coordinate is computed once per node of its axis and not once per
grid point.  It may use the box axes but must not mix rows of different
boxes.  The package runs it with d = 1 and d = 2 only, one dimension below
the integral's; the tests run it with d = 2 and 3 as the box oracles of
the closures.  The radial reductions of the three-coordinate model are
one-dimensional as well; at v = 0 the x^2 (y^2+z^2) one is a single
integral over the half-line, its algebraic channel tail included.

Every other one-dimensional integral of the package, here and in the
closed forms' fallbacks (the Whittaker integral :func:`laplace_integral`,
which lives here, and ``heatkernel.radial_Jb_quadrature``), is one call of
:func:`line_integral`, the package's only caller of scipy's ``quad``.
``scipy.integrate`` loads at the first such call, not at import.

``effective=True`` puts the model's resummed regulator into the weight
(:meth:`ModelParams.regulator`): the moment oracles return the moment at
v^2 + veff2 without the regulator's constant factor, and
:func:`phase_space_quadrature` includes that factor.

Every :class:`OracleValue` error is the engine's own estimate plus, where a
cutoff truncates the domain, the tail bound it was chosen for; an engine
that does not converge raises :class:`AccuracyError`.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np
from scipy import special as sp

from .errors import AccuracyError, DivergentIntegralError, DomainError
from .reduction import MomentReduction, integrate_momenta
from .special import bessel_i0_scaled, double_factorial

_TAIL_SAFETY = 10.0  # tail-truncation bound kept below rel_tol / safety
_QUAD_LIMIT = 400  # subintervals per one-dimensional quad
_MAX_SUBDIVISIONS = 10_000  # region bisections per cubature

# QUADPACK dqk21: the 21-point Kronrod abscissae on [-1, 1], descending, and
# their weights; the odd entries are the 10-point Gauss nodes to within 2 ulp
_GK21_NODES = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0,
    -0.148874338981631210884826001129720,
    -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784,
    -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874,
    -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493,
    -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452,
    -0.995657163025808080735527280689003,
])
_GK21_WEIGHTS = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068,
    0.142775938577060080797094273138717,
    0.134709217311473325928054001771707,
    0.123491976262065851077958109831074,
    0.109387158802297641899210590325805,
    0.093125454583697605535065465083366,
    0.075039674810919952767043140916190,
    0.054755896574351996031381300244580,
    0.032558162307964727478818972459390,
    0.011694638867371874278064396062192,
])


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-9


@dataclass(frozen=True)
class OracleValue:
    value: float
    error: float

    def __float__(self):
        return self.value


@lru_cache(maxsize=None)
def _gk21_product(d):
    """The d-fold product GK21 rule on [-1, 1]^d: the 21 Kronrod and the 10
    Gauss nodes of one axis, each + 1, and the product weights over the node
    grid (first coordinate slowest), the Kronrod weights and the Kronrod
    minus Gauss weights over the Kronrod then the Gauss grid.  A product
    weight is the product of its d factors, first axis first."""
    x, w = sp.roots_legendre(10)
    kronrod = math.prod(np.ix_(*[_GK21_WEIGHTS] * d)).ravel()
    gauss = math.prod(np.ix_(*[w] * d)).ravel()
    return _GK21_NODES + 1.0, x + 1.0, kronrod, np.concatenate([kronrod, -gauss])


class _Region:
    """A box of the adaptive cubature.  The heap pops the largest error and
    compares errors alone, as scipy's ``CubatureRegion`` does, so that equal
    errors leave the heap order, and with it the summation order, as there."""

    __slots__ = ("est", "err", "a", "b")

    def __init__(self, est, err, a, b):
        self.est, self.err, self.a, self.b = est, err, a, b

    def __lt__(self, other):
        return self.err > other.err


def _cubature(f, d, cut, spec):
    """(value, error) of int_[0, cut]^d f for f a function of d coordinate
    arrays that broadcast against each other, ``f(x_1, ..., x_d)``.

    Adaptive product Gauss-Kronrod 21 cubature with the abscissae and
    weights of QUADPACK ``dqk21`` and the 10-point Gauss rule of
    ``roots_legendre``: the region with the largest error is bisected along
    every axis into 2^d children until the summed error is at most
    rel_tol / _TAIL_SAFETY of the summed estimate.  A region's estimate is
    its Kronrod sum and its error the Kronrod minus the Gauss sum.  The
    2^d children of a bisection (the first region alone at the start) are
    evaluated together, in one call of ``f`` on all their Kronrod node
    grids and one on all their Gauss node grids.  The grids are open, as
    ``np.ix_`` makes them, behind d leading box axes: axis i passes its
    21 (or 10) nodes in each of its halves, shaped (2, 21) to lie along box
    dimension i and grid dimension i, so ``f`` computes a per-axis factor
    once per node rather than once per grid point.  Its result, broadcast
    to the whole batch, is read in C order: children in the order of
    ``product((False, True), repeat=d)`` (True the upper half, first axis
    slowest), then each child's grid, first coordinate slowest.  The
    children then join the sums and the heap one by one in that order, as
    if each had been evaluated alone.

    An integrand may use the leading box axes as it likes, but must not
    mix rows of different boxes: a child's values must be bit for bit what
    its own grid alone would give.  A BLAS product over rows of several
    boxes may round its last rows in another order than over one box's
    rows alone; the package's integrand, :func:`_closed_last_axis`, makes
    one product per box row (tests/test_quadrature.py checks it in d = 1
    and d = 2).

    Reading the Gauss values off the odd Kronrod nodes instead would move
    errors in their last bits (the nodes differ by up to 2 ulp, and ``f``
    may round a grid point by the size of its grid), and with them the
    heap order of mirror regions and so the estimate; as it stands every
    estimate is bit for bit that of ``scipy.integrate.cubature`` with
    ``rule="gk21"`` on the point form ``lambda X: f(*X.T)``.  A non-finite
    estimate or error, or _MAX_SUBDIVISIONS bisections without
    convergence, raise :class:`AccuracyError`, the former naming the first
    such box.
    """
    kronrod_axis, gauss_axis, kronrod, kronrod_gauss = _gk21_product(d)

    def values(axis, lo, half):
        k, n = lo.shape[1], len(axis)
        grid = axis * half[..., None] + lo[..., None]  # (axis, box, node)
        nodes = []
        for i in range(d):
            # axis i along box dimension i and grid dimension i
            shape = [1] * (2 * d)
            shape[i], shape[d + i] = k, n
            nodes.append(grid[i].reshape(shape))
        return np.broadcast_to(f(*nodes), (k,) * d + (n,) * d).reshape(k**d, -1)

    def regions(edges):
        # the product boxes of the per-axis breakpoints, d rows of k + 1
        lo, hi = edges[:, :-1], edges[:, 1:]
        lengths = hi - lo
        half = lengths * 0.5
        fx = values(kronrod_axis, lo, half)
        fg = values(gauss_axis, lo, half)
        # [box, i]: the box's breakpoint on axis i, boxes in product order
        pick = np.arange(d), np.array(list(product(range(lo.shape[1]), repeat=d)))
        scale = (np.prod(lengths[pick], axis=1) / 2**d)[:, None]
        ests = np.sum(kronrod * scale * fx, axis=1)
        errs = np.sum(kronrod_gauss * scale * np.concatenate([fx, fg], axis=1), axis=1)
        boxes = []
        for est, err, a, b in zip(ests.tolist(), np.abs(errs).tolist(), lo[pick], hi[pick]):
            if not (math.isfinite(est) and math.isfinite(err)):
                raise AccuracyError(
                    f"{d}-D cubature met a non-finite integrand on [{a}, {b}]: "
                    f"estimate {est}, error {err}"
                )
            boxes.append(_Region(est, err, a, b))
        return boxes

    (first,) = regions(np.array([[0.0, float(cut)]] * d))
    heap = [first]
    est, err = first.est, first.err
    rtol = spec.rel_tol / _TAIL_SAFETY
    subdivisions = 0
    while err > rtol * abs(est):
        worst = heapq.heappop(heap)
        est -= worst.est
        err -= worst.err
        mid = (worst.a + worst.b) / 2
        for child in regions(np.stack([worst.a, mid, worst.b], axis=1)):
            est += child.est
            err += child.err
            heapq.heappush(heap, child)
        subdivisions += 1
        if subdivisions >= _MAX_SUBDIVISIONS:
            raise AccuracyError(
                f"{d}-D cubature not converged after {subdivisions} subdivisions: "
                f"error {err:.3g} on {est:.6g}"
            )
    return est, err


def quad(f, a, b, **kwargs):
    """scipy's ``quad``, imported at the first call.  :func:`line_integral`
    calls it by this name, which the benchmark's traced rounds patch to
    count calls (perfbench/spans.py)."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(f, a, b, **kwargs)


def line_integral(f, a, b, epsrel, what, points=None):
    """(value, error) of int_a^b f by adaptive ``quad``, its only caller in
    the package: no absolute tolerance, at most _QUAD_LIMIT subintervals,
    and an integration warning raised as :class:`AccuracyError`, whose
    message names ``what`` was integrated and the interval."""
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            return quad(f, a, b, epsabs=0.0, epsrel=epsrel, limit=_QUAD_LIMIT, points=points)
        except IntegrationWarning as exc:
            raise AccuracyError(f"{what} did not converge on [{a:g}, {b:g}]: {exc}") from None


def laplace_integral(a, c, z):
    """int_0^inf u^a (1+u)^c e^{-zu} du with a > -1, z > 0: the Whittaker
    integral of :func:`special.whittaker_w` and of
    ``heatkernel.integral_Imn_whittaker``.  Raises :class:`AccuracyError`
    when a piece does not converge or the error estimate exceeds 1e-10 of
    the value.  From z = 1 up it is one integral in w = z u, whose integrand
    w^a (1 + w/z)^c e^{-w} stays bounded however large z grows."""

    opts = dict(epsrel=2e-13, what="Whittaker quadrature")

    def in_w(lo):
        return line_integral(lambda w: w**a * (1.0 + w / z) ** c * math.exp(-w), lo, math.inf, **opts)

    scalefac = z ** -(a + 1.0)
    if z >= 1.0:
        F, err = in_w(0.0)
        F, err = F * scalefac, err * scalefac
    else:
        p1, e1 = line_integral(lambda u: u**a * (1.0 + u) ** c * math.exp(-z * u), 0.0, 1.0, **opts)
        # tail u in [1, inf) in w = z*u, the power-law stretch
        # w in [z, 1] stretched logarithmically
        def stretched(s):
            w = z * math.exp(s)
            return w ** (a + 1.0) * (1.0 + math.exp(s)) ** c * math.exp(-w)

        p2a, e2a = line_integral(stretched, 0.0, math.log(1.0 / z), **opts)
        p2b, e2b = in_w(1.0)
        F, err = p1 + (p2a + p2b) * scalefac, e1 + (e2a + e2b) * scalefac
    if not (F > 0) or err > 1e-10 * F:
        raise AccuracyError("Whittaker quadrature error estimate above target")
    return F


def _oracle(value, error, spec):
    """Engine error plus the relative tail bound the cutoffs were chosen for."""
    return OracleValue(value, abs(error) + abs(value) * spec.rel_tol / _TAIL_SAFETY)


def _weight_params(params, effective, d):
    """(g2, v2) of the weight exp(-t [v2 |x|^2/2 + quartic]) in ``d``
    coordinates; ``effective`` adds the veff2 of the d-coordinate model."""
    if effective and params.n_model != d:
        raise DomainError(f"the {d}-coordinate effective weight needs n_model = {d}")
    return params.g**2, params.v**2 + (params.veff2 if effective else 0.0)


def imn_quadrature(m, n, params, spec=QuadratureSpec(), effective=False):
    """I_mn = 4 int_0^inf int_0^inf x^2m y^2n exp[-(t/2)(v^2(x^2+y^2)+g^2x^2y^2)]
    in hyperbolic coordinates u = x y, w = ln(x/y), which align with the
    channels.  The w-integral is a Bessel K, so

        I_mn = 4 int_0^inf u^(m+n) e^(-t g^2 u^2/2) K_|m-n|(t v^2 u) du,

    one adaptive quad over the half-line (exponentially scaled K), accurate
    at every z = t v^4 / (2 g^2).  At g = 0 and small t v^2 (up to about
    1e-3) quad may find roundoff in its extrapolation table and raise
    :class:`AccuracyError`, naming the moment; a value it returns lies within
    its error of the closed form.  ``effective`` gives the tilde variant.
    Returns an :class:`OracleValue`.
    """
    if m < 0 or n < 0:
        raise DomainError("m, n must be non-negative")
    g2, v2 = _weight_params(params, effective, 2)
    if v2 <= 0:
        raise DivergentIntegralError(
            "moment integrals diverge along the channels at v = 0"
        )
    # the scalar AMOS routine of the ``sp.kve`` ufunc, without ufunc dispatch
    from scipy.special.cython_special import kve

    t = params.t
    nu = abs(m - n)

    def f(u):
        a = t * v2 * u
        return u ** (m + n) * math.exp(-0.5 * t * g2 * u * u - a) * kve(nu, a)

    val, err = line_integral(f, 0.0, math.inf, spec.rel_tol / _TAIL_SAFETY, f"I_{m}{n} quadrature")
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
    decomposition, so the route is independent of the closed forms).  With
    ``effective`` it integrates S_k into the term of the resummed series.
    ``poly`` is a kernel or its :class:`MomentReduction`: a kernel is
    reduced by :func:`integrate_momenta` first, so a reduction made once
    can be integrated at many points.  The coordinate integral is
    :func:`_closed_last_axis`, which integrates the last coordinate in
    closed form and leaves one cubature in the others: 1-D in x for two
    coordinates, 2-D in (x, y) for three.
    """
    red = poly if isinstance(poly, MomentReduction) else integrate_momenta(poly)
    d = red.dims
    if d not in (2, 3):
        raise DomainError("phase-space quadrature supports 2 or 3 coordinates")
    g2, v2 = _weight_params(params, effective, d)
    if v2 <= 0:
        raise DivergentIntegralError("phase-space integral diverges at v = 0")
    t = params.t
    vv2 = params.v**2
    # each entry's symmetrized moment is the mean over its distinct
    # permutations; collect the coefficient of every coordinate monomial
    coeffs = {}
    for e in red.entries:
        perms = set(permutations(e.moments))
        base = float(e.coeff) * t**e.e_t * g2**e.e_g2 * vv2**e.e_v2
        for perm in perms:
            coeffs[perm] = coeffs.get(perm, 0.0) + base / len(perms)
    if not coeffs:
        return OracleValue(0.0, 0.0)
    val, err = _closed_last_axis(coeffs, d, t, g2, v2, spec)
    norm = (
        2.0**d
        * params.hbar ** (red.order_k - d)
        * (2.0 * math.pi) ** (-d)
        * (2.0 * math.pi / t) ** (d / 2.0)
        * math.exp(params.regulator()[1] if effective else 0.0)
    )
    return _oracle(norm * val, norm * err, spec)


def _closed_last_axis(coeffs, d, t, g2, v2, spec):
    """(value, error) of the orthant integral

        int_[0, inf)^d sum_e coeffs[e] prod_i x_i^(2 e_i) e^(-tV),
        V = v2 |x|^2/2 + (g2/2) sum_(i<j) x_i^2 x_j^2,

    in d = 2 or 3 coordinates, with the last coordinate s integrated in
    closed form.  At fixed leading coordinates the weight is Gaussian in s
    with A = t (v2 + g2 sum_(i<d) x_i^2), and

        int_0^inf s^2c e^(-A s^2/2) ds = (2c-1)!! sqrt(pi/2) A^-(c+1/2)

    exactly, so what is left is one :func:`_cubature` over the box
    [0, R]^(d-1) of the leading coordinates: their own weight (e^(-t v2 x^2/2)
    for d = 2, the planar weight for d = 3) times sum_e' x^(2e')
    sum_c w_e'c (2c-1)!! sqrt(pi/2) A^-(c+1/2), with R sized by the largest
    leading power.  Each cubature axis runs in u with x = s sinh(u), Jacobian
    s cosh(u), over [0, asinh(R/s)]: linear in x within the scale
    s = 1/sqrt(g2/v2 + t v2), the narrower of the channel peak's width v/g
    and the Gaussian's, and logarithmic beyond it, so the nodes resolve the
    peak that the closed last coordinate leaves along the leading axes at
    every z = t v2^2 / (2 g2).  The closure is tested against the d-D box
    cubature of the same integrand (tests/test_quadrature.py)."""
    leading = sorted({key[:-1] for key in coeffs})
    cs = sorted({key[-1] for key in coeffs})
    # table[e', c] = w_e'c (2c-1)!! sqrt(pi/2)
    table = np.zeros((len(leading), len(cs)))
    for key, w in coeffs.items():
        table[leading.index(key[:-1]), cs.index(key[-1])] += w * double_factorial(2 * key[-1] - 1)
    table *= math.sqrt(0.5 * math.pi)
    powers = 2 * np.array(leading, dtype=float)
    exponents = -(np.array(cs, dtype=float) + 0.5)

    s = 1.0 / math.sqrt(g2 / v2 + t * v2)

    def f(*us):
        xs = [s * np.sinh(u) for u in us]
        jacobian = math.prod(s * np.cosh(u) for u in us)
        sq = [x * x for x in xs]
        r2 = sum(sq)
        monomials = math.prod(x[..., None] ** p for x, p in zip(xs, powers.T))
        closed = (t * (v2 + g2 * r2))[..., None] ** exponents
        # the leading coordinates' own weight, with no quartic term in one
        quartic = sum(a * b for a, b in combinations(sq, 2))
        weight = np.exp(-0.5 * t * (v2 * r2 + g2 * quartic))
        # numpy multiplies each stacked (node, monomial) matrix alone, one
        # box's nodes (d = 2) or one x-node's row of a box (d = 3), so no
        # BLAS call sees two boxes
        return np.sum((monomials @ table) * closed, axis=-1) * weight * jacobian

    cut = _gauss_cutoff(0.5 * t * v2, max(map(max, leading)) + 1, spec)
    return _cubature(f, d - 1, math.asinh(cut / s), spec)


# -- three-coordinate radial integrals ----------------------------------------


def radial_divergence_n3(which, params, effective=False):
    """Why the radial integral ``which`` of :func:`radial_quadrature_n3`
    diverges at ``params``, or None when it is finite; that function raises
    :class:`DivergentIntegralError` with this reason."""
    if which not in (1, 2):
        raise DomainError("which must be 1 or 2")
    g2, v2 = _weight_params(params, effective, 3)
    if which == 1 and v2 <= 0:
        # integrand ~ r (g^2 r^2)^(-3/2) = r^-2/g^3 near r = 0
        return "the x^2 radial integral diverges at r = 0 for v = 0"
    if v2 <= 0 and g2 <= 0:
        return "no decay in the radial weight"
    return None


def radial_quadrature_n3(which, params, spec=QuadratureSpec(), effective=False):
    """The two radial coordinate integrals of the three-coordinate model
    (full-space normalization),

        I_b = (2 pi/t)^(3/2) int_0^inf r^(1|3) e^(-t g^2 r^4/16) I_0(t g^2 r^4/16)
              e^(-t v^2 r^2/2) (v^2 + g^2 r^2)^(-3/2) dr,

    for the x^2 (``which=1``) and x^2 (y^2+z^2) (``which=2``) moments.  At
    v = 0 without ``effective`` the first diverges at r = 0 and is
    rejected; the second stays finite."""
    reason = radial_divergence_n3(which, params, effective)
    if reason is not None:
        raise DivergentIntegralError(reason)
    g2, v2 = _weight_params(params, effective, 3)
    t = params.t
    norm = (2.0 * math.pi / t) ** 1.5
    power = 1 if which == 1 else 3

    def f(r):
        w = t * g2 * r**4 / 16.0
        return (
            r**power * bessel_i0_scaled(w) * math.exp(-0.5 * t * v2 * r * r)
            * (v2 + g2 * r * r) ** -1.5
        )

    epsrel = spec.rel_tol / _TAIL_SAFETY
    what = ("x^2", "x^2 (y^2+z^2)")[which - 1] + " radial quadrature"
    if v2 <= 0:
        # which = 2 at v = 0: the quartic bulk and the algebraic r^-2
        # channel tail in one integral over the half-line, cut nowhere, in
        # units of the quartic scale s (w = 1 at r = s), so that quad sees
        # the same integrand however small g is
        s = (16.0 / (t * g2)) ** 0.25
        val, err = line_integral(lambda x: f(s * x), 0.0, math.inf, epsrel, what)
        return OracleValue(norm * s * val, norm * s * err)
    # the harmonic factor sets the cutoff; at small v it lies far beyond the
    # quartic scale r0, where the Bessel factor has eaten the quartic
    # exponential, and r0 becomes a breakpoint so quad sees the bulk
    rcut = _gauss_cutoff(0.5 * t * v2, 2, spec)
    r0 = math.inf
    if g2 > 0:
        r0 = max((8.0 * _gauss_cutoff_exponent(spec) / (t * g2)) ** 0.25, 10.0)
    val, err = line_integral(f, 0.0, rcut, epsrel, what, [r0] if r0 < rcut else None)
    return _oracle(norm * val, norm * err, spec)


def raw_coordinate_n3(which, params, spec=QuadratureSpec(), effective=False):
    """The same structures as a raw coordinate integral (full space, octant
    times 8) for cross-checking the radial reduction: the monomials x^2
    (``which=1``) and x^2 y^2 + x^2 z^2 (``which=2``) through
    :func:`_closed_last_axis` with d = 3, which closes z and runs a 2-D
    cubature.  The radial route closes z by the same Gaussian integral, so
    what the pair cross-checks is a Cartesian (x, y) cubature against the
    polar reduction with its Bessel-I_0 angular closure; the z-closure
    itself is tested against the 3-D box.  Needs a harmonic weight (v > 0
    or ``effective``): at v = 0 the x^2 structure diverges and
    x^2 (y^2+z^2) has an algebraic channel tail no box holds."""
    if which not in (1, 2):
        raise DomainError("which must be 1 or 2")
    g2, v2 = _weight_params(params, effective, 3)
    if v2 <= 0:
        if which == 1:
            raise DivergentIntegralError(
                "the x^2 coordinate integral diverges along the channels at v = 0"
            )
        raise DomainError(
            "the raw box misses the algebraic channel tail at v = 0: "
            "use radial_quadrature_n3 or effective=True"
        )
    coeffs = {(1, 0, 0): 1.0} if which == 1 else {(1, 1, 0): 1.0, (1, 0, 1): 1.0}
    val, err = _closed_last_axis(coeffs, 3, params.t, g2, v2, spec)
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

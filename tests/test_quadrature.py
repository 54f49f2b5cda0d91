import math
import re
from dataclasses import replace
from itertools import combinations, product

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import cubature

from ymqm import heatkernel as hk
from ymqm import quadrature
from ymqm.cli import _cached_kernel
from ymqm.errors import AccuracyError, DivergentIntegralError, DomainError
from ymqm.kernels import conventional_kernels, potential, resummed_kernels
from ymqm.params import ModelParams
from ymqm.polynomial import PhasePolynomial
from ymqm.quadrature import (
    QuadratureSpec,
    imn_factorized_g0,
    imn_quadrature,
    phase_space_quadrature,
    radial_divergence_n3,
    radial_quadrature_n3,
    raw_coordinate_n3,
)
from ymqm.reduction import harmonic_partition_exact
from ymqm.spectral import BasisSpec, build_hamiltonian

P1 = ModelParams(g=1.0, v=1.0, hbar=1.0, t=1.0)


def params(**kw):
    base = dict(g=1.0, v=1.0, hbar=1.0, t=1.0)
    base.update(kw)
    return ModelParams(**base)


class TestMomentQuadrature:
    def test_free_gaussian_factorization(self):
        p = params(g=0.0, v=1.3, t=0.7)
        for m, n in ((0, 0), (1, 0), (2, 2)):
            got = imn_quadrature(m, n, p)
            assert got.value == pytest.approx(imn_factorized_g0(m, n, p), rel=1e-9)

    def test_cross_route_closed_form(self):
        p = params(v=2.0**0.25)  # z = 1
        got = imn_quadrature(1, 1, p)
        assert got.value == pytest.approx(hk.integral_Imn_closed(1, 1, p), rel=1e-8)

    def test_symmetry_under_swap(self):
        a = imn_quadrature(2, 1, P1)
        b = imn_quadrature(1, 2, P1)
        assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_error_estimate_is_honest(self):
        p = params(v=2.0**0.25)
        for m, n in ((0, 0), (2, 1), (4, 3)):
            got = imn_quadrature(m, n, p)
            closed = hk.integral_Imn_closed(m, n, p)
            assert abs(got.value - closed) <= max(got.error, 1e-13 * abs(closed))

    def test_refinement_convergence(self):
        p = params(v=0.5)
        coarse = imn_quadrature(2, 1, p, QuadratureSpec(rel_tol=1e-6))
        fine = imn_quadrature(2, 1, p, QuadratureSpec(rel_tol=5e-7))
        assert abs(fine.value - coarse.value) <= max(coarse.error, 1e-12 * abs(coarse.value))

    def test_monotone_in_t(self):
        vals = [imn_quadrature(1, 1, params(t=t)).value for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("t", [0.5, 1.0, 1.7])
    @pytest.mark.parametrize("v", [0.02, 0.05, 0.1, 0.2])
    def test_free_gaussian_raises_or_holds(self, v, t):
        # at g = 0 and small t v^2 quad may give up on its extrapolation
        # table; it must then say which moment failed, and it must never
        # return a value outside its own error
        p = params(g=0.0, v=v, t=t)
        for m in range(6):
            for n in range(m, 6):
                try:
                    got = imn_quadrature(m, n, p)
                except AccuracyError as exc:
                    assert f"I_{m}{n} quadrature" in str(exc)
                    continue
                assert abs(got.value - imn_factorized_g0(m, n, p)) <= got.error

    def test_divergence_at_zero_v(self):
        with pytest.raises(DivergentIntegralError):
            imn_quadrature(1, 0, params(v=0.0))

    def test_effective_regulator(self):
        p = params(v=0.0)
        got = imn_quadrature(1, 0, p, effective=True)
        reg = hk.integral_Imn_closed(1, 0, p.with_veff())
        assert got.value == pytest.approx(reg, rel=1e-8)


class TestPhaseSpaceQuadrature:
    def test_unity_reproduces_leading_term(self):
        one = PhasePolynomial.one(2)
        got = phase_space_quadrature(one, P1)
        assert got.value == pytest.approx(hk.tf_partition_n2(P1), rel=1e-6)

    def test_second_order_kernel(self):
        W = conventional_kernels(potential(2), 2)
        got = phase_space_quadrature(W[2], P1)
        assert got.value == pytest.approx(hk.z2_closed_n2(P1), rel=1e-6)

    def test_odd_kernel_vanishes(self):
        odd = PhasePolynomial(2, {(1, 0, 1, 0, 0, 0, 0): 1}, i_power=1)
        got = phase_space_quadrature(odd, P1)
        assert got.value == pytest.approx(0.0, abs=1e-12)

    def test_box_sized_by_every_coordinate(self):
        # the cutoff follows the largest moment in any coordinate, not x's
        closed = hk.integral_Imn_closed(12, 0, P1) / (2.0 * math.pi)
        for mono in ({"x": 24}, {"y": 24}):
            got = phase_space_quadrature(PhasePolynomial.monomial(2, 1, **mono), P1)
            assert abs(got.value - closed) <= got.error

    def test_three_coordinate_leading(self):
        p3 = ModelParams(g=1.0, v=1.0, hbar=1.0, t=1.0, n_model=3)
        one = PhasePolynomial.one(3)
        got = phase_space_quadrature(one, p3, QuadratureSpec(rel_tol=1e-7))
        # independent check: raw x^2-moment route consistency is covered
        # below; here just positivity and scale sanity against the harmonic
        # bound Z <= (hbar v t)^-3
        assert 0.0 < got.value < 1.0

    def test_channel_singularities(self):
        # the paper's v^-k growth of Z_k as v -> 0 at g = t = 1: the slope of
        # log|Z_k| against log v over v in [1e-3, 1e-2] (z down to 5e-13)
        vs = np.geomspace(1e-3, 1e-2, 6)
        for k in (2, 4, 6, 8):
            zk = [phase_space_quadrature(_cached_kernel(k), params(v=v)).value for v in vs]
            slope = np.polyfit(np.log(vs), np.log(np.abs(zk)), 1)[0]
            assert abs(slope + k) <= 1e-3, k

    def test_channel_regime_accurate(self):
        # the channel regime at g = t = 1, z from 5e-5 down to 5e-17: W_0 ...
        # W_8 against the closed moments and the symbolic route's quad ones
        for v in (0.1, 0.03, 0.01, 1e-3, 1e-4):
            p = params(v=v)
            moments = {
                "closed": lambda mn: hk.integral_Imn_closed(max(mn), min(mn), p),
                "symbolic": lambda mn: imn_quadrature(*mn, p).value,
            }
            for k in range(0, 9, 2):
                red = _cached_kernel(k)
                got = phase_space_quadrature(red, p)
                for route, moment in moments.items():
                    assert abs(got.value - red.partition_value(p, moment)) <= got.error, (v, k, route)

    def test_channel_regime_uses_effective_weight(self):
        # at v = 0 the resummed regulator's v^2 = hbar^2 g^2 t / 2 alone
        # keeps the weight finite: z = 1.25e-9 at hbar = 0.01
        p = params(v=0.0, hbar=0.01)
        got = phase_space_quadrature(PhasePolynomial.one(2), p, effective=True)
        assert abs(got.value - hk.resummed_term(0, p)) <= got.error


N3_POINT = ModelParams(g=1.0, v=1.0, hbar=1.0, t=1.0, n_model=3)
W3 = conventional_kernels(potential(3), 4)
SPEC6 = QuadratureSpec(1e-6)


def captured_cubatures(monkeypatch, call):
    """The (f, d, cut, spec) of every box cubature that ``call()`` runs."""
    seen = []
    engine = quadrature._cubature

    def record(f, d, cut, spec):
        seen.append((f, d, cut, spec))
        return engine(f, d, cut, spec)

    monkeypatch.setattr(quadrature, "_cubature", record)
    call()
    monkeypatch.undo()
    return seen


class TestCubatureEngine:
    """``quadrature._cubature`` against ``scipy.integrate.cubature``, the
    engine it replaced, and on integrals it must get right by construction."""

    W = conventional_kernels(potential(2), 4)
    # criterion-2 points; at the first, the W_4 estimate moves by an ulp when
    # the Gauss values are read off the nearby Kronrod nodes
    POINTS = [params(g=1.1, v=1.2, t=0.9), params(g=0.8, v=1.0, t=1.3)]
    N3 = [(1, 1.0, False), (2, 0.0, True)]
    # the planar path above is a 1-D cubature once y is closed; the
    # three-coordinate one a 2-D cubature once z is: W_0, W_2 and the
    # effective S_2
    P3 = replace(N3_POINT, g=0.4)
    K3 = [(W3[0], False), (W3[2], False), (resummed_kernels(potential(3), 2)[2], True)]

    def oracle_table(self, monkeypatch):
        for p in self.POINTS:
            for k in (0, 2, 4):
                yield from captured_cubatures(
                    monkeypatch, lambda: phase_space_quadrature(self.W[k], p)
                )
        for kernel, effective in self.K3:
            yield from captured_cubatures(
                monkeypatch,
                lambda: phase_space_quadrature(kernel, self.P3, SPEC6, effective),
            )
        for which, v, effective in self.N3:
            p3 = ModelParams(g=1.0, v=v, hbar=1.0, t=1.0, n_model=3)
            yield from captured_cubatures(
                monkeypatch,
                lambda: raw_coordinate_n3(which, p3, QuadratureSpec(1e-6), effective),
            )
        # the 3-D box oracle of the x^2 structure: batches of 8 children
        yield from captured_cubatures(
            monkeypatch, lambda: box_integral({(1, 0, 0): 1.0}, 3, 1.0, 1.0, 1.0, SPEC6)
        )

    def test_matches_scipy_cubature(self, monkeypatch):
        table = list(self.oracle_table(monkeypatch))
        assert [d for _, d, _, _ in table] == [1] * 6 + [2] * 5 + [3]
        for f, d, cut, spec in table:
            est, err = quadrature._cubature(f, d, cut, spec)
            # scipy passes the points as rows of one (npoints, d) array
            ref = cubature(
                lambda X, f=f: f(*X.T), np.zeros(d), np.full(d, cut), rule="gk21",
                rtol=spec.rel_tol / quadrature._TAIL_SAFETY,
            )
            assert ref.status == "converged"
            assert est == float(ref.estimate)
            assert err == pytest.approx(float(ref.error), rel=1e-6)

    @staticmethod
    def grid_shapes(d, boxes, n):
        """The shapes of the d axis arrays of one integrand call on ``boxes``
        boxes per axis with ``n`` nodes each: axis i lies along box
        dimension i and grid dimension i."""
        return [
            tuple(boxes if j == i else 1 for j in range(d))
            + tuple(n if j == i else 1 for j in range(d))
            for i in range(d)
        ]

    @pytest.mark.parametrize("d", [2, 3])
    def test_degree_31_exact_in_one_region(self, d):
        calls = []

        def f(*xs):
            calls.append([x.shape for x in xs])
            return math.prod((1.0 + x) ** 31 for x in xs)

        est, err = quadrature._cubature(f, d, 1.0, QuadratureSpec(rel_tol=1e-8))
        exact = ((2.0**32 - 1.0) / 32.0) ** d
        assert est == pytest.approx(exact, rel=4e-15)
        # one region: its Kronrod nodes and its Gauss nodes, each once and
        # each axis as one open-grid vector behind d box axes of length 1
        assert calls == [self.grid_shapes(d, 1, n) for n in (21, 10)]
        assert err <= 1e-9 * est

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_integrand_call_per_grid_per_bisection(self, monkeypatch, d):
        # s bisections make 2 + 2 s calls: the first region's two, then one
        # Kronrod and one Gauss call on all 2^d children of each bisection
        calls = []
        regions = []

        class Counted(quadrature._Region):
            __slots__ = ()

            def __init__(self, *args):
                regions.append(args)
                super().__init__(*args)

        def f(*xs):
            calls.append([x.shape for x in xs])
            return np.sqrt(sum(xs)) * np.exp(-math.prod(xs))

        monkeypatch.setattr(quadrature, "_Region", Counted)
        quadrature._cubature(f, d, 1.0, QuadratureSpec(rel_tol=1e-8))
        bisections, rest = divmod(len(regions) - 1, 2**d)
        assert bisections > 0 and rest == 0
        assert len(calls) == 2 + 2 * bisections
        assert calls[:2] == [self.grid_shapes(d, 1, n) for n in (21, 10)]
        assert calls[2:] == [self.grid_shapes(d, 2, n) for n in (21, 10)] * bisections

    def test_non_finite_integrand_raises(self):
        def f(x, y):
            return np.where(x > 0.5, np.nan, 1.0)

        with pytest.raises(AccuracyError, match="non-finite"):
            quadrature._cubature(f, 2, 1.0, QuadratureSpec())

    def test_non_finite_child_named(self):
        # finite on the first region and on its children; the second
        # bisection, of [0, 0.5]^2, puts Kronrod nodes below 1e-3 into its
        # two children at x = 0, and the first of them in child order is named
        calls = []

        def f(x, y):
            calls.append(x.shape)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(x < 1e-3, np.nan, 1.0 / np.sqrt(x))

        with pytest.raises(AccuracyError, match=r"non-finite integrand on "
                           r"\[\[0\. 0\.\], \[0\.25 0\.25\]\]"):
            quadrature._cubature(f, 2, 1.0, QuadratureSpec(rel_tol=1e-10))
        assert len(calls) == 6

    @pytest.mark.parametrize("n", [21, 10])
    def test_integrands_never_mix_boxes(self, monkeypatch, n):
        # a batch of 2^d child grids must give each child bit for bit the
        # values of its own grid: a BLAS product over the rows of several
        # boxes may round its last rows in another order
        calls = [
            lambda: phase_space_quadrature(self.W[4], self.POINTS[0]),
            lambda: phase_space_quadrature(W3[4], self.P3, SPEC6),
            lambda: raw_coordinate_n3(2, replace(N3_POINT, v=0.0), SPEC6, effective=True),
        ]
        axis = quadrature._gk21_product(1)[0 if n == 21 else 1]
        rng = np.random.default_rng(n)
        for call in calls:
            ((f, d, cut, _),) = captured_cubatures(monkeypatch, call)
            # random bisected boxes, laid out as the engine lays them out
            for _ in range(25):
                a = rng.uniform(0.0, 0.5 * cut, size=d)
                mid = a + rng.uniform(0.05, 0.5) * cut
                b = mid + rng.uniform(0.05, 0.5) * cut
                # per axis: (child, node), the lower half first
                axes = [
                    np.stack([axis * ((m - lo) * 0.5) + lo, axis * ((hi - m) * 0.5) + m])
                    for lo, m, hi in zip(a, mid, b)
                ]
                batch = f(*(x.reshape(s) for x, s in zip(axes, self.grid_shapes(d, 2, n))))
                assert batch.shape == (2,) * d + (n,) * d
                for child in product(range(2), repeat=d):
                    alone = f(*(
                        x[i : i + 1].reshape(s)
                        for x, i, s in zip(axes, child, self.grid_shapes(d, 1, n))
                    ))
                    assert batch[child].tobytes() == alone.reshape(batch[child].shape).tobytes()

    def test_subdivision_cap_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 3)

        def f(x, y):
            return np.sqrt(np.abs(x - 1.0 / 3.0))

        with pytest.raises(AccuracyError, match="after 3 subdivisions"):
            quadrature._cubature(f, 2, 1.0, QuadratureSpec())


def box_integral(coeffs, d, t, g2, v2, spec):
    """Test oracle of ``quadrature._closed_last_axis``: the d-D box cubature
    of the raw integrand, the last coordinate cut off where the others are."""

    def f(*xs):
        sq = [x * x for x in xs]
        poly = sum(w * math.prod(s**e for s, e in zip(sq, key)) for key, w in coeffs.items())
        quartic = sum(a * b for a, b in combinations(sq, 2))
        return poly * np.exp(-0.5 * t * (v2 * sum(sq) + g2 * quartic))

    cut = quadrature._gauss_cutoff(0.5 * t * v2, max(map(max, coeffs)) + 1, spec)
    return quadrature._cubature(f, d, cut, spec)


def assert_closure_matches_box(monkeypatch, call, rel_tol, d):
    """``call(spec)`` runs only (d-1)-D cubatures, meets rel_tol, and agrees
    within the two reported errors with the same call when the d-D box of
    the raw integrand replaces the closure of the last coordinate."""
    spec = QuadratureSpec(rel_tol)
    seen = captured_cubatures(monkeypatch, lambda: call(spec))
    assert seen and all(dim == d - 1 for _, dim, _, _ in seen)
    got = call(spec)
    monkeypatch.setattr(quadrature, "_closed_last_axis", box_integral)
    box = call(spec)
    assert abs(got.value - box.value) <= got.error + box.error
    assert got.error <= rel_tol * abs(got.value)


class TestClosedY:
    """The planar phase-space integral integrates y in closed form and runs
    a 1-D cubature in x; the same call with the (x, y) box of the raw
    integrand in place of the y-closure must agree within the two reported
    errors."""

    P = params(g=1.1, v=1.2, t=0.9)
    W8 = conventional_kernels(potential(2), 8)
    S4 = resummed_kernels(potential(2), 4)
    CALLS = {
        **{f"W{k}": (lambda spec, k=k: phase_space_quadrature(
            TestClosedY.W8[k], TestClosedY.P, spec)) for k in (0, 2, 4, 6, 8)},
        **{f"S{k}_effective": (lambda spec, k=k: phase_space_quadrature(
            TestClosedY.S4[k], TestClosedY.P, spec, effective=True)) for k in (2, 4)},
    }

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_matches_the_2d_box(self, monkeypatch, name, rel_tol):
        # no 2-D cubature runs for a planar kernel
        assert_closure_matches_box(monkeypatch, self.CALLS[name], rel_tol, 2)

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
    def test_harmonic_kernels_exact_at_g0(self, rel_tol):
        # at g = 0 every moment is a Gaussian product:
        # Z_k = coeff (hbar v t)^wpower exactly
        p = params(g=0.0, v=1.2, t=0.9)
        W = conventional_kernels(potential(2, quartic=False), 8)
        for k in range(0, 9, 2):
            coeff, wpower = harmonic_partition_exact(W[k], k)
            exact = float(coeff) * (p.hbar * p.v * p.t) ** wpower
            got = phase_space_quadrature(W[k], p, QuadratureSpec(rel_tol))
            assert abs(got.value - exact) <= rel_tol * abs(exact), k


class TestClosedZ:
    """The three-coordinate box integrals integrate z in closed form and run
    a 2-D cubature; the same call with the 3-D box of the raw integrand in
    place of the z-closure must agree within the two reported errors."""

    P3 = replace(N3_POINT, g=0.4)
    W6 = conventional_kernels(potential(3), 6)
    S2 = resummed_kernels(potential(3), 2)[2]
    CALLS = {
        **{f"W{k}": (lambda spec, k=k: phase_space_quadrature(
            TestClosedZ.W6[k], TestClosedZ.P3, spec)) for k in (0, 2, 4, 6)},
        "S2_effective": lambda spec: phase_space_quadrature(
            TestClosedZ.S2, TestClosedZ.P3, spec, effective=True),
        "raw_x2": lambda spec: raw_coordinate_n3(1, N3_POINT, spec),
        "raw_x2_y2z2_effective": lambda spec: raw_coordinate_n3(
            2, replace(N3_POINT, v=0.0), spec, effective=True),
    }

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_matches_the_3d_box(self, monkeypatch, name, rel_tol):
        # no 3-D cubature runs in the package
        assert_closure_matches_box(monkeypatch, self.CALLS[name], rel_tol, 3)

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
    def test_harmonic_kernels_exact_at_g0(self, rel_tol):
        # at g = 0 every moment is a Gaussian product:
        # Z_k = coeff (hbar v t)^wpower exactly
        p = ModelParams(g=0.0, v=1.2, hbar=1.0, t=0.9, n_model=3)
        W = conventional_kernels(potential(3, quartic=False), 6)
        for k in range(0, 7, 2):
            coeff, wpower = harmonic_partition_exact(W[k], k)
            exact = float(coeff) * (p.hbar * p.v * p.t) ** wpower
            got = phase_space_quadrature(W[k], p, QuadratureSpec(rel_tol))
            assert abs(got.value - exact) <= rel_tol * abs(exact), k


class TestOracleSnapshot:
    """The repr of (value, error) of a fixed set of oracle calls, pinned so
    that a change to how an integrand or the engine computes moves no bit."""

    @pytest.mark.parametrize("call, pinned", [
        pytest.param(lambda: raw_coordinate_n3(1, N3_POINT, SPEC6),
                     "(5.004781625941715, 9.198725374067984e-07)", id="raw_n3_x2"),
        pytest.param(lambda: raw_coordinate_n3(2, replace(N3_POINT, v=0.0), SPEC6, effective=True),
                     "(3.742887284394973, 4.999816511420787e-07)",
                     id="raw_n3_x2_y2z2_effective"),
        pytest.param(lambda: imn_quadrature(1, 1, P1),
                     "(1.41214031825722, 7.466471885209103e-12)", id="imn_11"),
        pytest.param(lambda: imn_quadrature(3, 0, params(g=0.7, v=0.4, t=1.3)),
                     "(5537.75629969707, 1.1720550839283057e-08)", id="imn_30"),
        pytest.param(lambda: imn_quadrature(2, 4, params(g=1.5, v=0.0, t=0.6), effective=True),
                     "(76.29124816841832, 3.264366954403849e-09)", id="imn_24_effective"),
        pytest.param(lambda: phase_space_quadrature(TestCubatureEngine.W[2], P1),
                     "(-0.11287756720677627, 1.3692466051834637e-11)", id="phase_space_W2"),
        pytest.param(lambda: phase_space_quadrature(TestCubatureEngine.W[4], P1),
                     "(0.009562539706113295, 9.774762876638355e-13)", id="phase_space_W4"),
        pytest.param(lambda: phase_space_quadrature(W3[2], replace(N3_POINT, g=0.4), SPEC6),
                     "(-0.13237175905921603, 1.8007281736524563e-08)", id="phase_space_n3_W2"),
        # W_4 has monomials in all three coordinates: several powers of the
        # closed z per (x, y) monomial
        pytest.param(lambda: phase_space_quadrature(W3[4], replace(N3_POINT, g=0.4), SPEC6),
                     "(0.010858854309412946, 1.59169532584366e-09)", id="phase_space_n3_W4"),
    ])
    def test_bit_for_bit(self, call, pinned):
        got = call()
        assert repr((got.value, got.error)) == pinned


def criterion2_grid():
    """The (g, t, z) grid of acceptance criterion 2."""
    for g in (0.7, 1.0, 1.5):
        for t in (0.6, 1.0, 1.7):
            for z in (0.1, 1.0, 10.0):
                yield params(g=g, v=(2.0 * z * g * g / t) ** 0.25, t=t)


class TestErrorBrackets:
    """A reported OracleValue.error bounds the distance to the truth."""

    def test_moment_integrals(self):
        for p in [*criterion2_grid(), params(v=0.3), params(v=0.05)]:
            for m in range(5):
                for n in range(m + 1):
                    got = imn_quadrature(m, n, p)
                    assert abs(got.value - hk.integral_Imn_closed(m, n, p)) <= got.error

    def test_phase_space_kernels(self):
        W = conventional_kernels(potential(2), 2)
        for p in criterion2_grid():
            for k, closed in ((0, hk.tf_partition_n2(p)), (2, hk.z2_closed_n2(p))):
                got = phase_space_quadrature(W[k], p)
                assert abs(got.value - closed) <= got.error

    def test_channel_route(self):
        # the channel regime at g = t = 1: z from 0.5 down to 3e-6
        for v in (1.0, 0.2, 0.05):
            p = params(v=v)
            for m in range(5):
                for n in range(m + 1):
                    got = imn_quadrature(m, n, p)
                    assert abs(got.value - hk.integral_Imn_closed(m, n, p)) <= got.error

    def test_moment_integrals_against_hypergeometric_u(self):
        # an mpmath reference that shares nothing with ymqm:
        # I_mn = sqrt(2 pi) (2n-1)!! v^(2(m-n)) t^(-n-1/2) g^(-2m-1)
        #        Gamma(m+1/2) U(m+1/2, 1+m-n, z) for n <= m
        g, t = 1.5, 0.6
        with mp.workdps(30):
            for z in (1e-12, 1e-8, 1e-4, 1e-2, 1.0, 1e3):
                v = (2.0 * z * g * g / t) ** 0.25
                p = params(g=g, v=v, t=t)
                for m in (0, 1, 4, 7, 10):
                    for n in range(m + 1):
                        ref = (
                            mp.sqrt(2 * mp.pi)
                            * mp.fac2(2 * n - 1)
                            * mp.mpf(v) ** (2 * (m - n))
                            * mp.mpf(t) ** (-n - mp.mpf(1) / 2)
                            * mp.mpf(g) ** (-2 * m - 1)
                            * mp.gamma(m + mp.mpf(1) / 2)
                            * mp.hyperu(m + mp.mpf(1) / 2, 1 + m - n, z)
                        )
                        for rel_tol in (1e-6, 1e-9, 1e-11):
                            got = imn_quadrature(m, n, p, QuadratureSpec(rel_tol=rel_tol))
                            assert abs(got.value - ref) <= got.error
                            assert abs(got.value - ref) <= rel_tol * ref

    @pytest.mark.parametrize(
        "which,v,effective", [(1, 1.0, False), (2, 0.0, True), (1, 0.0, True)]
    )
    def test_raw_and_radial_three_coordinate(self, which, v, effective):
        p = ModelParams(g=1.0, v=v, hbar=1.0, t=1.0, n_model=3)
        spec = QuadratureSpec(rel_tol=1e-6)
        raw = raw_coordinate_n3(which, p, spec, effective=effective)
        radial = radial_quadrature_n3(which, p, spec, effective=effective)
        assert abs(raw.value - radial.value) <= raw.error + radial.error


class TestResummedRegulator:
    """The effective weight is the model's regulator exp(-hbar^2 t^2 LapV/4):
    the phase-space integrals of the resummed kernels S_k under it sum to
    the spectral partition function."""

    @staticmethod
    def residuals(n_model, g, basis_n, k_max):
        p = ModelParams(g=g, v=1.0, hbar=1.0, t=1.0, n_model=n_model)
        levels, _ = build_hamiltonian(p, BasisSpec(basis_n, 1.0)).solve()
        spectral = float(np.exp(-p.t * levels).sum())
        spec = QuadratureSpec(rel_tol=1e-6)
        S = resummed_kernels(potential(n_model), k_max)
        total, out = 0.0, []
        for k in range(0, k_max + 1, 2):
            total += phase_space_quadrature(S[k], p, spec, effective=True).value
            out.append((total - spectral) / spectral)
        return out

    def test_three_coordinate_partial_sums_converge(self):
        # the planar regulator in 3-D gave -0.355, +0.142 and +0.350
        got = self.residuals(3, 0.4, 23, 4)
        assert got == pytest.approx([-0.5410, -0.1949, -0.05407], abs=1e-3)

    def test_planar_partial_sums_converge(self):
        got = self.residuals(2, 1.0, 60, 4)
        assert got == pytest.approx([-0.4868, -0.1739, -0.05547], abs=1e-3)

    @pytest.mark.parametrize("g,t", [(1.0, 1.0), (0.5, 0.6)])
    def test_planar_leading_term_is_the_resummed_term(self, g, t):
        p = params(g=g, v=0.0, t=t)
        got = phase_space_quadrature(PhasePolynomial.one(2), p, effective=True)
        assert got.value == pytest.approx(hk.resummed_term(0, p), rel=1e-12)

    def test_weight_of_the_model_it_integrates(self):
        p3 = ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3)
        with pytest.raises(DomainError):
            raw_coordinate_n3(2, params(v=0.0), effective=True)
        with pytest.raises(DomainError):
            radial_quadrature_n3(2, params(v=0.0), effective=True)
        with pytest.raises(DomainError):
            phase_space_quadrature(PhasePolynomial.one(3), params(), effective=True)
        with pytest.raises(DomainError):
            imn_quadrature(1, 0, p3, effective=True)


class TestReductionAgainstBruteForce:
    def test_random_even_polynomial(self):
        """Momentum reduction checked against a from-scratch numeric route:
        1-D numeric momentum integrals per variable (the terms factorize)
        and numeric coordinate integrals, written independently here."""
        import random

        from scipy.integrate import quad as _q

        from ymqm.reduction import integrate_momenta

        rng = random.Random(11)
        terms = {}
        for _ in range(6):
            exps = (
                rng.randrange(3) * 2,  # x (even, weight symmetric quadrant trick)
                rng.randrange(3) * 2,
                rng.randrange(3) * 2,  # px even
                rng.randrange(3) * 2,
                rng.randrange(3),  # t power
                0,
                0,
            )
            terms[exps] = rng.randrange(1, 9)
        poly = PhasePolynomial(2, terms)
        p = P1
        t, g2, v2 = p.t, p.g**2, p.v**2

        def mom(j):
            val, _ = _q(
                lambda q: q ** (2 * j) * math.exp(-0.5 * t * q * q),
                0,
                math.inf,
                epsabs=0.0,
                epsrel=1e-12,
            )
            return 2 * val  # even integrand

        def coord(mx, my):
            def inner(x):
                val, _ = _q(
                    lambda y: y ** (2 * my)
                    * math.exp(-0.5 * t * (v2 * (x * x + y * y) + g2 * x * x * y * y)),
                    0,
                    12.0,
                    epsabs=0.0,
                    epsrel=1e-11,
                )
                return x ** (2 * mx) * val

            val, _ = _q(inner, 0, 12.0, epsabs=0.0, epsrel=1e-11)
            return 4 * val

        brute = 0.0
        for exps, c in terms.items():
            ex, ey, epx, epy, et, _, _ = exps
            brute += (
                c
                * t**et
                * mom(epx // 2)
                * mom(epy // 2)
                * coord(ex // 2, ey // 2)
            )
        red = integrate_momenta(poly, order_k=0)
        from ymqm.quadrature import imn_quadrature

        got = red.evaluate(p, lambda mn: imn_quadrature(mn[0], mn[1], p).value)
        assert got == pytest.approx(brute, rel=1e-8)


class TestRadialThreeCoordinate:
    P3 = ModelParams(g=1.0, v=0.5, hbar=1.0, t=1.0, n_model=3)

    def test_matches_raw_quadrature(self):
        for which in (1, 2):
            radial = radial_quadrature_n3(which, self.P3)
            raw = raw_coordinate_n3(which, self.P3)
            assert abs(radial.value - raw.value) <= radial.error + raw.error, which

    def test_divergence_detection(self):
        p = ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3)
        with pytest.raises(DivergentIntegralError):
            radial_quadrature_n3(1, p)
        with pytest.raises(DivergentIntegralError):
            raw_coordinate_n3(1, p)

    @pytest.mark.parametrize("which", [1, 2])
    def test_raw_channel_regime_accurate(self, which):
        # down into the channel regime: z = v^4/2 from 5e-5 to 5e-13
        for v in (0.1, 0.03, 0.01, 1e-3):
            p = replace(self.P3, v=v)
            radial = radial_quadrature_n3(which, p)
            raw = raw_coordinate_n3(which, p)
            assert abs(radial.value - raw.value) <= radial.error + raw.error, v

    def test_second_structure_finite_at_zero_v(self):
        p = ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3)
        val = radial_quadrature_n3(2, p)
        assert math.isfinite(val.value) and val.value > 0
        # a box cutoff drops the r^-2 channel tail (13% at these couplings)
        with pytest.raises(DomainError):
            raw_coordinate_n3(2, p)

    def test_second_structure_meets_tolerance_at_zero_v(self):
        # at small t the r^-2 channel tail is long; the one integral still meets rel_tol
        p = ModelParams(g=1.0, v=0.0, hbar=1.0, t=0.3, n_model=3)
        tight = radial_quadrature_n3(2, p, QuadratureSpec(rel_tol=1e-12))
        assert tight.error <= 1e-12 * tight.value
        loose = radial_quadrature_n3(2, p)
        assert abs(tight.value - loose.value) <= loose.error

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-12])
    def test_second_structure_at_zero_v_against_mpmath(self, rel_tol):
        # the one integral over [0, inf), channel tail included, against the
        # same radial integral in 30-digit mpmath, split at the quartic scale
        def oracle(g, t):
            with mp.workdps(30):
                g, t = mp.mpf(g), mp.mpf(t)

                def f(r):
                    w = t * g**2 * r**4 / 16
                    return r**3 * mp.exp(-w) * mp.besseli(0, w) * (g**2 * r**2) ** mp.mpf(-1.5)

                scale = (16 / (t * g**2)) ** mp.mpf(0.25)
                return float((2 * mp.pi / t) ** 1.5 * mp.quad(f, [0, scale, mp.inf]))

        def closed(g, t):
            # at v = 0 the integral is (2 pi/t)^(3/2) g^-3 s int_0^inf e^-w I_0(w) dx
            # with w = x^4 and the quartic scale s = (16/(t g^2))^(1/4)
            with mp.workdps(30):
                g, t = mp.mpf(g), mp.mpf(t)
                s = (16 / (t * g**2)) ** mp.mpf(0.25)
                shape = mp.gamma(0.25) ** 2 / (
                    4 * mp.mpf(2) ** 0.25 * mp.sqrt(mp.pi) * mp.gamma(0.75)
                )
                return float((2 * mp.pi / t) ** 1.5 * s * shape / g**3)

        def check(g, t, want):
            p = ModelParams(g=g, v=0.0, hbar=1.0, t=t, n_model=3)
            got = radial_quadrature_n3(2, p, QuadratureSpec(rel_tol=rel_tol))
            assert abs(got.value - want) <= got.error, (g, t)
            assert got.error <= rel_tol * got.value, (g, t)

        for g, t in ((0.1, 0.1), (1.0, 0.3), (1.0, 1.0), (2.0, 0.5), (3.0, 3.0)):
            check(g, t, oracle(g, t))
        assert closed(1.0, 0.3) == pytest.approx(oracle(1.0, 0.3), rel=1e-15)
        # small g puts the quartic scale far out, at 1.7e4 for g = 1e-8 and
        # 3.6e10 for g = 1e-20, and the closed form stands in for the
        # mpmath integral
        for g, t in ((1e-3, 0.5), (1e-6, 1.0), (1e-8, 2.0), (1e-20, 0.1)):
            check(g, t, closed(g, t))

    def test_second_structure_continuous_at_small_v(self):
        # the harmonic cutoff lies near 1/v, far beyond the quartic bulk
        at_zero = radial_quadrature_n3(2, replace(self.P3, v=0.0)).value
        for v in (1e-4, 1e-5):
            got = radial_quadrature_n3(2, replace(self.P3, v=v)).value
            assert got > 0
            assert got == pytest.approx(at_zero, rel=1e-3)

    def test_harmonic_dominance_factorizes(self):
        # g -> 0: I_1 -> Gamma moments of a pure Gaussian
        p = ModelParams(g=1e-5, v=1.0, hbar=1.0, t=1.0, n_model=3)
        got = radial_quadrature_n3(1, p)
        # int x^2 e^(-t v^2 r^2 / 2) over R^3 = sqrt(2 pi)^3 / (t v^2)^(5/2) * ...
        a = 0.5 * p.t * p.v**2
        exact = (
            0.5 * math.sqrt(math.pi) / a**1.5 * (math.pi / a)
        )  # int x^2 e^-a x^2 * (int e^-a y^2)^2
        assert got.value == pytest.approx(exact, rel=1e-4)

    def test_ibp_identity(self):
        # int (gradV)^2 e^-tV = (1/t) int LapV e^-tV links the two structures
        # at v > 0:  3 g^4 I2' + mixed terms; verified via the raw route on
        # the pure-quartic part by comparing t-derivative consistency:
        # here we check the simpler exact relation at g = 0
        p = ModelParams(g=0.0, v=1.2, hbar=1.0, t=0.9, n_model=3)
        i1 = raw_coordinate_n3(1, p)
        # int x^2 (y^2+z^2) = 2 * (x^2 y^2 moment): for a product Gaussian
        i2 = raw_coordinate_n3(2, p)
        a = 0.5 * p.t * p.v**2
        x2 = 0.5 * math.sqrt(math.pi) / a**1.5
        x0 = math.sqrt(math.pi / a)
        assert i1.value == pytest.approx(x2 * x0 * x0, rel=1e-6)
        assert i2.value == pytest.approx(2 * x2 * x2 * x0, rel=1e-6)

    def test_which_validation(self):
        with pytest.raises(DomainError):
            radial_quadrature_n3(3, self.P3)
        with pytest.raises(DomainError):
            radial_divergence_n3(3, self.P3)

    @pytest.mark.parametrize("which,g,v,finite", [
        (1, 1.0, 0.5, True), (1, 1.0, 0.0, False), (2, 1.0, 0.0, True), (2, 0.0, 0.0, False),
    ])
    def test_divergence_without_integrating(self, which, g, v, finite):
        p = ModelParams(g=g, v=v, hbar=1.0, t=1.0, n_model=3)
        reason = radial_divergence_n3(which, p)
        assert (reason is None) == finite
        if not finite:
            with pytest.raises(DivergentIntegralError, match=re.escape(reason)):
                radial_quadrature_n3(which, p)

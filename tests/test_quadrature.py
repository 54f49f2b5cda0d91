import math
from dataclasses import replace

import pytest

from ymqm import heatkernel as hk
from ymqm.errors import DivergentIntegralError, DomainError
from ymqm.kernels import conventional_kernels, potential
from ymqm.params import ModelParams
from ymqm.polynomial import PhasePolynomial
from ymqm.quadrature import (
    QuadratureSpec,
    imn_factorized_g0,
    imn_quadrature,
    imn_quadrature_channel,
    phase_space_quadrature,
    radial_quadrature_n3,
    raw_coordinate_n3,
)

P1 = ModelParams(g=1.0, v=1.0, hbar=1.0, t=1.0)


def params(**kw):
    base = dict(g=1.0, v=1.0, hbar=1.0, t=1.0)
    base.update(kw)
    return ModelParams(**base)


class TestMomentQuadrature:
    def test_free_gaussian_factorization(self):
        p = params(g=0.0, v=1.3, t=0.7)
        for route in (imn_quadrature, imn_quadrature_channel):
            for m, n in ((0, 0), (1, 0), (2, 2)):
                got = route(m, n, p)
                assert got.value == pytest.approx(imn_factorized_g0(m, n, p), rel=1e-9)

    def test_cross_route_closed_form(self):
        p = params(v=2.0**0.25)  # z = 1
        got = imn_quadrature(1, 1, p)
        assert got.value == pytest.approx(hk.integral_Imn_closed(1, 1, p), rel=1e-8)

    def test_symmetry_under_swap(self):
        a = imn_quadrature(2, 1, P1)
        b = imn_quadrature(1, 2, P1)
        assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_channel_route_agreement(self):
        for v in (1.0, 0.2):
            p = params(v=v)
            direct = imn_quadrature(1, 0, p)
            channel = imn_quadrature_channel(1, 0, p)
            assert channel.value == pytest.approx(direct.value, rel=1e-7)

    def test_channel_route_takes_over_at_small_v(self):
        # deep in the channel regime the rectangular mesh stalls while the
        # hyperbolic-coordinate route keeps full accuracy
        p = params(v=0.05)
        closed = hk.integral_Imn_closed(1, 0, p)
        channel = imn_quadrature_channel(1, 0, p)
        direct = imn_quadrature(1, 0, p)
        assert channel.value == pytest.approx(closed, rel=1e-9)
        assert direct.value == pytest.approx(closed, rel=1e-4)

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
        odd = PhasePolynomial.monomial(2, 1, px=1, x=1).with_i_power(1)
        got = phase_space_quadrature(odd, P1)
        assert got.value == pytest.approx(0.0, abs=1e-12)

    def test_three_coordinate_leading(self):
        p3 = ModelParams(g=1.0, v=1.0, hbar=1.0, t=1.0, n_model=3)
        one = PhasePolynomial.one(3)
        got = phase_space_quadrature(one, p3, QuadratureSpec(rel_tol=1e-7))
        # independent check: raw x^2-moment route consistency is covered
        # below; here just positivity and scale sanity against the harmonic
        # bound Z <= (hbar v t)^-3
        assert 0.0 < got.value < 1.0


def criterion2_grid():
    """The (g, t, z) grid of acceptance criterion 2."""
    for g in (0.7, 1.0, 1.5):
        for t in (0.6, 1.0, 1.7):
            for z in (0.1, 1.0, 10.0):
                yield params(g=g, v=(2.0 * z * g * g / t) ** 0.25, t=t)


class TestErrorBrackets:
    """A reported OracleValue.error bounds the distance to the truth."""

    def test_moment_integrals(self):
        for p in criterion2_grid():
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
        for v in (1.0, 0.2, 0.05):
            p = params(v=v)
            for m in range(5):
                for n in range(m + 1):
                    got = imn_quadrature_channel(m, n, p)
                    assert abs(got.value - hk.integral_Imn_closed(m, n, p)) <= got.error

    @pytest.mark.parametrize("which,v,effective", [(1, 1.0, False), (2, 0.0, True)])
    def test_raw_and_radial_three_coordinate(self, which, v, effective):
        p = ModelParams(g=1.0, v=v, hbar=1.0, t=1.0, n_model=3)
        spec = QuadratureSpec(rel_tol=1e-6)
        raw = raw_coordinate_n3(which, p, spec, effective=effective)
        radial = radial_quadrature_n3(which, p, spec, effective=effective)
        assert abs(raw.value - radial.value) <= raw.error + radial.error


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
            assert radial.value == pytest.approx(raw.value, rel=1e-6)

    def test_effective_mode_matches_raw(self):
        p = ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3)
        for which in (1, 2):
            radial = radial_quadrature_n3(which, p, effective=True)
            raw = raw_coordinate_n3(which, p, effective=True)
            assert radial.value == pytest.approx(raw.value, rel=1e-6)

    def test_divergence_detection(self):
        p = ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3)
        with pytest.raises(DivergentIntegralError):
            radial_quadrature_n3(1, p)
        with pytest.raises(DivergentIntegralError):
            raw_coordinate_n3(1, p)

    def test_second_structure_finite_at_zero_v(self):
        p = ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3)
        val = radial_quadrature_n3(2, p)
        assert math.isfinite(val.value) and val.value > 0
        # a box cutoff drops the r^-2 channel tail (13% at these couplings)
        with pytest.raises(DomainError):
            raw_coordinate_n3(2, p)

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

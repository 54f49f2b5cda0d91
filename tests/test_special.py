import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from ymqm.errors import DomainError
from ymqm.special import (
    EULER_GAMMA,
    WhittakerArgs,
    bessel_i0,
    bessel_k0,
    bessel_k0_scaled,
    bessel_k1_scaled,
    digamma,
    double_factorial,
    gamma_fn,
    gamma_upper,
    power,
    sqrt,
    whittaker_w,
)

mpmath.mp.dps = 40


class TestWhittaker:
    def test_symmetry_mu_sign(self):
        for z in (0.3, 1.0, 7.0):
            a = whittaker_w(WhittakerArgs(-2.0, 0.5, z))
            b = whittaker_w(WhittakerArgs(-2.0, -0.5, z))
            assert a == pytest.approx(b, rel=1e-12)

    def test_against_independent_reference(self):
        # the oracle is mpmath's independent hypergeometric implementation
        worst = 0.0
        for kappa in (0.0, -0.5, -1.5, -3.0, -5.5, -10.0):
            for mu in (0.0, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0):
                for z in (1e-12, 1e-8, 1e-3, 0.1, 1.0, 5.0, 20.0, 50.0):
                    mine = whittaker_w(WhittakerArgs(kappa, mu, z))
                    ref = float(mpmath.whitw(kappa, mu, z))
                    worst = max(worst, abs(mine - ref) / abs(ref))
        assert worst < 1e-10

    def test_laplace_transform_identity(self):
        # int_0^inf u^(m-1/2) (1+u)^(-n-1/2) e^(-uz) du
        #   = Gamma(m+1/2) e^(z/2) z^(-(m-n+1)/2) W_{-(m+n)/2,(m-n)/2}(z)
        m, n, z = 1, 0, 1.0
        lhs, _ = quad(
            lambda u: u ** (m - 0.5) * (1 + u) ** (-n - 0.5) * math.exp(-u * z),
            0,
            np.inf,
            epsabs=0.0,
            epsrel=1e-12,
            limit=300,
        )
        w = whittaker_w(WhittakerArgs(-(m + n) / 2, (m - n) / 2, z))
        rhs = math.gamma(m + 0.5) * math.exp(z / 2) * z ** (-(m - n + 1) / 2) * w
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (2, 1), (3, 1), (4, 4)])
    @pytest.mark.parametrize("z", [0.05, 0.7, 3.0])
    def test_laplace_identity_grid(self, m, n, z):
        lhs, _ = quad(
            lambda u: u ** (m - 0.5) * (1 + u) ** (-n - 0.5) * math.exp(-u * z),
            0,
            np.inf,
            epsabs=0.0,
            epsrel=1e-12,
            limit=300,
        )
        w = whittaker_w(WhittakerArgs(-(m + n) / 2, (m - n) / 2, z))
        rhs = math.gamma(m + 0.5) * math.exp(z / 2) * z ** (-(m - n + 1) / 2) * w
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_small_z_limit_mu_half(self):
        # W_{-1/2,1/2}(z) -> 1/Gamma(3/2) = 2/sqrt(pi) as z -> 0
        val = whittaker_w(WhittakerArgs(-0.5, 0.5, 1e-10))
        assert val == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-6)

    def test_k0_relation(self):
        # W_{0,0}(z) = sqrt(z/pi) K_0(z/2)
        for z in (0.1, 1.0, 10.0):
            lhs = whittaker_w(WhittakerArgs(0.0, 0.0, z))
            rhs = math.sqrt(z / math.pi) * bessel_k0(z / 2)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            WhittakerArgs(-1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            WhittakerArgs(-1.0, 0.5, -2.0)


class TestBessel:
    def test_k0_small_z_log_law(self):
        # e^z K_0(z) -> ln(2/z) - C, with an O(z ln z) gap
        for z in (1e-6, 1e-8, 1e-10):
            gap = math.exp(z) * bessel_k0(z) - (math.log(2.0 / z) - EULER_GAMMA)
            assert abs(gap) < 10.0 * z * abs(math.log(z))
        # without the exponential the gap obeys the sharper z^2 ln z law
        g1 = abs(bessel_k0(1e-3) - (math.log(2e3) - EULER_GAMMA))
        g2 = abs(bessel_k0(1e-4) - (math.log(2e4) - EULER_GAMMA))
        assert g2 < g1 * 2e-2

    def test_k0_integral_representation(self):
        val, _ = quad(lambda u: math.exp(-math.cosh(u)), 0, 30.0, epsabs=0.0, epsrel=1e-13)
        assert bessel_k0(1.0) == pytest.approx(val, rel=1e-12)

    def test_k0_positive_decreasing(self):
        grid = np.geomspace(1e-6, 50, 40)
        vals = [bessel_k0(z) for z in grid]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_k0_accuracy_reference(self):
        for z in np.geomspace(1e-10, 100.0, 25):
            ref = float(mpmath.besselk(0, mpmath.mpf(float(z))))
            assert bessel_k0(float(z)) == pytest.approx(ref, rel=1e-12)

    def test_k0_derivative_is_minus_k1(self):
        from scipy.special import k1

        for z in (0.5, 1.0, 3.0):
            h = 1e-6
            deriv = (bessel_k0(z + h) - bessel_k0(z - h)) / (2 * h)
            assert deriv == pytest.approx(-k1(z), rel=1e-6)

    def test_i0_series_and_limits(self):
        assert bessel_i0(0.0) == 1.0
        # 30-term power series oracle at z = 1
        z = 1.0
        series = sum((z / 2) ** (2 * k) / math.factorial(k) ** 2 for k in range(30))
        assert bessel_i0(z) == pytest.approx(series, rel=1e-14)
        grid = np.linspace(0.0, 30.0, 25)
        damped = [math.exp(-z) * bessel_i0(z) for z in grid]
        assert all(a > b for a, b in zip(damped, damped[1:]))

    def test_i0_accuracy_reference(self):
        for z in (0.5, 5.0, 50.0, 200.0):
            ref = float(mpmath.besseli(0, z))
            assert bessel_i0(z) == pytest.approx(ref, rel=1e-12)

    def test_scaled_variants(self):
        assert bessel_k0_scaled(3.0) == pytest.approx(math.exp(3.0) * bessel_k0(3.0), rel=1e-13)
        for z in (1e-10, 0.5, 5.0, 50.0):
            ref = float(mpmath.exp(z) * mpmath.besselk(1, z))
            assert bessel_k1_scaled(z) == pytest.approx(ref, rel=1e-14)

    def test_domains(self):
        with pytest.raises(DomainError):
            bessel_k0(0.0)
        with pytest.raises(DomainError):
            bessel_k1_scaled(0.0)
        with pytest.raises(DomainError):
            bessel_i0(-1.0)


class TestGammaFamily:
    def test_half_integer(self):
        assert gamma_fn(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    def test_accuracy_range(self):
        for x in np.geomspace(0.25, 30.0, 30):
            ref = float(mpmath.gamma(x))
            assert gamma_fn(float(x)) == pytest.approx(ref, rel=1e-13)

    def test_functional_equation(self):
        for x in np.linspace(0.3, 28.0, 23):
            assert gamma_fn(x + 1) == pytest.approx(x * gamma_fn(x), rel=1e-12)

    def test_digamma_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)

    def test_double_factorial(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(5) == 15
        assert double_factorial(8) == 384

    def test_domains(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            digamma(-1.0)
        with pytest.raises(DomainError):
            double_factorial(-3)
        with pytest.raises(OverflowError):
            gamma_fn(500.0)


class TestElementwise:
    """Over an array each entry gets the value that the number gets."""

    x = np.geomspace(1e-3, 1e3, 2001) * (1.0 + 1e-9 * np.arange(2001))

    @pytest.mark.parametrize("y", [2, 3, 4, 1.5, -0.5, -0.75, -2.0])
    def test_power_is_libm_pow(self, y):
        assert power(self.x, y).tolist() == [e**y for e in self.x.tolist()]
        assert power(2.0, y) == 2.0**y and power(3, 2) == 9

    def test_sqrt_and_bessel(self):
        for f in (sqrt, bessel_k0_scaled, bessel_k1_scaled):
            values = f(self.x)
            assert isinstance(values, np.ndarray) and isinstance(f(0.5), float)
            assert values.tolist() == [f(e) for e in self.x.tolist()]
        with pytest.raises(DomainError):
            bessel_k0_scaled(np.array([1.0, 0.0]))

    def test_gamma_upper_broadcasts(self):
        s = np.arange(5) / 2.0 + 0.25
        table = gamma_upper(s, self.x[:7, None])
        assert table.shape == (7, 5)
        for row, x in zip(table, self.x[:7]):
            assert row.tolist() == gamma_upper(s, float(x)).tolist()
        with pytest.raises(DomainError):
            gamma_upper(s, np.array([[1.0], [-1.0]]))

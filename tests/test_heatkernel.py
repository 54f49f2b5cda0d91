import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from ymqm import heatkernel as hk
from ymqm import quadrature
from ymqm.errors import AccuracyError, DomainError, RegimeWarning
from ymqm.params import ModelParams
from ymqm.special import EULER_GAMMA, digamma, gamma_fn

P1 = ModelParams(g=1.0, v=1.0, hbar=1.0, t=1.0)


def _jb_mpmath(b, lam):
    """J_b(lam) to 30 digits, with breakpoints on every decade of the
    boundary layer at u ~ lam and of the u^(-3/2) stretch above it."""
    with mpmath.workdps(30):
        mlam = mpmath.mpf(lam)
        edges = [mlam * 10**k for k in range(-2, 12) if lam * 10**k < 10]
        return float(mpmath.quad(
            lambda u: u**b * mpmath.exp(-u * u - mlam * u) * (mlam + 8 * u) ** -1.5,
            [0, *edges, 10, mpmath.inf],
        ))


def params(**kw):
    base = dict(g=1.0, v=1.0, hbar=1.0, t=1.0)
    base.update(kw)
    return ModelParams(**base)


class TestPrefactor:
    def test_unit_values(self):
        assert P1.prefactor_K() == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_t_power_law(self):
        assert params(t=4.0).prefactor_K() / P1.prefactor_K() == pytest.approx(
            4.0**-1.5, rel=1e-14
        )

    def test_lam2_form(self):
        p = params(g=0.01, hbar=1.0, t=1.0)  # lam2 = 1e-4
        assert p.prefactor_K() == pytest.approx((2 * math.pi * 1e-4) ** -0.5, rel=1e-14)

    def test_hbar_scaling_of_tf(self):
        a = hk.tf_partition_n2(params(hbar=1.0))
        b = hk.tf_partition_n2(params(hbar=2.0))
        assert b == pytest.approx(a / 4.0, rel=1e-13)


class TestLeadingTerm:
    def test_small_v_consistency(self):
        # ratio of exact to limiting form -> 1 as z -> 0 (gap ~ z/2)
        for z, tol in ((1e-2, 6e-3), (1e-4, 6e-5), (1e-6, 1e-6)):
            v = (2.0 * z) ** 0.25
            p = params(v=v)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ratio = hk.tf_partition_n2(p) / hk.tf_limit_v0(p)
            assert ratio == pytest.approx(1.0, abs=tol)

    def test_log_slope_in_v(self):
        # d(Z/K)/d(ln v) = -4 in the limiting form
        vs = np.array([1e-3, 1.02e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ys = [hk.tf_limit_v0(params(v=v)) / params(v=v).prefactor_K() for v in vs]
        slope = (ys[1] - ys[0]) / math.log(vs[1] / vs[0])
        assert slope == pytest.approx(-4.0, rel=1e-12)

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            hk.tf_limit_v0(params(v=2.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            hk.tf_partition_n2(params(v=0.0))


class TestSecondOrderClosed:
    def test_small_v_divergence_coefficient(self):
        # Z_2 -> -K hbar^2 g^2 t^(3/2) / (6 sqrt(t v^4)), i.e. a v^-2 law
        p = params(v=3e-3, g=1.2, t=0.8)
        assert hk.z2_closed_n2(p) == pytest.approx(hk.z2_limit_v0(p), rel=1e-4)

    def test_harmonic_limit_minus_one_twelfth(self):
        # g -> 0 at fixed v: the bracket approaches -1/12 like 1/z
        for z, tol in ((50.0, 2e-2), (400.0, 3e-3)):
            g = math.sqrt(1.0 / (2.0 * z))
            val = hk.z2_closed_n2(params(g=g))
            assert val == pytest.approx(-1.0 / 12.0, rel=tol)

    def test_against_moment_quadrature_midrange(self):
        from ymqm.quadrature import imn_quadrature

        p = params(v=2.0**0.25)  # z = 1
        t, g2, v2 = p.t, p.g**2, p.v**2
        bracket = (
            (-g2 + 0.5 * t * v2**2) * imn_quadrature(1, 0, p).value
            + 0.5 * t * g2**2 * imn_quadrature(2, 1, p).value
            - v2 * imn_quadrature(0, 0, p).value
            + t * g2 * v2 * imn_quadrature(1, 1, p).value
        )
        assert hk.z2_closed_n2(p) == pytest.approx(t * bracket / (12 * math.pi), rel=1e-6)


class TestMomentIntegralsClosed:
    def test_log_growth_at_small_z(self):
        # I_00 grows like |ln z| only
        vals = []
        for z in (1e-4, 1e-6, 1e-8):
            v = (2.0 * z) ** 0.25
            vals.append(hk.integral_Imn_closed(0, 0, params(v=v)))
        growth1 = vals[1] / vals[0]
        growth2 = vals[2] / vals[1]
        assert growth1 < 2.0 and growth2 < 2.0  # logarithmic, not power-like

    def test_power_divergence_gap_one(self):
        # at fixed (g, t): I_10 ~ z^(-1/2) as z -> 0
        zs = (1e-6, 1e-8)
        vals = [
            hk.integral_Imn_closed(1, 0, params(v=(2.0 * z) ** 0.25)) for z in zs
        ]
        slope = math.log(vals[1] / vals[0]) / math.log(zs[1] / zs[0])
        assert slope == pytest.approx(-0.5, abs=1e-3)

    def test_quadrature_agreement(self):
        from ymqm.quadrature import imn_quadrature

        p = params(v=2.0**0.25)
        closed = hk.integral_Imn_closed(2, 1, p)
        assert closed == pytest.approx(imn_quadrature(2, 1, p).value, rel=1e-8)

    def test_index_order_enforced(self):
        with pytest.raises(DomainError):
            hk.integral_Imn_closed(1, 2, P1)
        with pytest.raises(DomainError):
            hk.integral_Imn_whittaker(1, 2, P1)

    def test_bessel_form_matches_whittaker(self):
        g, t = 1.2, 0.8
        for z in np.logspace(-12, math.log10(50.0), 15):
            p = params(g=g, t=t, v=(2.0 * z * g * g / t) ** 0.25)
            for m in range(9):
                for n in range(m + 1):
                    closed = hk.integral_Imn_closed(m, n, p)
                    oracle = hk.integral_Imn_whittaker(m, n, p)
                    assert closed == pytest.approx(oracle, rel=1e-10), (m, n, z)

    @pytest.mark.parametrize("v", [8.0, 12.0])  # z = 2048 and 10368
    def test_whittaker_form_at_large_z(self, v):
        # the integral is Gamma(m+1/2) U(m+1/2, m-n+1, z); mpmath's U is
        # independent of the quadrature
        p = params(v=v)
        for m in range(9):
            for n in range(m + 1):
                with mpmath.workdps(30):
                    ref = float(
                        mpmath.sqrt(2 * mpmath.pi)
                        * hk.double_factorial(2 * n - 1)
                        * mpmath.mpf(v) ** (2 * (m - n))
                        * mpmath.gamma(m + 0.5)
                        * mpmath.hyperu(m + 0.5, m - n + 1, p.z)
                    )
                assert hk.integral_Imn_whittaker(m, n, p) == pytest.approx(ref, rel=1e-12), (m, n)

    def test_cancellation_guard_falls_back(self, monkeypatch):
        calls = []
        oracle = hk.integral_Imn_whittaker

        def recorded(m, n, p):
            calls.append((m, n))
            return oracle(m, n, p)

        monkeypatch.setattr(hk, "integral_Imn_whittaker", recorded)
        at_50 = params(v=100.0**0.25)  # z = t v^4 / (2 g^2) = 50
        hk.integral_Imn_closed(2, 1, params(v=1.0))
        assert calls == []
        # (8, 8) at z = 50 cancels by about sixteen digits
        assert hk.integral_Imn_closed(8, 8, at_50) == oracle(8, 8, at_50)
        assert calls == [(8, 8)]


class TestSingularFamilies:
    def test_order_two_value(self):
        term = hk.zk_singular(2, 1, P1)
        expected = (
            P1.prefactor_K() * math.sqrt(4.0) * gamma_fn(1.0) * 1.0
        )  # (2m-k-1)!! = (-1)!! = 1
        assert term == pytest.approx(expected, rel=1e-14)

    def test_double_factorial_factor(self):
        # k=4, m=4: (2m-k-1)!! = 3!! = 3 relative to the m=2 structure
        a = hk.zk_singular(4, 4, P1)
        b = hk.zk_singular(4, 2, P1)
        assert a / b == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("k", [2, 4])
    def test_v_power_law(self, k):
        a = hk.zk_singular(k, k // 2, params(v=1.0))
        b = hk.zk_singular(k, k // 2, params(v=2.0))
        assert a / b == pytest.approx(2.0**k, rel=1e-13)

    @pytest.mark.parametrize("k", [2, 4])
    def test_fitted_slope(self, k):
        vs = np.geomspace(1e-4, 1e-2, 9)
        ys = [abs(hk.zk_singular(k, k // 2, params(v=v))) for v in vs]
        slope = np.polyfit(np.log(vs), np.log(ys), 1)[0]
        assert slope == pytest.approx(-k, abs=1e-10)

    def test_boundary_ell_rejected(self):
        with pytest.raises(DomainError):
            hk.zk_singular(4, 3, P1, ell=1)  # ell = k/4

    def test_less_singular_value(self):
        term = hk.zk_singular(6, 3, P1, ell=1)
        K = P1.prefactor_K()
        expected = K * 4.0**1.5 * 0.25 * gamma_fn(2.0) * 1.0
        assert term == pytest.approx(expected, rel=1e-13)

    def test_diagonal_log_slope(self):
        # d(value)/d(ln v) = -4 K lam2^(k/4)
        k = 4
        v0 = 0.01
        h = 1e-5
        a = hk.zk_diagonal_log(k, 2, params(v=v0 * math.exp(h)))
        b = hk.zk_diagonal_log(k, 2, params(v=v0 * math.exp(-h)))
        slope = (a - b) / (2 * h)
        expected = -4.0 * P1.prefactor_K() * P1.lam2 ** (k / 4)
        assert slope == pytest.approx(expected, rel=1e-8)


class TestResummed:
    def test_constants(self):
        p = params(g=0.05, t=0.5)
        K = p.prefactor_K()
        assert hk.resummed_term(2, p) == pytest.approx(5.0 / 3.0 * K, rel=1e-15)
        assert hk.resummed_term(4, p) == pytest.approx(127.0 / 180.0 * K, rel=1e-15)

    def test_exact_vs_log_form(self):
        for lam2, tol in ((1e-4, 2e-3), (1e-8, 1e-6)):
            p = params(g=math.sqrt(lam2))
            ratio = hk.resummed_term(0, p) / hk.resummed_tf_log_form(p)
            assert ratio == pytest.approx(1.0, abs=tol)

    def test_finite_and_v_independent(self):
        for k in (0, 2, 4):
            a = hk.resummed_term(k, params(g=0.1, v=0.0))
            b = hk.resummed_term(k, params(g=0.1, v=1.0))
            assert math.isfinite(a) and a == b

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            hk.resummed_term(2, params(g=2.0))


class TestSingularSums:
    def test_p0_combination_reproduces_constants(self):
        from ymqm.kernels import potential, resummed_kernels
        from ymqm.reduction import extract_coefficients, integrate_momenta

        p = params(g=0.01)
        K = p.prefactor_K()
        S = resummed_kernels(potential(2, quartic=True, higgs=False), 4)
        for k, const in ((2, 5.0 / 3.0), (4, 127.0 / 180.0)):
            coeffs = extract_coefficients(integrate_momenta(S[k]), k)
            total = sum(
                float(a) * hk.tilde_zk_singular(k, n, p, pmax=0)
                for n, a in coeffs.items()
            )
            assert total == pytest.approx(const * K, rel=1e-13)

    def test_lam2_zero_single_term(self):
        p = params(g=1e-12)
        full = hk.tilde_zk_singular(4, 1, p)
        p0 = hk.tilde_zk_singular(4, 1, p, pmax=0)
        assert full == pytest.approx(p0, rel=1e-10)

    def test_alternating_partial_sums_bracket(self):
        # small lam2: successive truncations alternate around the full sum
        p = params(g=math.sqrt(1e-3) ** 0.5)  # lam2 = sqrt(1e-3) ~ 0.03
        p = ModelParams(g=0.1778279410038923, v=1.0, hbar=1.0, t=1.0)  # lam2 ~ 0.0316
        k = 6
        full = hk.tilde_zk_singular(k, 0, p)
        s0 = hk.tilde_zk_singular(k, 0, p, pmax=0)
        s1 = hk.tilde_zk_singular(k, 0, p, pmax=1)
        assert (s1 <= full <= s0) or (s0 <= full <= s1)

    def test_diagonal_matches_bare_family_with_regulator(self):
        # the bare diagonal family at v^2 -> veff^2 is the resummed one,
        # K lam2^(k/4) [-ln lam2 + 3 ln 2 - 2C - psi(m + 1/2)]
        p = params(g=0.3, v=0.0)
        k, m = 4, 1
        expected = (
            p.prefactor_K()
            * p.lam2 ** (k / 4)
            * (-math.log(p.lam2) + 3 * math.log(2.0) - 2 * EULER_GAMMA - digamma(m + 0.5))
        )
        assert hk.zk_diagonal_log(k, m, p.with_veff()) == pytest.approx(expected, rel=1e-12)

    def test_index_validation(self):
        with pytest.raises(DomainError):
            hk.tilde_zk_singular(3, 0, P1)
        with pytest.raises(DomainError):
            hk.tilde_zk_singular(4, 3, P1)
        with pytest.raises(DomainError):
            hk.tilde_zk_singular(8, 1, P1, ell=2)
        # an integral float ell is the same index
        assert hk.tilde_zk_singular(8, 1, P1, ell=1.0) == hk.tilde_zk_singular(8, 1, P1, ell=1)


@pytest.fixture(scope="module")
def a_table():
    from ymqm.kernels import potential, resummed_kernels
    from ymqm.reduction import extract_coefficients, integrate_momenta

    S = resummed_kernels(potential(2, quartic=True, higgs=False), 8)
    return {
        k: extract_coefficients(integrate_momenta(S[k]), k) for k in (2, 4, 6, 8)
    }


class TestSeriesAssembly:
    def test_reference_constant_through_fourth_order(self, a_table):
        p = params(g=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            terms, total = hk.series_assemble(p, 4, a_table)
        K = p.prefactor_K()
        expected = K * (
            -math.log(p.lam2) + 5 * math.log(2.0) - EULER_GAMMA + 427.0 / 180.0
        )
        assert total == pytest.approx(expected, rel=1e-12)
        assert list(terms) == [0, 2, 4]

    def test_degenerate_assembly(self, a_table):
        p = params(g=0.01)
        terms, total = hk.series_assemble(p, 0, a_table)
        assert len(terms) == 1
        assert total == pytest.approx(hk.resummed_tf_log_form(p), rel=1e-15)

    def test_full_sum_corrections_scale_with_lam2(self, a_table):
        # the lam2-dependent part of each full p-sum block scales ~ lam2
        deltas = []
        for lam2 in (1e-2, 1e-4):
            p = params(g=math.sqrt(lam2))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, tot_p0 = hk.series_assemble(p, 8, a_table, full_sums=False)
                _, tot_full = hk.series_assemble(p, 8, a_table, full_sums=True)
            deltas.append(abs(tot_full - tot_p0) / p.prefactor_K())
        exponent = math.log(deltas[0] / deltas[1]) / math.log(1e-2 / 1e-4)
        assert exponent == pytest.approx(1.0, abs=0.1)


class TestThreeCoordinate:
    def test_leading_term_value(self):
        p = ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3)
        expected = 0.5 * math.gamma(0.25) ** 3 * (2 * math.pi**2) ** -0.75
        assert hk.tf_term_n3(p) == pytest.approx(expected, rel=1e-14)

    def test_j0_limit(self):
        lam = 1e-6
        assert math.sqrt(lam) * hk.radial_Jb(lam)[0] == pytest.approx(0.25, rel=1e-3)

    def test_j2_limit(self):
        lam = 1e-6
        expected = math.gamma(0.75) / (32.0 * math.sqrt(2.0))
        assert hk.radial_Jb(lam)[1] == pytest.approx(expected, rel=1e-3)

    def test_jb_small_lam_against_mpmath(self):
        # the boundary layer at u ~ lam and the u^(-3/2) stretch above it
        for lam in (1e-10, 4e-7):
            for b, value in zip((0, 2), hk.radial_Jb(lam)):
                assert value == pytest.approx(_jb_mpmath(b, lam), rel=1e-10)

    @pytest.mark.parametrize("lam", [1e-10, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.7, 1.0])
    def test_jb_series_against_mpmath(self, monkeypatch, lam):
        # below lam = 1 the incomplete-gamma series never hands over
        def refuse(*args):
            raise AssertionError("the series handed lam < 1 to quadrature")

        monkeypatch.setattr(hk, "radial_Jb_quadrature", refuse)
        for b, value in zip((0, 2), hk.radial_Jb(lam)):
            assert value == pytest.approx(_jb_mpmath(b, lam), rel=1e-13)

    @pytest.mark.parametrize("lam", [4.0, 6.0, 10.0, 100.0])
    def test_jb_guard_falls_back_to_quadrature(self, monkeypatch, lam):
        # 40 terms do not converge here, and at lam = 100 the prefactor
        # e^(7 lam^2/64) overflows: the guard must refuse the series
        oracle = hk.radial_Jb_quadrature
        calls = []
        monkeypatch.setattr(hk, "radial_Jb_quadrature",
                            lambda b, lam: calls.append(b) or oracle(b, lam))
        for b, value in zip((0, 2), hk.radial_Jb(lam)):
            assert value == oracle(b, lam)
            assert value == pytest.approx(_jb_mpmath(b, lam), rel=1e-10)
        assert calls == [0, 2]

    def test_jb_cancellation_guard(self, monkeypatch):
        # at lam = 1, sum |terms| * 2^-52 is about 1e-15 of the sum of both
        # members while the last term is 1e-34 of it: a tolerance of 1e-16
        # trips only the cancellation half of the guard
        monkeypatch.setattr(hk, "_CANCEL_TOL", 1e-16)
        oracle = hk.radial_Jb_quadrature
        calls = []
        monkeypatch.setattr(hk, "radial_Jb_quadrature",
                            lambda b, lam: calls.append(b) or oracle(b, lam))
        assert hk.radial_Jb(1.0) == (oracle(0, 1.0), oracle(2, 1.0))
        assert calls == [0, 2]

    def test_z2_n3_without_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quad ran")

        # the package's only quad is the one of quadrature.line_integral
        monkeypatch.setattr(quadrature, "quad", refuse)
        for lam in np.geomspace(1e-10, 0.99, 30):
            p = ModelParams(g=float(lam), v=0.0, hbar=1.0, t=1.0, n_model=3)
            z2 = hk.z2_n3(p)
            assert math.isfinite(z2) and z2 < 0

    def test_jb_refinement_stability(self):
        a = hk.radial_Jb_quadrature(0, 1.0, rel_tol=1e-9)
        b = hk.radial_Jb_quadrature(0, 1.0, rel_tol=1e-12)
        assert a == pytest.approx(b, rel=1e-9)

    def test_jb_quadrature_failure_names_the_integral(self, monkeypatch):
        def fail(*args, **kwargs):
            warnings.warn("roundoff", IntegrationWarning)

        monkeypatch.setattr(quadrature, "quad", fail)
        expected = r"^J_2\(0\.5\) quadrature did not converge on \[0, 1\]"
        with pytest.raises(AccuracyError, match=expected):
            hk.radial_Jb_quadrature(2, 0.5)

    def test_z2_matches_structure(self):
        p = ModelParams(g=1e-6, v=0.0, hbar=1.0, t=1.0, n_model=3)
        assert hk.z2_n3(p) == pytest.approx(hk.z2_n3_structure(p), rel=1e-3)

    def test_z2_structure_at_rescaled_units(self):
        p = ModelParams(g=1e-6, v=0.0, hbar=1.0, t=1.0, n_model=3).rescaled(3.0)
        assert hk.z2_n3(p) == pytest.approx(hk.z2_n3_structure(p), rel=1e-3)

    def test_model_guard(self):
        with pytest.raises(DomainError):
            hk.z2_n3(P1)

    def test_jb_domain(self):
        with pytest.raises(DomainError):
            hk.radial_Jb(0.0)
        with pytest.raises(DomainError):
            hk.radial_Jb(np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            hk.radial_Jb_quadrature(1, 1.0)

"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they complete."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ymqm import heatkernel as hk
from ymqm.errors import DivergentIntegralError
from ymqm.kernels import conventional_kernels, potential, resummed_kernels, unresum
from ymqm.params import ModelParams
from ymqm.quadrature import (
    QuadratureSpec,
    imn_quadrature,
    phase_space_quadrature,
    radial_quadrature_n3,
)
from ymqm.reduction import (
    extract_coefficients,
    harmonic_partition_exact,
    integrate_momenta,
)
from ymqm.special import EULER_GAMMA, double_factorial, gamma_fn


def _report(tag, ok, detail=""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def quartic_resummed():
    return resummed_kernels(potential(2, quartic=True, higgs=False), 8)


@pytest.fixture(scope="module")
def planar_kernels():
    pot = potential(2, quartic=True, higgs=True)
    return pot, resummed_kernels(pot, 2)


class TestCriterion1ExactConstants:
    def test_1a_harmonic_second_order(self):
        W = conventional_kernels(potential(2, quartic=False, higgs=True), 2)
        coeff, wpow = harmonic_partition_exact(W[2], 2)
        _report(
            "1a harmonic second-order constant",
            coeff == Fraction(-1, 12) and wpow == 0,
            f"got {coeff} * w^{wpow}",
        )

    def test_1b_first_two_orders_match_sinh_expansion(self):
        W = conventional_kernels(potential(2, quartic=False, higgs=True), 2)
        z0 = harmonic_partition_exact(W[0], 0)
        z2 = harmonic_partition_exact(W[2], 2)
        # (hbar v t)^-2 (1 - (hbar v t)^2/12) term by term, which is the
        # sinh^-2 Taylor expansion through second order
        structure_ok = z0 == (Fraction(1), -2) and z2 == (Fraction(-1, 12), 0)
        sinh = {-2: Fraction(1), 0: Fraction(-1, 12)}
        _report(
            "1b leading plus second order vs sinh form",
            structure_ok and {z0[1]: z0[0], z2[1]: z2[0]} == sinh,
            f"w-powers {(z0[1], z2[1])}",
        )

    def test_1c_resummed_harmonic_coefficients(self):
        S = resummed_kernels(potential(1, quartic=False, higgs=True), 4)
        got = [harmonic_partition_exact(S[k], k) for k in (0, 2, 4)]
        expected = [
            (Fraction(1), -1),
            (Fraction(5, 24), 1),
            (Fraction(127, 5760), 3),
        ]
        _report("1c resummed harmonic coefficients", got == expected, f"got {got}")

    def test_1d_resummed_quartic_constants(self):
        p = ModelParams(g=0.01, v=0.0, hbar=1.0, t=1.0)
        K = p.prefactor_K()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            from ymqm.kernels import potential as _pot
            from ymqm.kernels import resummed_kernels as _rk

            S = _rk(_pot(2, quartic=True, higgs=False), 4)
            table = {
                k: extract_coefficients(integrate_momenta(S[k]), k) for k in (2, 4)
            }
            # c_k = 2^k Gamma(k/2) sum_n a_n^(k) (2n-1)!!, exactly, from the table
            derived = {
                k: 2**k
                * math.factorial(k // 2 - 1)
                * sum(a * double_factorial(2 * n - 1) for n, a in table[k].items())
                for k in (2, 4)
            }
            c2 = hk.resummed_term(2, p) / K
            c4 = hk.resummed_term(4, p) / K
            _, total = hk.series_assemble(p, 4, table)
        assembled = total / K + math.log(p.lam2)
        const = 5 * math.log(2.0) - EULER_GAMMA + float(derived[2] + derived[4])
        ok = (
            derived == {2: Fraction(5, 3), 4: Fraction(127, 180)}
            and abs(c2 - float(derived[2])) < 1e-14
            and abs(c4 - float(derived[4])) < 1e-14
            and abs(assembled - const) < 1e-12
        )
        _report(
            "1d resummed quartic constants 5/3, 127/180, 5ln2-C+427/180",
            ok,
            f"derived={derived} c2={c2!r} c4={c4!r} assembled={assembled!r}",
        )

    def test_1e_fourth_order_coefficients(self, quartic_resummed):
        coeffs = extract_coefficients(integrate_momenta(quartic_resummed[4]), 4)
        expected = {0: Fraction(1, 30), 1: Fraction(1, 180), 2: Fraction(1, 576)}
        _report(
            "1e symbolic fourth-order coefficients 1/30, 1/180, 1/576",
            coeffs == expected,
            f"got {coeffs}",
        )


class TestCriterion2RouteEquivalence:
    def test_2a_partition_routes_pairwise(self, planar_kernels):
        pot, S = planar_kernels
        W = unresum(S, 2, pot)
        reductions = {0: integrate_momenta(W[0]), 2: integrate_momenta(W[2])}
        spec = QuadratureSpec(rel_tol=1e-10)
        worst = 0.0
        for g in (0.7, 1.0, 1.5):
            for t in (0.6, 1.0, 1.7):
                for z in (0.1, 1.0, 10.0):
                    v = (2.0 * z * g * g / t) ** 0.25
                    p = ModelParams(g=g, v=v, hbar=1.0, t=t)
                    for k in (0, 2):
                        closed = (
                            hk.tf_partition_n2(p) if k == 0 else hk.z2_closed_n2(p)
                        )
                        symbolic = reductions[k].partition_value(
                            p, lambda mn: imn_quadrature(mn[0], mn[1], p, spec).value
                        )
                        direct = phase_space_quadrature(W[k], p, spec).value
                        vals = (closed, symbolic, direct)
                        for i in range(3):
                            for j in range(i + 1, 3):
                                rel = abs(vals[i] - vals[j]) / max(
                                    abs(vals[i]), abs(vals[j])
                                )
                                worst = max(worst, rel)
        _report(
            "2a route equivalence k=0,2 over 27-point grid",
            worst < 1e-6,
            f"worst pairwise rel = {worst:.3g}",
        )

    def test_2b_moment_integrals_closed_vs_quadrature(self):
        spec = QuadratureSpec(rel_tol=1e-10)
        worst = 0.0
        p = ModelParams(g=1.0, v=2.0**0.25, hbar=1.0, t=1.0)  # z = 1
        p2 = ModelParams(g=0.8, v=1.1, hbar=1.0, t=1.3)
        for params in (p, p2):
            for m in range(5):
                for n in range(m + 1):
                    closed = hk.integral_Imn_closed(m, n, params)
                    quad = imn_quadrature(m, n, params, spec).value
                    worst = max(worst, abs(closed - quad) / abs(closed))
        _report(
            "2b moment integrals closed vs quadrature (m <= 4)",
            worst < 1e-8,
            f"worst rel = {worst:.3g}",
        )


class TestCriterion3SingularityScaling:
    def test_3a_second_order_slope_and_coefficient(self):
        g, t, hbar = 1.3, 0.8, 1.0
        vs = np.geomspace(2e-3, 2e-2, 12)
        ys = []
        for v in vs:
            p = ModelParams(g=g, v=float(v), hbar=hbar, t=t)
            ys.append(abs(hk.z2_closed_n2(p)))
        slope = np.polyfit(np.log(vs), np.log(ys), 1)[0]
        p_small = ModelParams(g=g, v=2e-4, hbar=hbar, t=t)
        coeff_ratio = hk.z2_closed_n2(p_small) / hk.z2_limit_v0(p_small)
        ok = abs(slope + 2.0) < 1e-3 and abs(coeff_ratio - 1.0) < 1e-4
        _report(
            "3a second-order v-slope -2 and limit coefficient",
            ok,
            f"slope={slope:.6f} coeff_ratio={coeff_ratio:.8f}",
        )

    def test_3b_family_slopes(self):
        for k in (2, 4):
            vs = np.geomspace(1e-4, 1e-2, 9)
            ys = [
                abs(
                    hk.zk_singular(
                        k, k // 2, ModelParams(g=1.0, v=float(v), hbar=1.0, t=1.0)
                    )
                )
                for v in vs
            ]
            slope = np.polyfit(np.log(vs), np.log(ys), 1)[0]
            _report(
                f"3b power-divergent family slope k={k}",
                abs(slope + k) < 1e-3,
                f"slope={slope:.6f}",
            )


class TestCriterion4ThreeCoordinateLimits:
    def test_4a_radial_j_limits(self):
        lam = 1e-6
        j0, j2 = hk.radial_Jb(lam)
        j0 *= math.sqrt(lam)
        j2_expected = gamma_fn(0.75) / (32.0 * math.sqrt(2.0))
        ok = abs(j0 - 0.25) / 0.25 < 1e-3 and abs(j2 - j2_expected) / j2_expected < 1e-3
        _report(
            "4a radial J limits at lam = 1e-6",
            ok,
            f"sqrt(lam) J0 = {j0:.6f}, J2 = {j2:.8f}",
        )

    def test_4b_second_order_structure(self):
        p = ModelParams(g=1e-6, v=0.0, hbar=1.0, t=1.0, n_model=3)
        got = hk.z2_n3(p)
        want = hk.z2_n3_structure(p)
        rel = abs(got - want) / abs(want)
        _report(
            "4b three-coordinate second order matches leading structure",
            rel < 1e-3,
            f"rel = {rel:.3g}",
        )

    def test_4c_divergence_detection(self):
        p = ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3)
        try:
            radial_quadrature_n3(1, p)
            detected = False
        except DivergentIntegralError:
            detected = True
        i2 = radial_quadrature_n3(2, p)
        ok = detected and math.isfinite(i2.value) and i2.value > 0
        _report(
            "4c channel divergence detected, companion integral finite",
            ok,
            f"I2 = {i2.value:.6g}",
        )


class TestCriterion5SpectralGroundTruth:
    def test_5a_harmonic_partition(self):
        from ymqm.spectral import BasisSpec, build_hamiltonian, eigenvalues, partition_from_spectrum

        p = ModelParams(g=0.0, v=1.0, hbar=1.0, t=1.0)
        h = build_hamiltonian(p, BasisSpec(72, 1.0))
        spec = eigenvalues(h, how_many=10, conv_tol=1e-9)
        worst = 0.0
        for hvt in (0.5, 1.0, 2.0, 3.0):
            z, _ = partition_from_spectrum(spec, hvt, tail_rel_tol=1e-9)
            exact = (2.0 * math.sinh(0.5 * hvt)) ** -2
            worst = max(worst, abs(z - exact) / exact)
        _report(
            "5a harmonic spectral partition vs sinh form",
            worst < 1e-10,
            f"worst rel = {worst:.3g}",
        )

    def test_5b_leading_log_window(self):
        from ymqm.spectral import leading_log_study

        p = ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0)
        study = leading_log_study(p, n_top=60)
        candidates = {
            "5ln2-C": 5 * math.log(2.0) - EULER_GAMMA,
            "5ln2-C+427/180": 5 * math.log(2.0) - EULER_GAMMA + 427.0 / 180.0,
        }
        detail = (
            f"slope={study.slope:.3f} intercept={study.intercept:.3f} "
            f"candidates={ {k: round(v, 3) for k, v in candidates.items()} } "
            f"window lam2 in [{study.lam2.min():.3g}, {study.lam2.max():.3g}] "
            f"flags={study.flags}"
        )
        ok = all(study.flags.values()) and abs(study.slope - 1.0) <= 0.1
        # the intercept is reported, not thresholded: the asymptotic constant
        # is not pinned by the closed results at this order
        _report("5b leading-log slope 1.0 +/- 0.1 at the 60-level basis", ok, detail)


class TestCriterion6DimensionalInvariance:
    def test_6_unit_rescaling(self, quartic_resummed):
        base = ModelParams(g=1.1, v=0.9, hbar=1.0, t=0.9)
        base3 = ModelParams(g=0.02, v=0.0, hbar=1.0, t=0.9, n_model=3)
        table = {
            k: extract_coefficients(integrate_momenta(quartic_resummed[k]), k)
            for k in (2, 4, 6, 8)
        }

        def dimensionless_outputs(p, p3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                vals = [
                    hk.tf_partition_n2(p),
                    hk.tf_limit_v0(p),
                    hk.z2_closed_n2(p),
                    hk.z2_limit_v0(p),
                    hk.zk_singular(4, 3, p),
                    hk.zk_singular(6, 4, p, ell=1),
                    hk.zk_diagonal_log(4, 2, p),
                    hk.resummed_term(0, p),
                    hk.resummed_term(2, p),
                    hk.resummed_term(4, p),
                    hk.tilde_zk_singular(6, 1, p),
                    hk.tilde_zk_singular(8, 1, p, ell=1),
                    hk.zk_diagonal_log(4, 2, p.with_veff()),
                    hk.series_assemble(p, 8, table, full_sums=True)[1],
                    hk.tf_term_n3(p3),
                    hk.z2_n3(p3),
                    hk.z2_n3_structure(p3),
                ]
            return np.array(vals)

        ref = dimensionless_outputs(base, base3)
        worst = 0.0
        for s in (2.0, 10.0):
            scaled = dimensionless_outputs(base.rescaled(s), base3.rescaled(s))
            worst = max(worst, float(np.max(np.abs(scaled / ref - 1.0))))
        # moment integrals are dimensionful ([x] = 1/4 per power, plus the
        # measure): they scale as s^((m+n+1)/2) under the rescaling
        p = base
        for s in (2.0, 10.0):
            ps = p.rescaled(s)
            for m, n in ((0, 0), (2, 1)):
                expected = hk.integral_Imn_closed(m, n, p) * s ** ((m + n + 1) / 2.0)
                got = hk.integral_Imn_closed(m, n, ps)
                worst = max(worst, abs(got / expected - 1.0))
        _report(
            "6 dimensional invariance under unit rescaling",
            worst < 1e-12,
            f"worst rel drift = {worst:.3g}",
        )

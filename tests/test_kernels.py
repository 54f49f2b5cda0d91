"""The symbolic expansion hierarchy against its exact anchors."""

import hashlib
from fractions import Fraction

import pytest

from ymqm.errors import DomainError
from ymqm.kernels import (
    conventional_kernels,
    potential,
    recursion_step,
    resummed_kernels,
    unresum,
)
from ymqm.reduction import (
    extract_coefficients,
    harmonic_partition_exact,
    integrate_momenta,
)


@pytest.fixture(scope="module")
def planar_resummed():
    return resummed_kernels(potential(2, quartic=True, higgs=False), 8)


@pytest.fixture(scope="module")
def planar_full():
    pot = potential(2, quartic=True, higgs=True)
    return pot, resummed_kernels(pot, 8)


class TestRecursionBasics:
    def test_seed_is_one(self):
        S = resummed_kernels(potential(2), 0)
        assert S[0] == PhasePolynomialOne(2)

    def test_first_order_is_odd_and_integrates_to_zero(self):
        pot = potential(2)
        S = resummed_kernels(pot, 1)
        assert S[1].momentum_parity() == 1
        red = integrate_momenta(S[1])
        assert red.entries == []

    def test_odd_orders_vanish_under_reduction(self, planar_full):
        _, S = planar_full
        for k in (1, 3, 5, 7):
            assert S[k].momentum_parity() == 1
            assert integrate_momenta(S[k]).entries == []

    def test_odd_orders_vanish_three_coordinates(self):
        S = resummed_kernels(potential(3), 5)
        for k in (1, 3, 5):
            assert integrate_momenta(S[k]).entries == []

    def test_parity_even_orders(self, planar_full):
        _, S = planar_full
        for k in (0, 2, 4, 6, 8):
            assert S[k].momentum_parity() == 0

    def test_recursion_step_validates(self):
        with pytest.raises(DomainError):
            recursion_step([], 0, potential(2))

    def test_unresum_requires_enough_orders(self):
        pot = potential(2)
        S = resummed_kernels(pot, 2)
        with pytest.raises(DomainError):
            unresum(S, 4, pot)

    def test_unresum_order_zero_unchanged(self):
        pot = potential(2)
        W = conventional_kernels(pot, 0)
        assert W[0].n_terms == 1 and W[0].coefficient() == 1


class TestOrderEightSnapshot:
    """The exact order-8 kernels, pinned by the sha256 of their canonical
    ``dump_text`` so that any change to the polynomial arithmetic or to the
    recursion that alters a single coefficient is caught."""

    @pytest.mark.parametrize(
        "dims, quartic, higgs, digest",
        [
            (1, False, True, "e1878dfb81245b4d91b10cfec7550b7bb6a3a557c2980e683170dd852238a0e7"),
            (2, True, False, "3e8069a0b9f43c1a897570464f25003d3579adcddb820cfb0288086a8434fba2"),
            (2, True, True, "80bbee8632a30529544efac4f19612baabcd3911212489570b8316c66df29584"),
            (3, True, True, "e69fbcc4dc41088c6dc61229dfaa4be32667c8647d95f69cf01ad61eeae74665"),
        ],
    )
    def test_dump_text_digest(self, dims, quartic, higgs, digest):
        S = resummed_kernels(potential(dims, quartic=quartic, higgs=higgs), 8)
        text = S[8].dump_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def PhasePolynomialOne(d):
    from ymqm.polynomial import PhasePolynomial

    return PhasePolynomial.one(d)


class TestHarmonicAnchors:
    """The one-dimensional harmonic oscillator fixes every coefficient of the
    resummed recursion; the planar one fixes the un-resummed route."""

    def test_resummed_one_dim_coefficients(self):
        S = resummed_kernels(potential(1, quartic=False, higgs=True), 4)
        assert harmonic_partition_exact(S[0], 0) == (Fraction(1), -1)
        assert harmonic_partition_exact(S[2], 2) == (Fraction(5, 24), 1)
        assert harmonic_partition_exact(S[4], 4) == (Fraction(127, 5760), 3)

    def test_conventional_two_dim(self):
        W = conventional_kernels(potential(2, quartic=False, higgs=True), 4)
        assert harmonic_partition_exact(W[0], 0) == (Fraction(1), -2)
        assert harmonic_partition_exact(W[2], 2) == (Fraction(-1, 12), 0)
        assert harmonic_partition_exact(W[4], 4) == (Fraction(1, 240), 2)

    def test_sinh_taylor_closure_through_fourth_order(self):
        # [2 sinh(w/2)]^-2 = w^-2 - 1/12 + w^2/240 - ... term by term
        W = conventional_kernels(potential(2, quartic=False, higgs=True), 4)
        series = {}
        for k in (0, 2, 4):
            c, wpow = harmonic_partition_exact(W[k], k)
            series[wpow] = c
        assert series == {-2: Fraction(1), 0: Fraction(-1, 12), 2: Fraction(1, 240)}

    def test_resummed_sinh_closure_one_dim(self):
        # e^{-w^2/4} [w^-1 + 5w/24 + 127 w^3/5760] = [2 sinh(w/2)]^-1 + O(w^5)
        S = resummed_kernels(potential(1, quartic=False, higgs=True), 4)
        total = {}
        for k in (0, 2, 4):
            c, wpow = harmonic_partition_exact(S[k], k)
            # expand e^{-w^2/4} = sum_r (-1/4)^r w^{2r} / r!
            fact = 1
            for r in range(4):
                if r:
                    fact *= r
                key = wpow + 2 * r
                if key <= 3:
                    total[key] = total.get(key, Fraction(0)) + c * Fraction(-1, 4) ** r / fact
        assert total == {
            -1: Fraction(1),
            1: Fraction(-1, 24),
            3: Fraction(7, 5760),
        }


class TestQuarticReduction:
    def test_second_order_four_structures(self, planar_full):
        # (pi t/3)[(-g2 + t v4/2) I10 + (t g4/2) I21 - v2 I00 + t g2 v2 I11]
        pot, S = planar_full
        W = unresum(S, 2, pot)
        red = integrate_momenta(W[2])
        got = {
            (e.moments, e.e_t, e.e_g2, e.e_v2): e.coeff for e in red.entries
        }
        assert got == {
            ((0, 0), 2, 0, 1): Fraction(-1, 6),
            ((1, 0), 2, 1, 0): Fraction(-1, 6),
            ((1, 0), 3, 0, 2): Fraction(1, 12),
            ((1, 1), 3, 1, 1): Fraction(1, 6),
            ((2, 1), 3, 2, 0): Fraction(1, 12),
        }

    def test_resummed_second_order_structures(self, planar_resummed):
        red = integrate_momenta(planar_resummed[2])
        got = {(e.moments, e.e_t, e.e_g2): e.coeff for e in red.entries}
        assert got == {
            ((1, 0), 2, 1): Fraction(1, 3),
            ((2, 1), 3, 2): Fraction(1, 12),
        }

    def test_trivial_reduction_of_unity(self):
        from ymqm.polynomial import PhasePolynomial

        red = integrate_momenta(PhasePolynomial.one(2))
        assert len(red.entries) == 1
        e = red.entries[0]
        assert e.moments == (0, 0) and e.coeff == 1 and (e.e_t, e.e_g2, e.e_v2) == (0, 0, 0)


class TestCoefficientExtraction:
    def test_trivial_order_zero(self, planar_resummed):
        red = integrate_momenta(planar_resummed[0])
        assert extract_coefficients(red, 0) == {0: Fraction(1)}

    def test_second_order(self, planar_resummed):
        red = integrate_momenta(planar_resummed[2])
        assert extract_coefficients(red, 2) == {0: Fraction(1, 3), 1: Fraction(1, 12)}

    def test_fourth_order_reference_values(self, planar_resummed):
        red = integrate_momenta(planar_resummed[4])
        assert extract_coefficients(red, 4) == {
            0: Fraction(1, 30),
            1: Fraction(1, 180),
            2: Fraction(1, 576),
        }

    def test_higher_orders_complete(self, planar_resummed):
        for k in (6, 8):
            coeffs = extract_coefficients(integrate_momenta(planar_resummed[k]), k)
            assert sorted(coeffs) == list(range(k // 2 + 1))
            assert all(c != 0 for c in coeffs.values())

    def test_odd_order_rejected(self, planar_resummed):
        with pytest.raises(DomainError):
            extract_coefficients(integrate_momenta(planar_resummed[2]), 3)


class TestSingularClassification:
    """At order k the structures with physical v carry moment gaps
    m - n = k/2 - 2l (l >= 0) or m = n; the widest gap k/2 is present with a
    nonzero (uncancelled) coefficient."""

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_gap_classification(self, planar_full, k):
        # net small-v divergence of an entry: v^(2 e_v2) from the
        # coefficient against v^(-2(m-n)) from the moment integral
        pot, S = planar_full
        W = unresum(S, k, pot)
        red = integrate_momenta(W[k])
        nu_min = min(2 * (e.e_v2 - (e.moments[0] - e.moments[1])) for e in red.entries)
        assert nu_min == -k
        for e in red.entries:
            gap = e.moments[0] - e.moments[1]
            nu = 2 * (e.e_v2 - gap)
            assert nu >= -k
            if nu == -k:
                # the v^-k structures are exactly the widest-gap pure ones
                assert e.e_v2 == 0 and gap == k // 2
            if e.e_v2 == 0 and gap > 0:
                # pure structures step down by even amounts from k/2
                assert (k // 2 - gap) % 2 == 0

    @pytest.mark.parametrize("k", [4, 6])
    def test_most_singular_not_cancelled(self, planar_full, k):
        # the leading small-v divergence of each widest-gap structure adds up
        # with a nonzero total coefficient
        from ymqm.special import gamma_fn

        pot, S = planar_full
        W = unresum(S, k, pot)
        red = integrate_momenta(W[k])
        total = 0.0
        for e in red.entries:
            m, n = e.moments
            if m - n != k // 2:
                continue
            # I_mn ~ sqrt(2pi) (2n-1)!! Gamma(m-n) 2^(m-n) t^-(m+1/2) g^-(2n+1) v^-2(m-n)
            from ymqm.special import double_factorial

            total += (
                float(e.coeff)
                * double_factorial(2 * n - 1)
                * gamma_fn(m - n)
                * 2.0 ** (m - n)
            )
        assert abs(total) > 1e-12

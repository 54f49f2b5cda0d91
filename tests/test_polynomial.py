from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymqm.polynomial import PhasePolynomial


class TestBasics:
    def test_one_is_recursion_seed(self):
        one = PhasePolynomial.one(2)
        assert one.n_terms == 1
        ((exps, coeff),) = list(one.terms())
        assert all(e == 0 for e in exps)
        assert coeff == 1

    def test_monomial_roundtrip(self):
        p = PhasePolynomial.monomial(2, Fraction(3, 7), x=2, py=1, t=4, g2=1)
        ((exps, coeff),) = list(p.terms())
        assert exps == (2, 0, 0, 1, 4, 1, 0)
        assert coeff == Fraction(3, 7)

    def test_add_cancels(self):
        p = PhasePolynomial.monomial(2, 1, x=2)
        q = PhasePolynomial.monomial(2, -1, x=2)
        assert (p + q).is_zero()

    def test_mul_collects(self):
        x = PhasePolynomial.monomial(1, 1, x=1)
        p = x + PhasePolynomial.one(1)
        sq = p * p
        assert sq.coefficient(x=1) == 2
        assert sq.coefficient(x=2) == 1
        assert sq.coefficient() == 1

    def test_diff_and_integrate(self):
        p = PhasePolynomial.monomial(2, Fraction(1, 2), x=3, t=2)
        assert p.diff("x").coefficient(x=2, t=2) == Fraction(3, 2)
        assert p.integrate_t().coefficient(x=3, t=3) == Fraction(1, 6)
        assert p.diff("y").is_zero()

    def test_momentum_parity(self):
        even = PhasePolynomial.monomial(2, 1, px=2) + PhasePolynomial.one(2)
        assert even.momentum_parity() == 0
        odd = PhasePolynomial.monomial(2, 1, px=1, y=2)
        assert odd.momentum_parity() == 1
        mixed = PhasePolynomial.monomial(2, 1, px=1) + PhasePolynomial.one(2)
        assert mixed.momentum_parity() is None

    def test_i_power_discipline(self):
        p = PhasePolynomial.one(2)
        q = PhasePolynomial.one(2).with_i_power(1)
        with pytest.raises(ValueError):
            p + q
        assert (p * q).i_power == 1

    def test_exponent_overflow_guard(self):
        with pytest.raises(OverflowError):
            PhasePolynomial.monomial(1, 1, x=200)

    def test_dump_text_canonical(self):
        p = PhasePolynomial.monomial(1, Fraction(-1, 3), x=2) + PhasePolynomial.monomial(
            1, 2, px=1
        )
        text = p.dump_text()
        assert text.splitlines()[0].startswith("# vars: x px t g2 v2")
        # sorted exponent tuples, p/q coefficients
        assert "0 1 0 0 0  2/1" in text
        assert "2 0 0 0 0  -1/3" in text
        assert p.dump_text() == text  # deterministic


coeffs = st.fractions(
    min_value=-100, max_value=100, max_denominator=40
).filter(lambda f: f != 0)
exps = st.tuples(*(st.integers(min_value=0, max_value=5) for _ in range(5)))


@st.composite
def polys(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n):
        terms[draw(exps)] = draw(coeffs)
    return PhasePolynomial(1, terms)


class TestAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=40, deadline=None)
    @given(polys())
    def test_diff_of_integral(self, p):
        assert p.integrate_t().diff("t") == p


from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymqm.polynomial import PhasePolynomial, _t_integral, variable_names


def integrate_t(p):
    """The integral of ``p`` in t from 0, as the kernel recursion takes it:
    one part of the accumulator, ``1 * x^0 * 1 * p``."""
    return _t_integral(p.dims, [(1, {}, PhasePolynomial.one(p.dims), p, None, 0)], p.i_power)


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
        assert (p + q) == PhasePolynomial.zero(2)

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
        assert integrate_t(p).coefficient(x=3, t=3) == Fraction(1, 6)
        assert p.diff("y") == PhasePolynomial.zero(2)

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

    def test_product_exponent_overflow(self):
        # a packed key sum must not carry x^200 into the next field as x^72 y
        p = PhasePolynomial.monomial(2, 1, x=100)
        with pytest.raises(OverflowError):
            p * p
        with pytest.raises(OverflowError):
            p.times_monomial(1, x=100)
        with pytest.raises(OverflowError):
            integrate_t(PhasePolynomial.monomial(2, 1, t=127))
        # the largest exponent still fits
        assert (p * PhasePolynomial.monomial(2, 1, x=27)).coefficient(x=127) == 1

    def test_overflow_check_sees_through_loose_bounds(self):
        # x^100 cancels, so its field maximum stored for the sum is only an
        # upper bound; the product check must fall back to the actual terms
        big = PhasePolynomial.monomial(2, 1, x=100)
        p = big - big + PhasePolynomial.monomial(2, 1, x=1)
        assert (p * PhasePolynomial.monomial(2, 3, x=30)).coefficient(x=31) == 3
        assert p.times_monomial(2, x=40).coefficient(x=41) == 2

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
        assert integrate_t(p).diff("t") == p



# -- against a naive {exponent tuple: Fraction} reference ---------------------


def naive_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def naive_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def naive_times_monomial(a, c, shift):
    return {tuple(x + y for x, y in zip(e, shift)): v * c for e, v in a.items() if v * c}


def naive_diff(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in a.items() if e[i]}


def naive_integrate(a, i):
    return {e[:i] + (e[i] + 1,) + e[i + 1 :]: c / (e[i] + 1) for e, c in a.items()}


def assert_matches(poly, ref):
    """``poly`` equals the reference and is stored in canonical form."""
    assert dict(poly.terms()) == ref
    den = poly.denominator
    nums = list(poly.packed_numerators().values())
    assert den > 0 and all(nums)
    assert gcd(den, *nums) == 1


@st.composite
def naive_pairs(draw):
    dims = draw(st.integers(min_value=1, max_value=3))
    nvars = len(variable_names(dims))
    exp_tuples = st.tuples(*(st.integers(min_value=0, max_value=4) for _ in range(nvars)))
    # few distinct denominators, so that sums cancel and share factors
    coeff = st.builds(
        Fraction,
        st.integers(min_value=-30, max_value=30),
        st.sampled_from([1, 2, 3, 4, 6, 12, 35]),
    ).filter(bool)
    terms = st.dictionaries(exp_tuples, coeff, max_size=6)
    a = draw(terms)
    # b shares some of a's monomials, so that a - a and a + b cancel terms
    b = {e: c for e, c in a.items() if draw(st.booleans())}
    b.update(draw(terms))
    return dims, a, b, draw(coeff), draw(exp_tuples), draw(st.integers(0, nvars - 1))


class TestAgainstNaiveReference:
    @settings(max_examples=150, deadline=None)
    @given(naive_pairs())
    def test_operations(self, case):
        dims, a, b, c, shift, var = case
        names = variable_names(dims)
        p, q = PhasePolynomial(dims, a), PhasePolynomial(dims, b)
        assert_matches(p, a)
        assert_matches(p + q, naive_add(a, b))
        assert_matches(p - q, naive_add(a, {e: -v for e, v in b.items()}))
        assert_matches(p - p, {})
        assert_matches(p * q, naive_mul(a, b))
        assert_matches(p.scaled(c), {e: v * c for e, v in a.items()})
        assert_matches(
            p.times_monomial(c, **dict(zip(names, shift))), naive_times_monomial(a, c, shift)
        )
        assert_matches(p.diff(names[var]), naive_diff(a, var))
        assert_matches(integrate_t(p), naive_integrate(a, names.index("t")))

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymqm.polynomial import EXP_MASK, PhasePolynomial, _sum, _t_integral, variable_names


def integrate_t(p):
    """The integral in t from 0 of ``p`` and its images under the rotation
    of the axes, as the kernel recursion takes it: one part of the
    accumulator, ``1 * x^0 * 1 * p``."""
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
        assert integrate_t(p).coefficient(y=3, t=3) == Fraction(1, 6)
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
        q = PhasePolynomial(2, {(0,) * 7: 1}, i_power=1)
        with pytest.raises(ValueError):
            p + q
        assert (p * q).i_power == 1

    def test_exponent_overflow_guard(self):
        with pytest.raises(OverflowError):
            PhasePolynomial.monomial(1, 1, x=EXP_MASK + 1)

    def test_product_exponent_overflow(self):
        # a packed key sum must not carry x^(2h) past the x field
        h = EXP_MASK // 2 + 1
        p = PhasePolynomial.monomial(2, 1, x=h)
        with pytest.raises(OverflowError):
            p * p
        with pytest.raises(OverflowError):
            p.times_monomial(1, x=h)
        with pytest.raises(OverflowError):
            integrate_t(PhasePolynomial.monomial(2, 1, t=EXP_MASK))
        # the largest exponent still fits
        assert (p * PhasePolynomial.monomial(2, 1, x=EXP_MASK - h)).coefficient(x=EXP_MASK) == 1

    def test_overflow_check_sees_through_loose_bounds(self):
        # x^100 cancels and leaves no term of the sum, so a product with it
        # may lift x past 100 without raising
        big = PhasePolynomial.monomial(2, 1, x=100)
        p = big - big + PhasePolynomial.monomial(2, 1, x=1)
        assert (p * PhasePolynomial.monomial(2, 3, x=30)).coefficient(x=31) == 3
        assert p.times_monomial(2, x=40).coefficient(x=41) == 2

    def test_part_overflow_never_carries(self):
        # three exponent fields of EXP_MASK + EXP_MASK + 2 sum to
        # 2 (EXP_MASK + 1), which would carry out of the x field into y with
        # the guard bit clear
        p = PhasePolynomial.monomial(2, 1, x=EXP_MASK)
        for finish in (_sum, _t_integral):
            with pytest.raises(OverflowError):
                finish(2, [(1, {"x": 2}, p, p, None, 0)])

    def test_t_overflow_reads_the_whole_orbit(self):
        # the first key of an orbit at t = EXP_MASK may have cancelled while
        # its image has not, or the two may cancel in the orbit sum; either
        # way a nonzero term of the sum integrates past the t field
        one = PhasePolynomial.one(2)
        xt, yt = (PhasePolynomial.monomial(2, 1, t=EXP_MASK, **{c: 1}) for c in "xy")
        for signs in ((1, -1, 1), (1, 0, -1)):
            parts = [(s, {}, one, p, None, 0) for s, p in zip(signs, (xt, xt, yt)) if s]
            with pytest.raises(OverflowError):
                _t_integral(2, parts)
        # a term at t = EXP_MASK that cancels, with nothing left in its
        # orbit, integrates to nothing
        parts = [(1, {}, one, xt, None, 0), (-1, {}, one, xt, None, 0)]
        assert _t_integral(2, parts) == PhasePolynomial.zero(2)

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


def naive_rotate(a, d):
    """x -> y -> z with px -> py -> pz: the exponent of x moves to y."""
    return {
        e[d - 1 : d] + e[: d - 1] + e[2 * d - 1 : 2 * d] + e[d : 2 * d - 1] + e[2 * d :]: c
        for e, c in a.items()
    }


def naive_orbit(a, d):
    """The sum of ``a`` and its images under the d - 1 nontrivial rotations."""
    out, image = a, a
    for _ in range(d - 1):
        image = naive_rotate(image, d)
        out = naive_add(out, image)
    return out


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
        assert p.is_invariant() == (naive_rotate(a, dims) == a)
        assert PhasePolynomial(dims, naive_orbit(a, dims)).is_invariant()
        assert_matches(integrate_t(p), naive_integrate(naive_orbit(a, dims), names.index("t")))


@st.composite
def naive_parts(draw):
    dims = draw(st.integers(min_value=1, max_value=3))
    nvars = len(variable_names(dims))
    exp_tuples = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(nvars)))
    coeff = st.builds(
        Fraction,
        st.integers(min_value=-12, max_value=12),
        st.sampled_from([1, 2, 3, 5, 6, 8]),
    ).filter(bool)
    terms = st.dictionaries(exp_tuples, coeff, max_size=5)
    parts = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        parts.append((
            draw(coeff), draw(exp_tuples), draw(terms), draw(terms),
            draw(st.integers(0, nvars - 1)), draw(st.integers(0, 2)),
        ))
    if draw(st.booleans()):
        # the negated first part, so that the sum cancels terms
        parts.append((-parts[0][0], *parts[0][1:]))
    return dims, parts, draw(st.integers(0, 3))


class TestSumAgainstNaiveReference:
    @settings(max_examples=150, deadline=None)
    @given(naive_parts())
    def test_sum_of_parts(self, case):
        # c * x^mono * F * d^order A / d var^order, summed over two or three
        # parts, against the same sum in {exponent tuple: Fraction} dicts
        dims, parts, i_power = case
        names = variable_names(dims)
        ref, args = {}, []
        for c, mono, f, a, var, order in parts:
            derived = a
            for _ in range(order):
                derived = naive_diff(derived, var)
            ref = naive_add(ref, naive_times_monomial(naive_mul(f, derived), c, mono))
            args.append((
                c, dict(zip(names, mono)), PhasePolynomial(dims, f), PhasePolynomial(dims, a),
                names[var], order,
            ))
        got = _sum(dims, args, i_power)
        assert_matches(got, ref)
        assert got.i_power == i_power


@st.composite
def parts_at_field_top(draw):
    """Parts whose exponents lie near EXP_MASK / 2 and EXP_MASK on at most
    two fields of each monomial, and are 0 or 1 on the others, so that sums
    of two or three of them fall on either side of the field's top."""
    dims = draw(st.integers(min_value=1, max_value=3))
    nvars = len(variable_names(dims))
    half = EXP_MASK // 2
    exponent = st.one_of(
        st.integers(0, 2), st.integers(half - 2, half + 2), st.integers(EXP_MASK - 3, EXP_MASK)
    )

    def tuples():
        base = st.tuples(*(st.integers(0, 1) for _ in range(nvars)))
        top = st.dictionaries(st.integers(0, nvars - 1), exponent, max_size=2)
        return st.builds(lambda b, f: tuple(f.get(i, e) for i, e in enumerate(b)), base, top)

    coeff = st.builds(
        Fraction, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 3])
    ).filter(bool)
    terms = st.dictionaries(tuples(), coeff, min_size=1, max_size=3)
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        parts.append((
            draw(coeff), draw(tuples()), draw(terms), draw(terms),
            draw(st.integers(0, nvars - 1)), draw(st.integers(0, 2)),
        ))
    if draw(st.booleans()):
        # the negated first part: its product terms all cancel
        parts.append((-parts[0][0], *parts[0][1:]))
    return dims, parts


class TestOverflowAtFieldTop:
    """``OverflowError`` comes exactly when some key of F * x^mono, or some
    product term of the sum before cancellation, has an exponent above
    EXP_MASK, and for the t-integral also when a nonzero term of the sum
    sits at t = EXP_MASK; otherwise the result is the naive reference."""

    @settings(max_examples=200, deadline=None)
    @given(parts_at_field_top())
    def test_sum_and_t_integral(self, case):
        dims, parts = case
        names = variable_names(dims)
        t = names.index("t")
        ref, args, over = {}, [], False
        for c, mono, f, a, var, order in parts:
            derived = a
            for _ in range(order):
                derived = naive_diff(derived, var)
            fm = naive_times_monomial(f, 1, mono)
            # every product term counts, whether or not it cancels
            over |= any(e > EXP_MASK for k in fm for e in k)
            over |= any(x + y > EXP_MASK for k in fm for j in derived for x, y in zip(k, j))
            ref = naive_add(ref, naive_times_monomial(naive_mul(f, derived), c, mono))
            args.append((
                c, dict(zip(names, mono)), PhasePolynomial(dims, f), PhasePolynomial(dims, a),
                names[var], order,
            ))
        if over:
            with pytest.raises(OverflowError):
                _sum(dims, args)
            with pytest.raises(OverflowError):
                _t_integral(dims, args)
            return
        assert_matches(_sum(dims, args), ref)
        if any(k[t] == EXP_MASK for k in ref):
            with pytest.raises(OverflowError):
                _t_integral(dims, args)
        else:
            assert_matches(_t_integral(dims, args), naive_integrate(naive_orbit(ref, dims), t))

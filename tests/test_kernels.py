"""The symbolic expansion hierarchy against its exact anchors."""

import hashlib
from fractions import Fraction

import pytest

from ymqm.errors import DomainError
from ymqm.kernels import (
    Potential,
    conventional_kernels,
    potential,
    recursion_step,
    resummed_kernels,
    unresum,
)
from ymqm.polynomial import EXP_MASK, PhasePolynomial, variable_names
from ymqm.reduction import (
    extract_coefficients,
    harmonic_partition_exact,
    integrate_momenta,
)
from ymqm.special import double_factorial


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


def _planar(*terms):
    """The sum of planar monomials with coefficient 1, one per exponent dict."""
    out = PhasePolynomial.zero(2)
    for exponents in terms:
        out = out + PhasePolynomial.monomial(2, 1, **exponents)
    return out


class TestRecursionOverflow:
    """An exponent that would leave its packed field raises from inside the
    recursion as it does from the polynomial operators; an exponent that a
    cancellation removed from a source does not.  Every source is invariant
    under the swap of the axes, as the recursion requires."""

    @pytest.mark.parametrize(
        "terms",
        [({"x": EXP_MASK}, {"y": EXP_MASK}), ({"t": EXP_MASK - 1},)],
        ids=["product", "t_integration"],
    )
    def test_overflow_raises(self, terms):
        # x^EXP_MASK times the x-derivative of the quartic leaves the x field;
        # t^(EXP_MASK-1) times the t of the drift term integrates past the t field
        S1 = _planar(*terms)
        with pytest.raises(OverflowError):
            recursion_step([PhasePolynomial.one(2), S1], 2, potential(2))

    def test_largest_exponent_still_builds(self):
        # d_y V = g2 x^2 y + v2 y lifts x by two, to the field's top EXP_MASK
        S1 = _planar({"x": EXP_MASK - 2}, {"y": EXP_MASK - 2})
        S2 = recursion_step([PhasePolynomial.one(2), S1], 2, potential(2))
        assert S2.coefficient(x=EXP_MASK, y=1, py=1, t=2, g2=1) == Fraction(-1, 2)

    def test_loose_bound_is_rechecked(self):
        # big - big leaves no term at x^EXP_MASK, so the recursion over the
        # source is the recursion over xy alone
        big = _planar({"x": EXP_MASK}, {"y": EXP_MASK})
        xy = _planar({"x": 1}, {"y": 1})
        loose = big - big + xy
        pot = potential(2)
        assert recursion_step([loose, loose], 2, pot) == recursion_step([xy, xy], 2, pot)


def _model_V(dims, quartic=True, higgs=True):
    """g^2/2 sum_{i<j} x_i^2 x_j^2 + v^2/2 sum_i x_i^2, term by term."""
    coords = ("x", "y", "z")[:dims]
    V = PhasePolynomial.zero(dims)
    for i, c in enumerate(coords):
        if higgs:
            V = V + PhasePolynomial.monomial(dims, Fraction(1, 2), v2=1, **{c: 2})
        for other in coords[i + 1 :]:
            if quartic:
                V = V + PhasePolynomial.monomial(dims, Fraction(1, 2), g2=1, **{c: 2, other: 2})
    return V


def _integrate_t(p):
    """The integral of ``p`` in t from 0, term by term."""
    it = variable_names(p.dims).index("t")
    return PhasePolynomial(
        p.dims, {e[:it] + (e[it] + 1,) + e[it + 1 :]: c / (e[it] + 1) for e, c in p.terms()}
    )


def _rotated(p):
    """The image of ``p`` under x -> y -> z with px -> py -> pz, from its
    exponent tuples."""
    d = p.dims
    return PhasePolynomial(
        d,
        {e[d - 1 : d] + e[: d - 1] + e[2 * d - 1 : 2 * d] + e[d : 2 * d - 1] + e[2 * d :]: c
         for e, c in p.terms()},
        p.i_power,
    )


def _plain_resummed_kernels(V, order):
    """S_0 .. S_order by the recursion of the ``kernels`` module docstring,
    every term summed over all the axes with plain ``PhasePolynomial``
    operations (no rotation), with i_power 0 throughout."""
    d = V.dims
    coords, momenta = ("x", "y", "z")[:d], ("px", "py", "pz")[:d]
    zero, one = PhasePolynomial.zero(d), PhasePolynomial.one(d)
    grads = [V.diff(c) for c in coords]
    lap = zero
    for c in coords:
        lap = lap + V.diff(c).diff(c)
    grad_laps = [lap.diff(c) for c in coords]
    lap_lap = zero
    for c in coords:
        lap_lap = lap_lap + lap.diff(c).diff(c)
    S = [one]
    for k in range(1, order + 1):
        s1, s2, s3, s4, s6 = (S[k - j] if k >= j else zero for j in (1, 2, 3, 4, 6))
        rhs = zero
        for c, p, gv, gl in zip(coords, momenta, grads, grad_laps):
            drift = s1.diff(c) - (gv * s1).times_monomial(1, t=1)
            rhs = rhs + drift.times_monomial(1, **{p: 1})
            rhs = rhs - (s2.diff(c).diff(c) + (gv * gv * s2).times_monomial(1, t=2)).scaled(
                Fraction(1, 2)
            )
            rhs = rhs + (gv * s2.diff(c)).times_monomial(1, t=1)
            rhs = rhs + (gl * s3).times_monomial(Fraction(1, 4), t=2, **{p: 1})
            rhs = rhs + (gv * gl * s4).times_monomial(Fraction(1, 4), t=3)
            rhs = rhs - (gl * s4.diff(c)).times_monomial(Fraction(1, 4), t=2)
            rhs = rhs - (gl * gl * s6).times_monomial(Fraction(1, 32), t=4)
        rhs = rhs - (lap_lap * s4).times_monomial(Fraction(1, 8), t=2)
        S.append(_integrate_t(rhs))
    return S


class TestRotationInvariance:
    """The recursion sums the terms of one axis and adds their images under
    the rotation of the axes, which needs the potential and every source
    invariant."""

    @pytest.mark.parametrize(
        "dims, quartic, higgs",
        [(1, False, True), (2, True, False), (2, True, True), (3, True, True)],
        ids=["d1_harmonic", "d2_quartic", "d2_quartic_higgs", "d3_quartic_higgs"],
    )
    def test_kernels_equal_their_images(self, dims, quartic, higgs):
        for k, S in enumerate(resummed_kernels(potential(dims, quartic=quartic, higgs=higgs), 8)):
            assert _rotated(S) == S, k

    @pytest.mark.parametrize("dims", [2, 3])
    def test_kernels_match_the_recursion_over_all_axes(self, dims):
        S = resummed_kernels(potential(dims), 6)
        ref = _plain_resummed_kernels(_model_V(dims), 6)
        for k in range(7):
            assert PhasePolynomial(dims, dict(S[k].terms())) == ref[k], k

    def test_potential_must_be_invariant(self):
        with pytest.raises(DomainError):
            Potential(2, PhasePolynomial.monomial(2, 1, x=4), "x^4")
        # invariant under the swap of x and y, not under x -> y -> z
        with pytest.raises(DomainError):
            Potential(3, PhasePolynomial.monomial(3, 1, x=2, y=2), "x^2 y^2")

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 6])
    def test_source_must_be_invariant(self, j):
        # x + 2y has invariant field maxima, so only an exact check refuses
        # it; x + y is invariant under the swap of x and y, not under x -> y -> z
        pot = potential(2)
        prev = [PhasePolynomial.one(2)] * 6
        prev[6 - j] = _planar({"x": 1}, {"y": 1}, {"y": 1})
        with pytest.raises(DomainError):
            recursion_step(prev, 6, pot)
        prev3 = [PhasePolynomial.one(3)] * 6
        prev3[6 - j] = PhasePolynomial.monomial(3, 1, x=1) + PhasePolynomial.monomial(3, 1, y=1)
        with pytest.raises(DomainError):
            recursion_step(prev3, 6, potential(3))

    def test_own_kernels_are_not_rescanned(self, monkeypatch):
        # every S_k is a sum over orbits, invariant by construction: a step
        # checks an earlier kernel without a pass over its terms, while S_0,
        # made elsewhere, is scanned
        class Terms(dict):
            scanned = False

            def items(self):
                self.scanned = True
                return super().items()

        scanned = []
        check = PhasePolynomial.is_invariant

        def spy(self):
            terms = self._d
            self._d = Terms(terms)
            try:
                return check(self)
            finally:
                if self._d.scanned:
                    scanned.append(self)
                self._d = terms

        monkeypatch.setattr(PhasePolynomial, "is_invariant", spy)
        S = resummed_kernels(potential(3), 8)
        assert any(p is S[0] for p in scanned)
        assert not any(p is s for p in scanned for s in S[1:])


class TestOrderEightSnapshot:
    """The exact order-8 kernels, pinned by the sha256 of their canonical
    ``dump_text`` so that any change to the polynomial arithmetic or to the
    recursion that alters a single coefficient is caught.  A test id names
    the model, so a re-pinned digest keeps the id."""

    @pytest.mark.parametrize(
        "dims, quartic, higgs, digest",
        [
            (1, False, True, "e1878dfb81245b4d91b10cfec7550b7bb6a3a557c2980e683170dd852238a0e7"),
            (2, True, False, "851d0738530ea0e5cebfcd7428276acd6a8e0ec84b1e08b04252f3542393fa71"),
            (2, True, True, "088a9114bf572ed988cfac5e1099f8fd007f5d7cbba8bca965f10c61035a38fb"),
            (3, True, True, "15dafc98e5ebddb0e791808a5fe3a09b583e7f4f64a9cf64a0035dffcf1e3171"),
        ],
        ids=["d1_harmonic", "d2_quartic", "d2_quartic_higgs", "d3_quartic_higgs"],
    )
    def test_dump_text_digest(self, dims, quartic, higgs, digest):
        S = resummed_kernels(potential(dims, quartic=quartic, higgs=higgs), 8)
        text = S[8].dump_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestKirkwoodOracle:
    """The conventional kernels against the un-resummed Kirkwood recursion,
    which shares nothing with the resummed S recursion (the test writes out
    the potential and its derivatives itself): in the (-i)^k convention,
    with W_0 = 1 and W_k(t=0) = 0 for k >= 1,

        dW_k/dt = p.(grad - t gradV) W_{k-1}
                  - 1/2 (Lap - 2t gradV.grad - t LapV + t^2 (gradV)^2) W_{k-2}.

    The L-dependent terms of the S recursion (orders k-3, k-4 and k-6) enter
    W only through this equation, and the harmonic model cannot see them."""

    @pytest.mark.parametrize(
        "dims, quartic, higgs",
        [(2, True, False), (2, True, True), (3, True, True), (2, False, True)],
        ids=["d2_quartic", "d2_quartic_higgs", "d3_quartic_higgs", "d2_harmonic"],
    )
    def test_conventional_kernels_solve_kirkwood(self, dims, quartic, higgs):
        pot = potential(dims, quartic=quartic, higgs=higgs)
        W = [PhasePolynomial(dims, dict(w.terms())) for w in conventional_kernels(pot, 8)]
        coords, momenta = ("x", "y", "z")[:dims], ("px", "py", "pz")[:dims]
        zero = PhasePolynomial.zero(dims)
        V = _model_V(dims, quartic=quartic, higgs=higgs)
        grads = [V.diff(c) for c in coords]
        lap = grad_sq = zero
        for c, grad in zip(coords, grads):
            lap = lap + grad.diff(c)
            grad_sq = grad_sq + grad * grad
        it = variable_names(dims).index("t")
        for k in range(1, 9):
            assert all(exps[it] > 0 for exps, _ in W[k].terms()), k
            rhs = zero
            for c, p, grad in zip(coords, momenta, grads):
                drift = W[k - 1].diff(c) - (grad * W[k - 1]).times_monomial(1, t=1)
                rhs = rhs + drift.times_monomial(1, **{p: 1})
            if k >= 2:
                w2 = W[k - 2]
                op = (lap * w2).times_monomial(-1, t=1)
                op = op + (grad_sq * w2).times_monomial(1, t=2)
                for c, grad in zip(coords, grads):
                    op = op + w2.diff(c).diff(c) - (grad * w2.diff(c)).times_monomial(2, t=1)
                rhs = rhs - op.scaled(Fraction(1, 2))
            assert W[k].diff("t") == rhs, k


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

    def test_three_coordinate_order_eight_against_per_term_reduction(self):
        # the packed-key reduction against the Gaussian momentum integral
        # written out term by term in Fractions
        pot = potential(3, quartic=True, higgs=True)
        S = resummed_kernels(pot, 8)
        W = unresum(S, 8, pot)
        for kernel in (S[8], W[8]):
            ref = {}
            for exps, c in kernel.terms():
                x, p, (e_t, e_g2, e_v2) = exps[:3], exps[3:6], exps[6:]
                if any(e % 2 for e in p):
                    continue
                coeff = c  # i^8 = 1
                for e in p:
                    coeff *= double_factorial(e - 1)
                key = (tuple(sorted((e // 2 for e in x), reverse=True)),
                       e_t - sum(p) // 2, e_g2, e_v2)
                ref[key] = ref.get(key, 0) + coeff
            ref = {key: c for key, c in ref.items() if c}
            got = {(e.moments, e.e_t, e.e_g2, e.e_v2): e.coeff
                   for e in integrate_momenta(kernel).entries}
            assert len(got) == len(ref) > 100
            assert got == ref

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

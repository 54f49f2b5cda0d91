"""Sparse exact-rational polynomials over phase-space variables.

A :class:`PhasePolynomial` lives over the variables

    ``x, y[, z], px, py[, pz], t, g2, v2``

for 1, 2 or 3 coordinate dimensions, where ``g2`` and ``v2`` track the
symbolic couplings g^2 and v^2 as per-term exponents.  All coefficients are
exact rationals; no floating point enters until a polynomial is evaluated.

A polynomial is stored as one positive integer denominator and a dict
mapping a packed exponent key to an integer numerator.  Each variable takes
an 8-bit field of the key: 7 bits of exponent (0 to 127) under a guard bit,
so a monomial product is a single integer addition, and an exponent that
outgrows its field sets the guard bit instead of carrying into the next
field.  The form is canonical: no numerator is zero, and the denominator
shares no factor with all the numerators at once, so equal polynomials have
equal dicts and denominators (zero is ``{}`` over 1).  Each operation works
in integers and normalizes once, with a single ``math.gcd`` over its result.

Each polynomial also carries the packed maxima of its exponent fields, an
upper bound that products and sums propagate without looking at the terms.
A product or an integration checks it once per operation and raises
``OverflowError`` when an exponent could leave its field; only when the
bound trips are the exact maxima recomputed from the terms.  Every
operation builds a new dict and none is mutated after construction, so
polynomials may share them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

_FIELD_BITS = 8
#: largest exponent a field holds; the exponent of variable ``name`` in a
#: packed key is ``(key >> field_shift(dims, name)) & EXP_MASK``
EXP_MASK = (1 << (_FIELD_BITS - 1)) - 1

_NAMES = {
    1: ("x", "px", "t", "g2", "v2"),
    2: ("x", "y", "px", "py", "t", "g2", "v2"),
    3: ("x", "y", "z", "px", "py", "pz", "t", "g2", "v2"),
}

#: the guard bit of every field of the widest key
_GUARDS = sum(
    (EXP_MASK + 1) << (_FIELD_BITS * i) for i in range(len(_NAMES[3]))
)


def variable_names(dims):
    return _NAMES[dims]


def field_shift(dims, name):
    """Bit offset of the field of variable ``name`` in a packed key."""
    return _FIELD_BITS * _NAMES[dims].index(name)


def _pack(exps):
    key = 0
    for i, e in enumerate(exps):
        if e < 0 or e > EXP_MASK:
            raise OverflowError(f"exponent {e} outside packed-field range")
        key |= e << (_FIELD_BITS * i)
    return key


def _unpack(key, nfields):
    return tuple((key >> (_FIELD_BITS * i)) & EXP_MASK for i in range(nfields))


def _key(dims, exponents):
    """Packed key of the monomial given by keyword exponents."""
    names = _NAMES[dims]
    exps = [0] * len(names)
    for name, e in exponents.items():
        exps[names.index(name)] = e
    return _pack(exps)


def _max_fields(a, b):
    """Field-by-field maximum of two packed keys.  A field of ``(a | guards)
    - b`` keeps its guard bit exactly where a's exponent is at least b's, and
    no field borrows from its neighbour."""
    ge = ((a | _GUARDS) - b) & _GUARDS
    take_a = ge - (ge >> (_FIELD_BITS - 1))
    return (a & take_a) | (b & ~take_a)


def _top_of(A):
    """Exact packed field maxima of the keys of ``A``."""
    return reduce(_max_fields, A, 0)


def _canon(A, den):
    """``(A, den)`` divided by the gcd of the denominator and all numerators."""
    g = gcd(den, *A.values())
    if g == 1:
        return A, den
    return {k: n // g for k, n in A.items()}, den // g


def _add(A, dA, B, dB):
    if dA == dB:
        den, fa, fb = dA, 1, 1
    else:
        den = lcm(dA, dB)
        fa, fb = den // dA, den // dB
    if len(A) < len(B):
        A, B, fa, fb = B, A, fb, fa
    out = dict(A) if fa == 1 else {k: n * fa for k, n in A.items()}
    get = out.get
    for k, n in B.items():
        s = get(k, 0) + n * fb
        if s:
            out[k] = s
        else:
            del out[k]
    return _canon(out, den)


def _mul(A, B, den):
    if len(A) > len(B):
        A, B = B, A
    out = {}
    get = out.get
    for k1, n1 in A.items():
        for k2, n2 in B.items():
            k = k1 + k2
            out[k] = get(k, 0) + n1 * n2
    if 0 in out.values():
        out = {k: n for k, n in out.items() if n}
    return _canon(out, den)


def _mul_mono(A, den, key, c):
    """``A / den`` times the single monomial ``c * x^key``."""
    if not c:
        return {}, 1
    num = c.numerator
    if key:
        out = {k + key: n * num for k, n in A.items()}
    elif num != 1:
        # key 0 keeps the key objects: ``k + 0`` would allocate a new int
        # for every multi-digit key
        out = {k: n * num for k, n in A.items()}
    else:
        out = A
    if c.denominator == 1 and num in (1, -1):
        return out, den
    return _canon(out, den * c.denominator)


def _diff(A, den, shift):
    """Differentiate with respect to the variable whose field starts at ``shift``."""
    unit = 1 << shift
    out = {}
    for k, n in A.items():
        e = (k >> shift) & EXP_MASK
        if e:
            out[k - unit] = n * e
    return _canon(out, den)


def _integrate_unit(A, den, shift):
    """Integrate in the variable at ``shift`` from 0 (constant of integration 0)."""
    unit = 1 << shift
    divisors = {((k >> shift) & EXP_MASK) + 1 for k in A}
    m = lcm(*divisors)
    factor = {e: m // e for e in divisors}
    out = {k + unit: n * factor[((k >> shift) & EXP_MASK) + 1] for k, n in A.items()}
    return _canon(out, den * m)


def _t_integral(dims, parts, i_power=0):
    """The integral in t from 0 of a sum of parts, each a tuple
    ``(c, mono, F, A, var, order)`` standing for

        c * x^mono * F * d^order A / d var^order

    with ``c`` rational, ``mono`` the keyword exponents of a monomial, ``F``
    and ``A`` polynomials (their i-powers are ignored), and ``order`` 0, 1
    or 2 (``var`` is unused at order 0).

    The parts are summed into one integer dict over one common denominator,
    and each derivative is taken term by term while its part is summed.  The
    integration and the normalization are folded into one final pass, which
    builds the only dict made after the sum.  Each part's packed field
    maxima are checked before it is summed, and the exact maxima are
    recomputed only when the bound trips, as a product would; the sum is
    checked once more for the integration."""
    summands = []
    den = 1
    top = 0
    for c, mono, F, A, var, order in parts:
        if not (A._d and F._d):
            continue
        c = Fraction(c)
        key = _key(dims, mono)
        shift = field_shift(dims, var) if order else 0
        part_top = A._top + F._top + key
        if part_top & _GUARDS:
            part_top = _derived_top(A._d, shift, order) + _top_of(F._d) + key
            if part_top & _GUARDS:
                raise OverflowError("product exponent outside packed-field range")
        top = _max_fields(top, part_top)
        part_den = c.denominator * F._den * A._den
        den = lcm(den, part_den)
        summands.append((A._d, shift, order, c.numerator, part_den, F._d, key - (order << shift)))
    out = {}
    get = out.get
    for A, shift, order, num, part_den, F_d, key in summands:
        factor = [(fk + key, fn * num * (den // part_den)) for fk, fn in F_d.items()]
        for k, n in A.items():
            if order:
                e = (k >> shift) & EXP_MASK
                if e < order:
                    continue
                n *= e if order == 1 else e * (e - 1)
            for fk, fn in factor:
                kk = k + fk
                out[kk] = get(kk, 0) + n * fn
    shift = field_shift(dims, "t")
    unit = 1 << shift
    if (top + unit) & _GUARDS:
        top = _top_of(k for k, n in out.items() if n)
        if (top + unit) & _GUARDS:
            raise OverflowError("integrated exponent outside packed-field range")
    divisors = {((k >> shift) & EXP_MASK) + 1 for k in out}
    m = lcm(*divisors)
    scale = {e: m // e for e in divisors}
    den *= m
    # the gcd of the integrated numerators first, so that the final dict is
    # the only one built after the sum
    g = reduce(gcd, (n * scale[((k >> shift) & EXP_MASK) + 1] for k, n in out.items()), den)
    d = {k + unit: n * scale[((k >> shift) & EXP_MASK) + 1] // g for k, n in out.items() if n}
    return PhasePolynomial._make(dims, i_power, d, den // g, top + unit)


def _derived_top(A, shift, order):
    """Exact packed field maxima of the keys of the ``order``-th derivative
    of ``A`` in the variable at ``shift``."""
    drop = order << shift
    return _top_of(k - drop for k in A if ((k >> shift) & EXP_MASK) >= order)


class PhasePolynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``i_power`` records an overall factor of i**i_power carried by the
    polynomial (the expansion kernels at order k carry i**k uniformly);
    arithmetic composes it additively.
    """

    __slots__ = ("dims", "i_power", "_d", "_den", "_top")

    def __init__(self, dims, terms=None, i_power=0):
        if dims not in (1, 2, 3):
            raise ValueError("dims must be 1, 2 or 3")
        coeffs = {}
        kept = []
        for exps, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                coeffs[_pack(exps)] = c
                kept.append(exps)
        # with every coefficient in lowest terms, the lcm of their
        # denominators is already coprime to the scaled numerators
        den = lcm(*(c.denominator for c in coeffs.values()))
        d = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
        self._set(dims, i_power, d, den, _pack([max(col) for col in zip(*kept)]))

    def _set(self, dims, i_power, d, den, top):
        self.dims = dims
        self.i_power = i_power
        self._d = d
        self._den = den
        self._top = top

    @classmethod
    def _make(cls, dims, i_power, d, den, top):
        """A polynomial from canonical ``(d, den)`` and field maxima ``top``."""
        p = cls.__new__(cls)
        p._set(dims, i_power, d, den, top)
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dims):
        return cls(dims)

    @classmethod
    def one(cls, dims):
        return cls(dims, {(0,) * len(_NAMES[dims]): 1})

    @classmethod
    def monomial(cls, dims, coeff, **exponents):
        """Build ``coeff * prod(var**exp)`` from keyword exponents, e.g.
        ``PhasePolynomial.monomial(2, Fraction(1, 2), x=2, y=2, g2=1)``."""
        key = _key(dims, exponents)
        c = Fraction(coeff)
        if not c:
            return cls.zero(dims)
        return cls._make(dims, 0, {key: c.numerator}, c.denominator, key)

    # -- inspection --------------------------------------------------------

    @property
    def n_terms(self):
        return len(self._d)

    @property
    def denominator(self):
        """The common positive denominator of all coefficients."""
        return self._den

    def packed_numerators(self):
        """``{packed key: integer numerator}``, shared and not to be modified;
        the coefficient of a term is its numerator over :attr:`denominator`
        (see :data:`EXP_MASK` for the key layout)."""
        return self._d

    def is_zero(self):
        return not self._d

    def terms(self):
        """Iterate ``(exponent_tuple, Fraction)`` pairs (unspecified order)."""
        nf = len(_NAMES[self.dims])
        den = self._den
        for k, n in self._d.items():
            yield _unpack(k, nf), Fraction(n, den)

    def coefficient(self, **exponents):
        return Fraction(self._d.get(_key(self.dims, exponents), 0), self._den)

    def momentum_parity(self):
        """0 or 1 if every term has that total momentum-degree parity, else None."""
        shifts = [_FIELD_BITS * i for i in range(self.dims, 2 * self.dims)]
        parities = {sum(k >> sh for sh in shifts) & 1 for k in self._d}
        if len(parities) > 1:
            return None
        return parities.pop() if parities else None

    # -- arithmetic --------------------------------------------------------

    def _like(self, canon, top, i_power=None):
        d, den = canon
        return PhasePolynomial._make(
            self.dims, self.i_power if i_power is None else i_power, d, den, top
        )

    def _top_times(self, top, other=None):
        """Field maxima of a product with a factor whose maxima are ``top``
        (``other``'s, if given).  The stored maxima may be loose bounds, so
        they are recomputed from the terms before an overflow is reported."""
        out = self._top + top
        if out & _GUARDS:
            self._top = _top_of(self._d)
            if other is not None:
                other._top = top = _top_of(other._d)
            out = self._top + top
            if out & _GUARDS:
                raise OverflowError("product exponent outside packed-field range")
        return out

    def __add__(self, other):
        self._check(other)
        return self._like(
            _add(self._d, self._den, other._d, other._den),
            _max_fields(self._top, other._top),
        )

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __mul__(self, other):
        if isinstance(other, PhasePolynomial):
            self._check(other, match_i=False)
            top = self._top_times(other._top, other)
            return self._like(
                _mul(self._d, other._d, self._den * other._den),
                top,
                i_power=self.i_power + other.i_power,
            )
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, coeff):
        return self._like(_mul_mono(self._d, self._den, 0, Fraction(coeff)), self._top)

    def times_monomial(self, coeff, **exponents):
        key = _key(self.dims, exponents)
        top = self._top_times(key)
        return self._like(_mul_mono(self._d, self._den, key, Fraction(coeff)), top)

    def diff(self, name):
        return self._like(_diff(self._d, self._den, field_shift(self.dims, name)), self._top)

    def integrate_t(self):
        """Integrate in t from 0, dropping the integration constant."""
        shift = field_shift(self.dims, "t")
        top = self._top_times(1 << shift)
        return self._like(_integrate_unit(self._d, self._den, shift), top)

    def with_i_power(self, i_power):
        return self._like((self._d, self._den), self._top, i_power=i_power)

    def _check(self, other, match_i=True):
        if self.dims != other.dims:
            raise ValueError("dimension mismatch")
        if match_i and self.i_power != other.i_power:
            raise ValueError("cannot add kernels with different i-powers")

    def __eq__(self, other):
        return (
            isinstance(other, PhasePolynomial)
            and self.dims == other.dims
            and self.i_power == other.i_power
            and self._den == other._den
            and self._d == other._d
        )

    def __hash__(self):
        return hash((self.dims, self.i_power, self._den, frozenset(self._d.items())))

    # -- evaluation & output ------------------------------------------------

    def dump_text(self):
        """Canonical plain-text form for regression snapshots: one term per
        line, exponent tuple then p/q coefficient, sorted by exponents."""
        names = _NAMES[self.dims]
        lines = [f"# vars: {' '.join(names)}  i_power: {self.i_power}"]
        for exps, c in sorted(self.terms()):
            lines.append(" ".join(map(str, exps)) + f"  {c.numerator}/{c.denominator}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (
            f"PhasePolynomial(dims={self.dims}, terms={self.n_terms}, "
            f"i_power={self.i_power})"
        )

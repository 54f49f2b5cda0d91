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
equal dicts and denominators (zero is ``{}`` over 1).

Every operation is one pass of one integer accumulator, :func:`_accumulate`,
which sums parts ``c * x^m * F * d^j A`` over one common denominator and
takes each derivative while it sums: a sum, a difference, a product, a
scaling, a monomial factor and a derivative are each one call of
:func:`_sum`, which normalizes the result with a single ``math.gcd``, and a
kernel of the recursion is one call of :func:`_t_integral`, which adds the
images of the sum under the rotation of the axes and integrates in t in its
final pass.  The rotation, x -> y -> z with px -> py -> pz together (the
swap in the plane), moves whole fields of a key, so it is three masks and
two shifts of the packed integer (:func:`_rotations`).

The guard bits are the only overflow check.  The accumulator checks the
keys of each part's factor ``F * x^mono`` before it sums the part; then a
key of the sum adds a field of at most ``EXP_MASK`` to one of A's, which is
at most ``EXP_MASK`` less the derivative order, so no field passes 254 or
carries, and an exponent above ``EXP_MASK`` sets its field's guard bit.
:func:`_sum` reads the guard bits of every key it wrote, and
:func:`_t_integral` those of the first key of each orbit, and both raise
``OverflowError`` on any product term that leaves its field, whether or not
it cancels.  Every operation builds a new dict and none is mutated after
construction, so polynomials may share them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_

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


def _rotations(dims):
    """Masks and shifts of the ``dims - 1`` nontrivial rotations of the axes
    on packed keys, the r-th as ``(up, lift, down, drop)``.  The r-th rotation
    moves the exponent of each coordinate, and of its momentum with it, r
    axes on, cyclically: of the fields of a block of ``dims`` coordinate or
    momentum fields, ``up`` holds those that rise ``lift`` bits and ``down``
    those that wrap round, ``drop`` bits down.  The fields of t, g2 and v2
    (the mask ``_STAY``) stay."""
    field = (1 << _FIELD_BITS) - 1
    out = []
    for r in range(1, dims):
        up = down = 0
        for i in range(dims):
            mask = field << (_FIELD_BITS * i) | field << (_FIELD_BITS * (dims + i))
            if i < dims - r:
                up |= mask
            else:
                down |= mask
        out.append((up, _FIELD_BITS * r, down, _FIELD_BITS * (dims - r)))
    return tuple(out)


#: per dims, the mask of every bit above the momentum fields, which no
#: rotation of the axes moves
_STAY = {dims: -1 << (2 * dims * _FIELD_BITS) for dims in _NAMES}
_ROTATIONS = {dims: _rotations(dims) for dims in _NAMES}


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


def _accumulate(dims, parts):
    """Sum parts, each a tuple ``(c, mono, F, A, var, order)`` standing for

        c * x^mono * F * d^order A / d var^order

    with ``c`` rational, ``mono`` the keyword exponents of a monomial, ``F``
    and ``A`` polynomials (their i-powers are ignored), and ``order`` 0, 1
    or 2 (``var`` is unused at order 0).

    The parts are summed into one integer dict over one common denominator,
    and each derivative is taken term by term while its part is summed.
    Returns ``(numerators, denominator)``; the numerators may hold zeros and
    share a factor with the denominator, and a key may hold an exponent above
    ``EXP_MASK`` in a set guard bit, which the caller checks.  The guard bits
    of each part's keys of ``F * x^mono`` are checked before it is summed, so
    that no field of a key of the sum carries."""
    summands = []
    den = 1
    for c, mono, F, A, var, order in parts:
        c = Fraction(c)
        if not (c and A._d and F._d):
            continue
        key = _key(dims, mono)
        shift = field_shift(dims, var) if order else 0
        if reduce(or_, (fk + key for fk in F._d), 0) & _GUARDS:
            raise OverflowError("product exponent outside packed-field range")
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
    return out, den


def _sum(dims, parts, i_power=0):
    """The sum of :func:`_accumulate`'s parts as a polynomial carrying
    ``i**i_power``.  Normalizing builds at most one dict after the sum; the
    guard bits of every key written, cancelled or not, are read in one pass."""
    out, den = _accumulate(dims, parts)
    if reduce(or_, out, 0) & _GUARDS:
        raise OverflowError("product exponent outside packed-field range")
    g = gcd(den, *out.values())
    if g != 1 or 0 in out.values():
        out = {k: n // g for k, n in out.items() if n}
    return PhasePolynomial._make(dims, i_power, out, den // g)


def _t_integral(dims, parts, i_power=0):
    """The integral in t from 0 of the sum of :func:`_accumulate`'s parts
    and of its ``dims - 1`` images under the rotation of the axes
    (:func:`_rotations`).  That total is invariant: on each orbit of keys under
    the rotation it takes one value, the sum of the parts' sum over the
    orbit.  The final pass meets each orbit once, at its first key in the
    sum, and writes that value, integrated in t, to every key of the orbit;
    no image of the whole sum is built.

    The pass reads the guard bits of the first key of each orbit: the
    rotation moves whole fields and leaves t alone, so every key of an orbit
    has a guard bit set if its first key has, and the same t.  It raises on
    a key with a set guard bit, cancelled or not, and on a key at t =
    ``EXP_MASK`` with a nonzero numerator or orbit sum, whose integral would
    leave the t field."""
    out, den = _accumulate(dims, parts)
    shift = field_shift(dims, "t")
    unit = 1 << shift
    stay, rotations = _STAY[dims], _ROTATIONS[dims]
    divisors = {((k >> shift) & EXP_MASK) + 1 for k in out}
    m = lcm(*divisors)
    scale = {e: m // e for e in divisors}
    total = {}
    get = out.get
    for k, n in out.items():
        if k in total:
            continue
        orbit = [k & stay | (k & up) << a | (k & down) >> b for up, a, down, b in rotations]
        if (k + unit) & _GUARDS and (k & _GUARDS or n or any(map(get, orbit))):
            what = "product" if k & _GUARDS else "integrated"
            raise OverflowError(f"{what} exponent outside packed-field range")
        for image in orbit:
            n += get(image, 0)
        if n:
            n *= scale[((k >> shift) & EXP_MASK) + 1]
            total[k] = n
            for image in orbit:
                total[image] = n
    den *= m
    g = gcd(den, *total.values())
    d = {k + unit: n // g for k, n in total.items()}
    return PhasePolynomial._make(dims, i_power, d, den // g, invariant=True)


class PhasePolynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``i_power`` records an overall factor of i**i_power carried by the
    polynomial (the expansion kernels at order k carry i**k uniformly);
    arithmetic composes it additively.
    """

    __slots__ = ("dims", "i_power", "_d", "_den", "_invariant")

    def __init__(self, dims, terms=None, i_power=0):
        if dims not in (1, 2, 3):
            raise ValueError("dims must be 1, 2 or 3")
        coeffs = {}
        for exps, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                coeffs[_pack(exps)] = c
        # with every coefficient in lowest terms, the lcm of their
        # denominators is already coprime to the scaled numerators
        den = lcm(*(c.denominator for c in coeffs.values()))
        d = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
        self._set(dims, i_power, d, den)

    def _set(self, dims, i_power, d, den, invariant=False):
        self.dims = dims
        self.i_power = i_power
        self._d = d
        self._den = den
        self._invariant = invariant

    @classmethod
    def _make(cls, dims, i_power, d, den, invariant=False):
        """A polynomial from canonical ``(d, den)``; ``invariant`` records
        that it is invariant by construction."""
        p = cls.__new__(cls)
        p._set(dims, i_power, d, den, invariant)
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
        return cls._make(dims, 0, {key: c.numerator}, c.denominator)

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

    def terms(self):
        """Iterate ``(exponent_tuple, Fraction)`` pairs (unspecified order)."""
        nf = len(_NAMES[self.dims])
        den = self._den
        for k, n in self._d.items():
            yield _unpack(k, nf), Fraction(n, den)

    def coefficient(self, **exponents):
        """Test oracle: the exact coefficient of one monomial."""
        return Fraction(self._d.get(_key(self.dims, exponents), 0), self._den)

    def is_invariant(self):
        """Whether the polynomial equals its image under the rotation of the
        axes, as the kernel recursion needs its potential and sources to.
        A result of :func:`_t_integral` is invariant by construction and
        answers at once.  Any other polynomial is scanned: one pass looks up
        the rotated key of each term, stops at the first whose numerator
        differs and builds no image; the check is exact, since the rotation
        maps the keys one to one."""
        if self._invariant or self.dims == 1:
            return True
        stay, (up, lift, down, drop) = _STAY[self.dims], _ROTATIONS[self.dims][0]
        get = self._d.get
        for k, n in self._d.items():
            if get(k & stay | (k & up) << lift | (k & down) >> drop) != n:
                return False
        return True

    def momentum_parity(self):
        """0 or 1 if every term has that total momentum-degree parity, else None."""
        shifts = [_FIELD_BITS * i for i in range(self.dims, 2 * self.dims)]
        parities = {sum(k >> sh for sh in shifts) & 1 for k in self._d}
        if len(parities) > 1:
            return None
        return parities.pop() if parities else None

    # -- arithmetic --------------------------------------------------------
    # each operation is one pass of the accumulator: a tuple
    # (c, monomial, F, A, variable, order) is one part of :func:`_accumulate`

    def __add__(self, other):
        """Sum; the benchmark's traced rounds span it (``perfbench/spans.py``)."""
        return self._plus(1, other)

    def __sub__(self, other):
        return self._plus(-1, other)

    def _plus(self, sign, other):
        self._check(other)
        one = _ONE[self.dims]
        parts = [(1, {}, one, self, None, 0), (sign, {}, one, other, None, 0)]
        return _sum(self.dims, parts, self.i_power)

    def __mul__(self, other):
        """Product, or scaling by a number; spanned like :meth:`__add__`."""
        if not isinstance(other, PhasePolynomial):
            return self.scaled(other)
        self._check(other, match_i=False)
        # the smaller polynomial is the factor that each term of the larger meets
        small, large = (self, other) if len(self._d) <= len(other._d) else (other, self)
        return _sum(self.dims, [(1, {}, small, large, None, 0)], self.i_power + other.i_power)

    __rmul__ = __mul__

    def scaled(self, coeff):
        return self.times_monomial(coeff)

    def times_monomial(self, coeff, **exponents):
        return _sum(self.dims, [(coeff, exponents, _ONE[self.dims], self, None, 0)], self.i_power)

    def diff(self, name):
        """Derivative in the variable ``name``; spanned like :meth:`__add__`."""
        return _sum(self.dims, [(1, {}, _ONE[self.dims], self, name, 1)], self.i_power)

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
        """Test oracle: the canonical text the snapshot tests hash, one term
        per line, exponent tuple then p/q coefficient, sorted by exponents."""
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


#: the polynomial 1 in each dimension, the factor of a part with none
_ONE = {dims: PhasePolynomial.one(dims) for dims in _NAMES}

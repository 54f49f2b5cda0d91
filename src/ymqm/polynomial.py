"""Sparse exact-rational polynomials over phase-space variables.

A :class:`PhasePolynomial` lives over the variables

    ``x, y[, z], px, py[, pz], t, g2, v2``

for 1, 2 or 3 coordinate dimensions, where ``g2`` and ``v2`` track the
symbolic couplings g^2 and v^2 as per-term exponents.  All coefficients are
exact rationals; no floating point enters until a polynomial is evaluated.

Terms are stored in a dict mapping a packed exponent key (7 bits per
variable, so monomial products reduce to a single integer addition) to an
exact rational coefficient held as a normalized ``(numerator, denominator)``
pair with a positive denominator.  Every operation builds a new dict and none
is mutated after construction, so polynomials may share them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_FIELD_BITS = 7
_FIELD_MASK = (1 << _FIELD_BITS) - 1

_NAMES = {
    1: ("x", "px", "t", "g2", "v2"),
    2: ("x", "y", "px", "py", "t", "g2", "v2"),
    3: ("x", "y", "z", "px", "py", "pz", "t", "g2", "v2"),
}


def variable_names(dims):
    return _NAMES[dims]


def _shift(dims, name):
    return _FIELD_BITS * _NAMES[dims].index(name)


def _pack(exps):
    key = 0
    for i, e in enumerate(exps):
        if e < 0 or e > _FIELD_MASK:
            raise OverflowError(f"exponent {e} outside packed-field range")
        key |= e << (_FIELD_BITS * i)
    return key


def _unpack(key, nfields):
    return tuple((key >> (_FIELD_BITS * i)) & _FIELD_MASK for i in range(nfields))


def _key(dims, exponents):
    """Packed key of the monomial given by keyword exponents."""
    names = _NAMES[dims]
    exps = [0] * len(names)
    for name, e in exponents.items():
        exps[names.index(name)] = e
    return _pack(exps)


def _norm(num, den):
    if num == 0:
        return (0, 1)
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


def _add(A, B):
    out = dict(A)
    for k, c in B.items():
        prev = out.get(k)
        if prev is None:
            out[k] = c
        else:
            s = _norm(prev[0] * c[1] + c[0] * prev[1], prev[1] * c[1])
            if s[0]:
                out[k] = s
            else:
                del out[k]
    return out


def _mul(A, B):
    if len(A) > len(B):
        A, B = B, A
    out = {}
    for k1, (n1, d1) in A.items():
        for k2, (n2, d2) in B.items():
            k = k1 + k2
            c = _norm(n1 * n2, d1 * d2)
            prev = out.get(k)
            if prev is None:
                out[k] = c
            else:
                s = _norm(prev[0] * c[1] + c[0] * prev[1], prev[1] * c[1])
                if s[0]:
                    out[k] = s
                else:
                    del out[k]
    return out


def _scale(A, num, den):
    """``_mul_mono`` with key 0, kept apart because it reuses the key objects:
    ``k + 0`` would allocate a new int for every multi-digit key."""
    if num == 0:
        return {}
    cn, cd = _norm(num, den)
    return {k: _norm(n * cn, d * cd) for k, (n, d) in A.items()}


def _mul_mono(A, key, num, den):
    """Multiply by a single monomial ``(num/den) * x^key``."""
    if num == 0:
        return {}
    cn, cd = _norm(num, den)
    return {k + key: _norm(n * cn, d * cd) for k, (n, d) in A.items()}


def _diff(A, shift):
    """Differentiate with respect to the variable whose field starts at ``shift``."""
    out = {}
    unit = 1 << shift
    for k, (n, d) in A.items():
        e = (k >> shift) & _FIELD_MASK
        if e:
            out[k - unit] = _norm(n * e, d)
    return out


def _integrate_unit(A, shift):
    """Integrate in the variable at ``shift`` from 0 (constant of integration 0)."""
    out = {}
    unit = 1 << shift
    for k, (n, d) in A.items():
        e = ((k >> shift) & _FIELD_MASK) + 1
        if e > _FIELD_MASK:
            raise OverflowError("integration exceeds packed-field range")
        out[k + unit] = _norm(n, d * e)
    return out


class PhasePolynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``i_power`` records an overall factor of i**i_power carried by the
    polynomial (the expansion kernels at order k carry i**k uniformly);
    arithmetic composes it additively.
    """

    __slots__ = ("dims", "i_power", "_d")

    def __init__(self, dims, terms=None, i_power=0, _raw=None):
        if dims not in (1, 2, 3):
            raise ValueError("dims must be 1, 2 or 3")
        self.dims = dims
        self.i_power = i_power
        if _raw is not None:
            self._d = _raw
        else:
            d = {}
            for exps, coeff in (terms or {}).items():
                c = Fraction(coeff)
                if c:
                    d[_pack(exps)] = (c.numerator, c.denominator)
            self._d = d

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dims):
        return cls(dims, _raw={})

    @classmethod
    def one(cls, dims):
        return cls(dims, _raw={0: (1, 1)})

    @classmethod
    def monomial(cls, dims, coeff, **exponents):
        """Build ``coeff * prod(var**exp)`` from keyword exponents, e.g.
        ``PhasePolynomial.monomial(2, Fraction(1, 2), x=2, y=2, g2=1)``."""
        key = _key(dims, exponents)
        c = Fraction(coeff)
        if not c:
            return cls.zero(dims)
        return cls(dims, _raw={key: (c.numerator, c.denominator)})

    # -- inspection --------------------------------------------------------

    @property
    def n_terms(self):
        return len(self._d)

    def is_zero(self):
        return not self._d

    def terms(self):
        """Iterate ``(exponent_tuple, Fraction)`` pairs (unspecified order)."""
        nf = len(_NAMES[self.dims])
        for k, (n, d) in self._d.items():
            yield _unpack(k, nf), Fraction(n, d)

    def coefficient(self, **exponents):
        n, d = self._d.get(_key(self.dims, exponents), (0, 1))
        return Fraction(n, d)

    def momentum_parity(self):
        """0 or 1 if every term has that total momentum-degree parity, else None."""
        par = None
        for exps, _ in self.terms():
            p = sum(exps[self.dims : 2 * self.dims]) % 2
            if par is None:
                par = p
            elif par != p:
                return None
        return par

    def max_exponent(self, name):
        sh = _shift(self.dims, name)
        return max(((k >> sh) & _FIELD_MASK for k in self._d), default=0)

    # -- arithmetic --------------------------------------------------------

    def _like(self, raw, i_power=None):
        return PhasePolynomial(
            self.dims, _raw=raw, i_power=self.i_power if i_power is None else i_power
        )

    def __add__(self, other):
        self._check(other)
        return self._like(_add(self._d, other._d))

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __mul__(self, other):
        if isinstance(other, PhasePolynomial):
            self._check(other, match_i=False)
            return PhasePolynomial(
                self.dims,
                _raw=_mul(self._d, other._d),
                i_power=self.i_power + other.i_power,
            )
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, coeff):
        c = Fraction(coeff)
        return self._like(_scale(self._d, c.numerator, c.denominator))

    def times_monomial(self, coeff, **exponents):
        c = Fraction(coeff)
        key = _key(self.dims, exponents)
        return self._like(_mul_mono(self._d, key, c.numerator, c.denominator))

    def diff(self, name):
        return self._like(_diff(self._d, _shift(self.dims, name)))

    def integrate_t(self):
        """Integrate in t from 0, dropping the integration constant."""
        return self._like(_integrate_unit(self._d, _shift(self.dims, "t")))

    def with_i_power(self, i_power):
        return self._like(self._d, i_power=i_power)

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
            and self._d == other._d
        )

    def __hash__(self):
        return hash((self.dims, self.i_power, frozenset(self._d.items())))

    # -- evaluation & output ------------------------------------------------

    def eval_coordinates(self, coords, t, g2, v2):
        """Evaluate numerically assuming all momentum exponents are zero."""
        names = _NAMES[self.dims]
        total = 0.0
        for exps, c in self.terms():
            if any(exps[self.dims : 2 * self.dims]):
                raise ValueError("polynomial still contains momentum factors")
            term = float(c)
            for i in range(self.dims):
                if exps[i]:
                    term *= coords[i] ** exps[i]
            it, ig, iv = (names.index(n) for n in ("t", "g2", "v2"))
            term *= t ** exps[it] * g2 ** exps[ig] * v2 ** exps[iv]
            total += term
        return total

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

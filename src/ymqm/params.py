"""Physical configuration of the oscillator models.

Units: energies are measured in a reference energy E, fixing the dimensions

    [H] = 1, [t] = -1, [x] = [y] = 1/4, [g] = 0, [v] = 1/4, [hbar] = 3/4,

so the partition function depends on the couplings only through the
dimensionless combinations ``lam2 = g^2 hbar^4 t^3`` and
``z = t v^4 / (2 g^2)``.

One :class:`ModelParams` also stands for a grid of parameter points
(:meth:`ModelParams.grid`): its couplings are then equal-length float
arrays, and every derived quantity is an array with one value per point,
equal bit for bit to the value at that point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernels import potential
from .polynomial import PhasePolynomial
from .special import all_points, power, sqrt

#: validity thresholds for the asymptotic (small-parameter) formulas;
#: one decade of margin against the leading neglected term
LAM2_REGIME_MAX = 0.1
Z_REGIME_MAX = 0.1
#: the three-coordinate small-lam regime is lam below this, strictly
LAM_REGIME_MAX = 1.0


@lru_cache(maxsize=None)
def _laplacian_coefficients(n_model):
    """(c_v, c_g) of LapV = c_v v^2 + c_g g^2 |x|^2, from the model's Potential.lap."""
    lap, mono = potential(n_model).lap, PhasePolynomial.monomial
    c_v, c_g = lap.coefficient(v2=1), lap.coefficient(g2=1, x=2)
    terms = [mono(n_model, c_g, g2=1, **{x: 2}) for x in "xyz"[:n_model]]
    if lap != sum(terms, mono(n_model, c_v, v2=1)):
        raise DomainError(f"LapV of the n_model = {n_model} model has other terms")
    return float(c_v), float(c_g)


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the quartic-oscillator model with a harmonic (Higgs) term.

    ``n_model`` selects the two- or three-coordinate model; ``v`` is the
    strength of the harmonic term and may be zero, ``g`` the quartic
    coupling.  Over a grid (:meth:`grid`) the four couplings are arrays and
    each check holds at every point.
    """

    g: float
    v: float
    hbar: float
    t: float
    n_model: int = 2

    def __post_init__(self):
        if self.n_model not in (2, 3):
            raise DomainError("n_model must be 2 or 3")
        if not (all_points(self.hbar > 0) and all_points(self.t > 0)):
            raise DomainError("hbar and t must be positive")
        if not (all_points(self.g >= 0) and all_points(self.v >= 0)):
            raise DomainError("g and v must be non-negative")

    @classmethod
    def grid(cls, points):
        """The points of ``points``, parameters of one model, as one
        :class:`ModelParams` whose couplings are float arrays."""
        (n_model,) = {p.n_model for p in points}
        columns = zip(*((p.g, p.v, p.hbar, p.t) for p in points))
        return cls(*(np.array(c, dtype=float) for c in columns), n_model=n_model)

    def point(self, i):
        """Point ``i`` of a grid as a :class:`ModelParams` of numbers; a
        :class:`ModelParams` of numbers is its own only point."""
        if not isinstance(self.g, np.ndarray):
            return self
        return replace(
            self, g=float(self.g[i]), v=float(self.v[i]), hbar=float(self.hbar[i]),
            t=float(self.t[i]),
        )

    # -- derived dimensionless quantities (never stored) --------------------

    @property
    def lam2(self):
        """Expansion parameter g^2 hbar^4 t^3 of the asymptotic series."""
        return power(self.g, 2) * power(self.hbar, 4) * power(self.t, 3)

    @property
    def lam(self):
        """Unsquared g t^(3/2) hbar^2 used by the three-dimensional model."""
        return self.g * power(self.hbar, 2) * power(self.t, 1.5)

    @property
    def z(self):
        """Higgs-strength parameter t v^4 / (2 g^2)."""
        g2 = power(self.g, 2)
        if not all_points(g2 > 0):
            raise DomainError("z undefined at g = 0, or where g^2 underflows to 0")
        return self.t * power(self.v, 4) / (2.0 * g2)

    def regulator(self):
        """``(veff2, log_c)`` of the resummed regulator exp(-hbar^2 t^2 L/4)
        of the model, with L = LapV = c_v v^2 + c_g g^2 |x|^2 (planar
        c_v, c_g = 2, 1; three-coordinate 3, 2): it lifts v^2 in the weight
        exp(-t v^2 |x|^2/2) by veff2 = c_g hbar^2 g^2 t/2, times the constant
        exp(log_c), log_c = -c_v hbar^2 t^2 v^2/4."""
        c_v, c_g = _laplacian_coefficients(self.n_model)
        h2 = power(self.hbar, 2)
        veff2 = 0.5 * c_g * h2 * power(self.g, 2) * self.t
        return veff2, -0.25 * c_v * h2 * power(self.t, 2) * power(self.v, 2)

    @property
    def veff2(self):
        """The effective harmonic strength of :meth:`regulator`."""
        return self.regulator()[0]

    def _prefactor_lam2(self):
        """lam2 for a prefactor, which diverges where it is 0."""
        if not all_points(self.g > 0):
            raise DomainError("prefactor requires g > 0")
        lam2 = self.lam2
        if not all_points(lam2 > 0):
            raise DomainError("lam2 = g^2 hbar^4 t^3 underflows to 0: the prefactor is infinite")
        return lam2

    def prefactor_K(self):
        """(2 pi g^2 hbar^4 t^3)^(-1/2), the two-dimensional leading prefactor."""
        return 1.0 / sqrt(2.0 * math.pi * self._prefactor_lam2())

    def prefactor_L(self):
        """Three-dimensional leading prefactor Gamma(1/4)^3/2 * (2 pi^2 g^2 hbar^4 t^3)^(-3/4)."""
        lam2 = self._prefactor_lam2()
        return 0.5 * math.gamma(0.25) ** 3 * power(2.0 * math.pi**2 * lam2, -0.75)

    # -- regime checks -------------------------------------------------------

    def lam2_in_regime(self):
        return self.lam2 <= LAM2_REGIME_MAX

    def lam_in_regime(self):
        return self.lam < LAM_REGIME_MAX

    def z_in_regime(self):
        return self.z <= Z_REGIME_MAX

    # -- unit covariance ------------------------------------------------------

    def rescaled(self, s):
        """Parameters expressed in units of s*E: (t, v, hbar) pick up the
        powers (-1, 1/4, 3/4) of s; every dimensionless output must be
        invariant under this map (test oracle of acceptance 6)."""
        return replace(
            self,
            t=self.t / s,
            v=self.v * s**0.25,
            hbar=self.hbar * s**0.75,
        )

    def with_veff(self):
        """Parameters with the harmonic strength replaced by the effective
        one, v^2 -> :attr:`veff2` (zero bare v); a test oracle."""
        return replace(self, v=sqrt(self.veff2))

"""Physical configuration of the oscillator models.

Units: energies are measured in a reference energy E, fixing the dimensions

    [H] = 1, [t] = -1, [x] = [y] = 1/4, [g] = 0, [v] = 1/4, [hbar] = 3/4,

so the partition function depends on the couplings only through the
dimensionless combinations ``lam2 = g^2 hbar^4 t^3`` and
``z = t v^4 / (2 g^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError

#: validity thresholds for the asymptotic (small-parameter) formulas;
#: one decade of margin against the leading neglected term
LAM2_REGIME_MAX = 0.1
Z_REGIME_MAX = 0.1


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the quartic-oscillator model with a harmonic (Higgs) term.

    ``n_model`` selects the two- or three-coordinate model; ``v`` is the
    strength of the harmonic term and may be zero, ``g`` the quartic
    coupling.
    """

    g: float
    v: float
    hbar: float
    t: float
    n_model: int = 2

    def __post_init__(self):
        if self.n_model not in (2, 3):
            raise DomainError("n_model must be 2 or 3")
        if self.hbar <= 0 or self.t <= 0:
            raise DomainError("hbar and t must be positive")
        if self.g < 0 or self.v < 0:
            raise DomainError("g and v must be non-negative")

    # -- derived dimensionless quantities (never stored) --------------------

    @property
    def lam2(self):
        """Expansion parameter g^2 hbar^4 t^3 of the asymptotic series."""
        return self.g**2 * self.hbar**4 * self.t**3

    @property
    def lam(self):
        """Unsquared g t^(3/2) hbar^2 used by the three-dimensional model."""
        return self.g * self.hbar**2 * self.t**1.5

    @property
    def z(self):
        """Higgs-strength parameter t v^4 / (2 g^2)."""
        if self.g == 0:
            raise DomainError("z undefined at g = 0")
        return self.t * self.v**4 / (2.0 * self.g**2)

    @property
    def veff2(self):
        """Effective harmonic strength hbar^2 g^2 t / 2 generated by the
        resummed channel fluctuations."""
        return 0.5 * self.hbar**2 * self.g**2 * self.t

    def prefactor_K(self):
        """(2 pi g^2 hbar^4 t^3)^(-1/2), the two-dimensional leading prefactor."""
        if self.g <= 0:
            raise DomainError("prefactor requires g > 0")
        return 1.0 / math.sqrt(2.0 * math.pi * self.lam2)

    def prefactor_L(self):
        """Three-dimensional leading prefactor Gamma(1/4)^3/2 * (2 pi^2 g^2 hbar^4 t^3)^(-3/4)."""
        if self.g <= 0:
            raise DomainError("prefactor requires g > 0")
        return 0.5 * math.gamma(0.25) ** 3 * (2.0 * math.pi**2 * self.lam2) ** -0.75

    # -- regime checks -------------------------------------------------------

    def lam2_in_regime(self):
        return self.lam2 <= LAM2_REGIME_MAX

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
        one, v^2 -> hbar^2 g^2 t / 2 (zero bare v); a test oracle."""
        return replace(self, v=math.sqrt(self.veff2))

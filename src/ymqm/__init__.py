"""Partition sums of the coupled quartic (Yang-Mills) oscillators with a
harmonic (Higgs) term: closed forms, the semiclassical expansion with its
channel-fluctuation resummation, and brute-force quadrature plus spectral
oracles for cross-validation."""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    ConvergenceError,
    DivergentIntegralError,
    DomainError,
    RegimeWarning,
)
from .params import ModelParams
from .polynomial import PhasePolynomial

# The benchmark worker (``perfbench/worker.py``) imports it into its run
# records, which name the polynomial arithmetic they measured.
POLY_BACKEND = "pure-python"

__all__ = [
    "AccuracyError",
    "ConvergenceError",
    "DivergentIntegralError",
    "DomainError",
    "ModelParams",
    "PhasePolynomial",
    "POLY_BACKEND",
    "RegimeWarning",
    "__version__",
]

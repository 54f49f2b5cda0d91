import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymqm import params as params_module
from ymqm.errors import DomainError
from ymqm.kernels import Potential, potential
from ymqm.params import ModelParams
from ymqm.polynomial import PhasePolynomial


class TestValidation:
    def test_model_selector(self):
        with pytest.raises(DomainError):
            ModelParams(g=1, v=1, hbar=1, t=1, n_model=4)

    def test_positivity(self):
        with pytest.raises(DomainError):
            ModelParams(g=1, v=1, hbar=0, t=1)
        with pytest.raises(DomainError):
            ModelParams(g=1, v=1, hbar=1, t=-1)
        with pytest.raises(DomainError):
            ModelParams(g=-1, v=1, hbar=1, t=1)

    def test_zero_couplings_allowed(self):
        ModelParams(g=0, v=1, hbar=1, t=1)
        ModelParams(g=1, v=0, hbar=1, t=1)


class TestDerived:
    def test_lam2_and_lam(self):
        p = ModelParams(g=2.0, v=0.0, hbar=0.5, t=2.0)
        assert p.lam2 == pytest.approx(4 * 0.5**4 * 8)
        assert p.lam == pytest.approx(math.sqrt(p.lam2))

    def test_z(self):
        p = ModelParams(g=2.0, v=1.5, hbar=1.0, t=0.8)
        assert p.z == pytest.approx(0.8 * 1.5**4 / 8.0)
        with pytest.raises(DomainError):
            _ = ModelParams(g=0.0, v=1.0, hbar=1.0, t=1.0).z

    def test_effective_strength(self):
        # exp(-hbar^2 t^2 LapV/4) lifts v^2 by c_g hbar^2 g^2 t/2, where c_g
        # is 1 in the plane and 2 in three coordinates
        for n_model, c_g in ((2, 1), (3, 2)):
            p = ModelParams(g=2.0, v=0.0, hbar=0.5, t=2.0, n_model=n_model)
            assert p.veff2 == pytest.approx(c_g * 0.5 * 0.25 * 4 * 2)
            assert p.with_veff().v == pytest.approx(math.sqrt(p.veff2))
            points = [p, replace(p, g=0.3, t=0.7)]
            assert ModelParams.grid(points).veff2.tolist() == [q.veff2 for q in points]

    @pytest.mark.parametrize("n_model,c_v,c_g", [(2, 2, 1), (3, 3, 2)])
    def test_regulator_reads_the_laplacian(self, n_model, c_v, c_g):
        # LapV = c_v v^2 + c_g g^2 |x|^2 and nothing else
        mono = PhasePolynomial.monomial
        lap = mono(n_model, c_v, v2=1)
        for x in "xyz"[:n_model]:
            lap = lap + mono(n_model, c_g, g2=1, **{x: 2})
        assert potential(n_model).lap == lap
        p = ModelParams(g=0.7, v=1.3, hbar=0.9, t=0.6, n_model=n_model)
        veff2, log_c = p.regulator()
        assert veff2 == pytest.approx(c_g * 0.9**2 * 0.7**2 * 0.6 / 2, rel=1e-14)
        assert log_c == pytest.approx(-c_v * 0.9**2 * 0.6**2 * 1.3**2 / 4, rel=1e-14)

    def test_regulator_refuses_other_laplacian_terms(self, monkeypatch):
        # the planar model plus x^4 + y^4: LapV gains 12 (x^2 + y^2)
        mono = PhasePolynomial.monomial
        V = mono(2, 0.5, g2=1, x=2, y=2) + mono(2, 0.5, v2=1, x=2) + mono(2, 0.5, v2=1, y=2)
        V = V + mono(2, 1, x=4) + mono(2, 1, y=4)
        monkeypatch.setattr(params_module, "potential", lambda dims: Potential(dims, V, "test"))
        params_module._laplacian_coefficients.cache_clear()
        try:
            with pytest.raises(DomainError):
                ModelParams(g=1.0, v=1.0, hbar=1.0, t=1.0).regulator()
        finally:
            params_module._laplacian_coefficients.cache_clear()

    def test_regime_flags(self):
        assert ModelParams(g=0.1, v=0.1, hbar=1, t=1).lam2_in_regime()
        assert not ModelParams(g=1.0, v=0.0, hbar=1, t=1).lam2_in_regime()

    def test_three_coordinate_regime_is_strict(self):
        # lam = g hbar^2 t^(3/2) is 1 exactly at g = hbar = t = 1
        assert not ModelParams(g=1.0, v=0.0, hbar=1, t=1, n_model=3).lam_in_regime()
        assert ModelParams(g=0.99, v=0.0, hbar=1, t=1, n_model=3).lam_in_regime()
        grid = ModelParams.grid([ModelParams(g=g, v=0.0, hbar=1, t=1) for g in (0.5, 1.0, 2.0)])
        assert grid.lam_in_regime().tolist() == [True, False, False]


class TestRescaling:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=5),
        st.floats(min_value=0.1, max_value=5),
        st.floats(min_value=0.2, max_value=20),
    )
    def test_dimensionless_combinations_invariant(self, g, v, s):
        p = ModelParams(g=g, v=v, hbar=0.7, t=1.3)
        q = p.rescaled(s)
        assert q.lam2 == pytest.approx(p.lam2, rel=1e-12)
        assert q.z == pytest.approx(p.z, rel=1e-12)
        assert q.prefactor_K() == pytest.approx(p.prefactor_K(), rel=1e-12)
        assert q.prefactor_L() == pytest.approx(p.prefactor_L(), rel=1e-12)


def _random_points(n, seed=19):
    """``n`` points with log-uniform g, v, hbar and t."""
    rng = random.Random(seed)
    ranges = ((-1, 0.7), (-2, 0.5), (-0.5, 0.3), (-2, 0.6))
    return [ModelParams(*(10 ** rng.uniform(lo, hi) for lo, hi in ranges)) for _ in range(n)]


class TestGrid:
    """A grid of points in one ModelParams gives every point the value it
    gets alone, bit for bit (numpy's own power differs from libm's in the
    last place at some of these points)."""

    POINTS = _random_points(300)

    def test_derived_quantities_per_point(self):
        grid = ModelParams.grid(self.POINTS)
        for name in ("lam2", "lam", "z", "veff2"):
            assert getattr(grid, name).tolist() == [getattr(p, name) for p in self.POINTS], name
        for name in ("prefactor_K", "prefactor_L", "lam2_in_regime", "z_in_regime"):
            values = getattr(grid, name)().tolist()
            assert values == [getattr(p, name)() for p in self.POINTS], name
        assert [grid.point(i) for i in range(len(self.POINTS))] == self.POINTS
        assert self.POINTS[0].point(0) is self.POINTS[0]

    def test_checks_hold_at_every_point(self):
        ok = np.ones(3)
        with pytest.raises(DomainError):
            ModelParams(g=np.array([1.0, -1.0, 1.0]), v=ok, hbar=ok, t=ok)
        with pytest.raises(DomainError):
            ModelParams(g=ok, v=ok, hbar=ok, t=np.array([1.0, 1.0, 0.0]))
        with pytest.raises(DomainError):
            ModelParams(g=np.array([1.0, 0.0, 1.0]), v=ok, hbar=ok, t=ok).prefactor_K()

    def test_underflow_named(self):
        # g = 1e-200 is positive, but g^2 and lam2 are 0 in floating point
        p = ModelParams(g=1e-200, v=1.0, hbar=1.0, t=1.0)
        grid = ModelParams.grid([ModelParams(g=1.0, v=1.0, hbar=1.0, t=1.0), p])
        for q in (p, grid):
            for prefactor in (q.prefactor_K, q.prefactor_L):
                with pytest.raises(DomainError, match="lam2 = g\\^2 hbar\\^4 t\\^3 underflows"):
                    prefactor()
            with pytest.raises(DomainError, match="underflows"):
                _ = q.z

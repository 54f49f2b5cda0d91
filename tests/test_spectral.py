import io
import math

import numpy as np
import pytest

from ymqm import spectral
from ymqm.errors import ConvergenceError, DomainError
from ymqm.params import ModelParams
from ymqm.spectral import (
    BasisSpec,
    build_hamiltonian,
    eigenvalues,
    ground_state_expectations,
    leading_log_study,
    load_spectrum,
    partition_from_spectrum,
    save_spectrum,
    trace_maximizing_omega,
    trace_minimizing_omega,
)

HARMONIC = ModelParams(g=0.0, v=1.0, hbar=1.0, t=1.0)
QUARTIC = ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0)


class TestMatrixElements:
    def test_one_dim_x2_diagonal(self):
        from ymqm.spectral import _one_axis_ops

        x2, p2 = _one_axis_ops(6, hbar=2.0, omega=0.5)
        k = np.arange(6)
        assert np.allclose(np.diag(x2), (2.0 / 0.5) * (k + 0.5))
        assert np.allclose(np.diag(p2), (2.0 * 0.5) * (k + 0.5))
        # off-diagonal couples k, k+2 only
        assert x2[0, 2] == pytest.approx(2.0 / (2 * 0.5) * math.sqrt(2.0))
        assert np.count_nonzero(x2 - np.diag(np.diag(x2))) == 8

    def test_hamiltonian_symmetric(self):
        h = build_hamiltonian(QUARTIC, BasisSpec(12, 1.0))
        for _, T, V in h.blocks:
            H = T + V
            assert np.allclose(H, H.T, atol=1e-13)

    def test_swap_symmetry_of_spectrum(self):
        # the blocks with swapped parities carry identical spectra
        h = build_hamiltonian(QUARTIC, BasisSpec(10, 1.0))
        spectra = {}
        for sec, T, V in h.blocks:
            spectra[sec] = np.linalg.eigvalsh(T + V)
        assert np.allclose(spectra[(0, 1)], spectra[(1, 0)], atol=1e-10)

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            build_hamiltonian(
                ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3),
                BasisSpec(48, 1.0),
            )

    def test_blocking_preserves_merged_spectrum(self):
        # independent unblocked assembly of the full product-basis matrix
        from ymqm.spectral import _one_axis_ops

        N = 8
        p = ModelParams(g=1.0, v=0.4, hbar=1.0, t=1.0)
        x2, p2 = _one_axis_ops(N, p.hbar, 1.0)
        eye = np.eye(N)
        H = (
            0.5 * (np.kron(p2, eye) + np.kron(eye, p2))
            + 0.5 * p.g**2 * np.kron(x2, x2)
            + 0.5 * p.v**2 * (np.kron(x2, eye) + np.kron(eye, x2))
        )
        full = np.sort(np.linalg.eigvalsh(H))
        h = build_hamiltonian(p, BasisSpec(N, 1.0))
        merged, _ = h.solve()
        assert np.allclose(merged, full, atol=1e-10)

    def test_single_sector_selection(self):
        p = ModelParams(g=1.0, v=0.4, hbar=1.0, t=1.0)
        h_all = build_hamiltonian(p, BasisSpec(10, 1.0))
        h_one = build_hamiltonian(p, BasisSpec(10, 1.0, symmetry_sector=(0, 0)))
        assert len(h_one.blocks) == 1
        ev_one, _ = h_one.solve()
        ref_block = next(
            (T, V) for sec, T, V in h_all.blocks if sec == (0, 0)
        )
        ev_ref = np.linalg.eigvalsh(ref_block[0] + ref_block[1])
        assert np.allclose(ev_one, np.sort(ev_ref), atol=1e-11)


class TestHarmonicExactness:
    def test_matched_basis_diagonal_spectrum(self):
        h = build_hamiltonian(HARMONIC, BasisSpec(16, 1.0))
        ev, _ = h.solve()
        assert np.allclose(ev[:6], [1, 2, 2, 3, 3, 3], atol=1e-12)

    def test_partition_matches_sinh_form(self):
        h = build_hamiltonian(HARMONIC, BasisSpec(72, 1.0))
        spec = eigenvalues(h, how_many=10, conv_tol=1e-9)
        for hvt in (0.5, 1.0, 1.7, 3.0):
            z, bracket = partition_from_spectrum(spec, hvt, tail_rel_tol=1e-9)
            exact = (2.0 * math.sinh(0.5 * hvt)) ** -2
            assert z == pytest.approx(exact, rel=1e-10)
            assert bracket[0] <= z <= bracket[1]

    def test_large_t_ground_state_dominance(self):
        h = build_hamiltonian(HARMONIC, BasisSpec(24, 1.0))
        spec = eigenvalues(h, how_many=4, conv_tol=1e-9)
        z, _ = partition_from_spectrum(spec, 40.0, tail_rel_tol=1e-12)
        assert z == pytest.approx(math.exp(-40.0 * 1.0), rel=1e-12)

    def test_small_t_raises_regime_error(self):
        h = build_hamiltonian(HARMONIC, BasisSpec(16, 1.0))
        spec = eigenvalues(h, how_many=4, conv_tol=1e-9)
        with pytest.raises(ConvergenceError):
            partition_from_spectrum(spec, 0.01, tail_rel_tol=1e-10)


class TestEigenvalues:
    def test_quartic_ground_state_converged(self):
        om = trace_maximizing_omega(QUARTIC, t_ref=1.0)
        h = build_hamiltonian(QUARTIC, BasisSpec(40, om))
        spec = eigenvalues(h, how_many=4, conv_tol=1e-6)
        # strictly positive discrete ground state; frozen from our own
        # basis-enlargement study
        assert spec.eigenvalues[0] > 0
        assert spec.eigenvalues[0] == pytest.approx(0.554111, abs=2e-5)
        assert spec.count_converged >= 4

    def test_parity_sector_counts(self):
        h = build_hamiltonian(QUARTIC, BasisSpec(12, 1.0))
        ev, sectors = h.solve()
        assert sum(len(w) for _, w, *_ in sectors) == len(ev) == 144

    def test_nonconvergence_error_lists_index(self):
        h = build_hamiltonian(QUARTIC, BasisSpec(16, 0.7))
        with pytest.raises(ConvergenceError) as exc:
            eigenvalues(h, how_many=60, conv_tol=1e-10)
        assert exc.value.first_unconverged is not None

    def test_iterative_sectors_claim_only_computed_levels(self, monkeypatch):
        # every sector above the cap is solved iteratively for its 64 lowest
        # levels, so the merge is complete only below the lowest sector top
        p = ModelParams(g=0.05, v=1.0, hbar=1.0, t=1.0)
        dense = eigenvalues(build_hamiltonian(p, BasisSpec(40, 1.0)), how_many=4)
        monkeypatch.setattr(spectral, "DENSE_BLOCK_CAP", 100)
        capped = eigenvalues(build_hamiltonian(p, BasisSpec(40, 1.0)), how_many=4)
        n = capped.count_converged
        assert 4 <= n <= dense.count_converged
        np.testing.assert_allclose(
            capped.converged(), dense.eigenvalues[:n], rtol=0, atol=dense.conv_tol
        )

    def test_how_many_margin(self):
        h = build_hamiltonian(QUARTIC, BasisSpec(8, 1.0))
        with pytest.raises(DomainError):
            eigenvalues(h, how_many=40, conv_tol=1e-6)

    def test_variational_monotonicity(self):
        om = 0.8
        prev = None
        for N in (12, 20, 28):
            h = build_hamiltonian(QUARTIC, BasisSpec(N, om))
            ev, _ = h.solve()
            if prev is not None:
                assert np.all(ev[: len(prev)] <= prev + 1e-10)
            prev = ev

    def test_higgs_monotonicity(self):
        evs = {}
        for v in (0.0, 0.5, 1.0):
            p = ModelParams(g=1.0, v=v, hbar=1.0, t=1.0)
            h = build_hamiltonian(p, BasisSpec(24, 1.0))
            ev, _ = h.solve()
            evs[v] = ev[:20]
        assert np.all(evs[0.5] > evs[0.0])
        assert np.all(evs[1.0] > evs[0.5])

    def test_virial_balance(self):
        h = build_hamiltonian(QUARTIC, BasisSpec(28, 0.8))
        e0, tkin, vpot = ground_state_expectations(h)
        assert tkin > 0 and vpot > 0
        assert tkin + vpot == pytest.approx(e0, rel=1e-10)

    def test_finite_as_v_vanishes_unlike_expansion(self):
        # the spectral trace stays finite as v -> 0 while the power-divergent
        # expansion structures blow up
        from ymqm import heatkernel as hk

        p_small = ModelParams(g=1.0, v=1e-3, hbar=1.0, t=1.0)
        h = build_hamiltonian(p_small, BasisSpec(32, 0.8))
        ev, _ = h.solve()
        z_small_v = float(np.sum(np.exp(-p_small.t * ev)))
        assert z_small_v < 10.0
        assert abs(hk.zk_most_singular(2, 1, p_small).value) > 1e5 * z_small_v


class TestOmegaChoices:
    def test_trace_min_closed_form(self):
        om = trace_minimizing_omega(QUARTIC, 40)
        # d/dw [a w + b/w^2] = 0 at w = (2b/a)^(1/3)
        a = 0.5 * 2 * 40**3 / 2.0
        b = 0.5 * (40**2 / 2.0) ** 2
        assert om == pytest.approx((2 * b / a) ** (1.0 / 3.0), rel=1e-4)

    def test_trace_max_beats_trace_min_for_partition(self):
        om_max = trace_maximizing_omega(QUARTIC, t_ref=0.4)
        om_min = trace_minimizing_omega(QUARTIC, 36)
        zs = {}
        for om in (om_max, om_min):
            h = build_hamiltonian(QUARTIC, BasisSpec(36, om))
            ev, _ = h.solve()
            zs[om] = np.sum(np.exp(-0.4 * ev))
        assert zs[om_max] >= zs[om_min]

    def test_harmonic_prescan_recovers_matched_scale(self):
        om = trace_maximizing_omega(HARMONIC, t_ref=1.0)
        assert om == pytest.approx(1.0, rel=0.35)


class TestLeadingLogStudy:
    def test_slope_and_flags(self):
        study = leading_log_study(QUARTIC, n_top=44, ladder_steps=3)
        assert study.flags["asymptotic_clear"]
        assert study.flags["truncation_model_ok"]
        assert 0.75 < study.slope < 1.25

    def test_model_guard(self):
        with pytest.raises(DomainError):
            leading_log_study(ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3))


class TestPersistence:
    def test_roundtrip(self):
        h = build_hamiltonian(HARMONIC, BasisSpec(12, 1.0))
        spec = eigenvalues(h, how_many=3, conv_tol=1e-8)
        buf = io.StringIO()
        save_spectrum(spec, buf)
        buf.seek(0)
        loaded = load_spectrum(buf)
        assert np.allclose(loaded.eigenvalues, spec.eigenvalues)
        assert loaded.count_converged == spec.count_converged
        assert loaded.basis.cutoff_per_axis == spec.basis.cutoff_per_axis
        assert loaded.params.g == spec.params.g

    def test_rejects_unknown_format(self):
        with pytest.raises(DomainError):
            load_spectrum(io.StringIO("# format: other\n"))


class TestThreeCoordinate:
    def test_builds_and_solves(self):
        p = ModelParams(g=1.0, v=0.5, hbar=1.0, t=1.0, n_model=3)
        h = build_hamiltonian(p, BasisSpec(8, 1.0))
        ev, sectors = h.solve()
        assert len(sectors) == 8
        assert len(ev) == 512
        assert ev[0] > 0

    def test_harmonic_three_axis_degeneracy(self):
        p = ModelParams(g=0.0, v=1.0, hbar=1.0, t=1.0, n_model=3)
        h = build_hamiltonian(p, BasisSpec(8, 1.0))
        ev, _ = h.solve()
        assert np.allclose(ev[:4], [1.5, 2.5, 2.5, 2.5], atol=1e-12)

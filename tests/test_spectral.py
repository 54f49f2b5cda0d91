import itertools
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
    leading_log_study,
    partition_from_spectrum,
    save_spectrum,
    trace_maximizing_omega,
)

HARMONIC = ModelParams(g=0.0, v=1.0, hbar=1.0, t=1.0)
QUARTIC = ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0)


def _sector_blocks(p, N, omega=1.0):
    """Sparse block omega K + (v^2/omega) X + (g^2/omega^2) Q of every
    parity sector at basis frequency omega, permuted members included,
    assembled from the Kronecker terms of each sector: the reference that
    the solved levels are checked against."""
    x2, p2 = spectral._one_axis_ops(N, p.hbar)
    for sec, *terms in spectral._sector_terms(p.n_model, x2, p2):
        K, X, Q = (spectral._kron_sum([t]) for t in terms)
        yield sec, omega * K + (p.v**2 / omega) * X + (p.g**2 / omega**2) * Q


class TestMatrixElements:
    def test_one_dim_x2_diagonal(self):
        from ymqm.spectral import _one_axis_ops

        # unit frequency; a basis frequency omega scales them by 1/omega and omega
        x2, p2 = _one_axis_ops(6, hbar=2.0)
        k = np.arange(6)
        assert np.allclose(np.diag(x2), 2.0 * (k + 0.5))
        assert np.allclose(np.diag(p2), 2.0 * (k + 0.5))
        # off-diagonal couples k, k+2 only
        assert x2[0, 2] == pytest.approx(2.0 / 2 * math.sqrt(2.0))
        assert p2[0, 2] == pytest.approx(-2.0 / 2 * math.sqrt(2.0))
        assert np.count_nonzero(x2 - np.diag(np.diag(x2))) == 8

    def test_hamiltonian_symmetric(self):
        # each block keeps its parts side by side, M = [K | X | Q]
        h = build_hamiltonian(QUARTIC, BasisSpec(12, 1.0))
        for _, M, _ in h.blocks:
            n = M.shape[0]
            assert M.shape == (n, 3 * n)
            for i in range(3):
                m = M[:, i * n:(i + 1) * n].toarray()
                assert np.allclose(m, m.T, atol=1e-13)

    def test_swap_symmetry_of_spectrum(self):
        # the blocks with swapped parities carry identical spectra
        spectra = {
            sec: np.linalg.eigvalsh(H.toarray()) for sec, H in _sector_blocks(QUARTIC, 10)
        }
        assert np.allclose(spectra[(0, 1)], spectra[(1, 0)], atol=1e-10)

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            build_hamiltonian(
                ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3),
                BasisSpec(48, 1.0),
            )

    def test_blocking_preserves_merged_spectrum(self):
        # independent unblocked assembly of the full product-basis matrix,
        # planar and three-coordinate, at a basis frequency omega != 1,
        # where x^2 scales by hbar/omega and p^2 by hbar omega
        from ymqm.spectral import _one_axis_ops

        om = 0.7
        for d, N, pairs in ((2, 8, [(0, 1)]), (3, 6, [(0, 1), (1, 2), (2, 0)])):
            p = ModelParams(g=1.0, v=0.4, hbar=1.0, t=1.0, n_model=d)
            x2, p2 = _one_axis_ops(N, 1.0)
            x2, p2 = (p.hbar / om) * x2, (p.hbar * om) * p2

            def on(axes):
                out = np.eye(1)
                for i in range(d):
                    out = np.kron(out, axes.get(i, np.eye(N)))
                return out

            H = sum(0.5 * on({i: p2}) + 0.5 * p.v**2 * on({i: x2}) for i in range(d))
            H = H + sum(0.5 * p.g**2 * on({i: x2, j: x2}) for i, j in pairs)
            full = np.sort(np.linalg.eigvalsh(H))
            merged, _ = build_hamiltonian(p, BasisSpec(N, om)).solve()
            assert np.allclose(merged, full, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("N", [9, 10])
    @pytest.mark.parametrize("g, v", [(1.0, 0.4), (0.0, 1.0), (1.0, 0.0)])
    def test_swap_split_matches_whole_block(self, d, N, g, v):
        # the symmetric and antisymmetric halves together carry exactly the
        # levels of the undivided parity block, at the frequency of the
        # build and at two others, each against the block formed there
        p = ModelParams(g=g, v=v, hbar=1.0, t=1.0, n_model=d)
        h = build_hamiltonian(p, BasisSpec(N, 1.0))
        for om in (1.0, 0.6, 1.7):
            _, sectors = h.levels(om)
            assert len(sectors) == 2**d
            blocks = dict(_sector_blocks(p, N, om))
            for sec, w in sectors:
                ref = np.linalg.eigvalsh(blocks[sec].toarray())
                np.testing.assert_allclose(w, ref, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("v", [0.0, 0.4])
    def test_planar_band_solve_matches_dense_block(self, v):
        # every planar piece is solved from its band; together they give the
        # levels of each undivided parity block
        p = ModelParams(g=1.0, v=v, hbar=1.0, t=1.0)
        _, sectors = build_hamiltonian(p, BasisSpec(40, 1.0)).solve()
        blocks = dict(_sector_blocks(p, 40))
        for sec, w in sectors:
            ref = np.linalg.eigvalsh(blocks[sec].toarray())
            np.testing.assert_allclose(w, ref, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("d, calls", [(2, 5), (3, 10)])
    def test_one_solve_per_symmetry_class(self, monkeypatch, d, calls):
        # one solve per piece of each orbit of permuted parity sectors, band
        # or dense: planar (0,0) and (1,1) as swap halves, (0,1) whole; 3-D
        # 001 and 011 as swap halves, 000 and 111 as their A1, A2 and E blocks
        seen = []
        for name in ("eigh", "eigvals_banded"):
            def counting(a, *args, real=getattr(spectral, name), **kwargs):
                seen.append(a.shape)
                return real(a, *args, **kwargs)

            monkeypatch.setattr(spectral, name, counting)
        p = ModelParams(g=1.0, v=0.4, hbar=1.0, t=1.0, n_model=d)
        _, sectors = build_hamiltonian(p, BasisSpec(10, 1.0)).solve()
        assert len(seen) == calls
        assert len(sectors) == 2**d

    @pytest.mark.parametrize("v", [1.0, 0.7, 0.1])
    def test_harmonic_pieces_solve_from_the_diagonal(self, monkeypatch, v):
        # at g = 0 and omega = v every off-diagonal of every planar piece
        # cancels exactly, so each is solved from a one-row band; at
        # v = 0.1, v^2/v is not v in floating point
        shapes = []

        def recording(a, *args, real=spectral.eigvals_banded, **kwargs):
            shapes.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(spectral, "eigvals_banded", recording)
        p = ModelParams(g=0.0, v=v, hbar=1.0, t=1.0)
        ev, _ = build_hamiltonian(p, BasisSpec(24, v)).solve()
        assert len(shapes) == 5
        assert {shape[0] for shape in shapes} == {1}
        assert sum(shape[1] for shape in shapes) == 24**2 - 12**2
        np.testing.assert_allclose(ev[:6], v * np.array([1, 2, 2, 3, 3, 3]), rtol=1e-14)

    @pytest.mark.parametrize("N", [9, 10])
    def test_s3_e_levels_twice_in_the_whole_block(self, N):
        # each level of the E block is a doubly degenerate level of the
        # undivided 000 or 111 block, and each A1 and A2 level a simple one
        p = ModelParams(g=1.0, v=0.4, hbar=1.0, t=1.0, n_model=3)
        for sec, H in _sector_blocks(p, N):
            if len(set(sec)) > 1:
                continue
            whole = np.linalg.eigvalsh(H.toarray())
            a1, a2, e = (
                np.linalg.eigvalsh((B @ H @ B.T).toarray())
                for B in spectral._s3_rows(len(range(sec[0], N, 2)))
            )

            def multiplicity(levels):
                return [int(np.count_nonzero(np.abs(whole - x) < 1e-9)) for x in levels]

            assert multiplicity(e) == [2] * len(e)
            assert multiplicity(np.concatenate([a1, a2])) == [1] * (len(a1) + len(a2))
            assert len(a1) + len(a2) + 2 * len(e) == len(whole)


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
        assert sum(len(w) for _, w in sectors) == len(ev) == 144

    def test_nonconvergence_error_lists_index(self):
        h = build_hamiltonian(QUARTIC, BasisSpec(16, 0.7))
        with pytest.raises(ConvergenceError) as exc:
            eigenvalues(h, how_many=60, conv_tol=1e-10)
        assert exc.value.first_unconverged is not None

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

    def test_finite_as_v_vanishes_unlike_expansion(self):
        # the spectral trace stays finite as v -> 0 while the power-divergent
        # expansion structures blow up
        from ymqm import heatkernel as hk

        p_small = ModelParams(g=1.0, v=1e-3, hbar=1.0, t=1.0)
        h = build_hamiltonian(p_small, BasisSpec(32, 0.8))
        ev, _ = h.solve()
        z_small_v = float(np.sum(np.exp(-p_small.t * ev)))
        assert z_small_v < 10.0
        assert abs(hk.zk_singular(2, 1, p_small)) > 1e5 * z_small_v


class TestOmegaChoices:
    def test_trace_max_beats_trace_min_for_partition(self):
        # the scan's frequency beats its two neighbours on the scan grid and
        # the frequency minimizing the trace of H, a w + b/w^2 for the pure
        # quartic over N levels per axis, at (2b/a)^(1/3), on a larger basis
        N = 36
        om_max = trace_maximizing_omega(QUARTIC, t_ref=0.4)
        grid = list(spectral._omega_grid(QUARTIC))
        i = grid.index(om_max)
        assert 0 < i < len(grid) - 1
        a, b = 0.5 * 2 * N**3 / 2.0, 0.5 * (N**2 / 2.0) ** 2
        zs = []
        for om in (om_max, grid[i - 1], grid[i + 1], (2 * b / a) ** (1.0 / 3.0)):
            ev, _ = build_hamiltonian(QUARTIC, BasisSpec(N, om)).solve()
            zs.append(np.sum(np.exp(-0.4 * ev)))
        assert zs[0] >= max(zs[1:])

    def test_harmonic_prescan_recovers_matched_scale(self):
        om = trace_maximizing_omega(HARMONIC, t_ref=1.0)
        assert om == pytest.approx(1.0, rel=0.35)


# planar with v > 0, planar at v = 0, and 3-D on a smaller scan basis
SCAN_CASES = [
    (ModelParams(g=1.0, v=0.4, hbar=1.0, t=1.0), None),
    (QUARTIC, None),
    (ModelParams(g=1.0, v=0.5, hbar=1.0, t=1.0, n_model=3), 10),
]


class TestOmegaFreeScan:
    @pytest.mark.parametrize("p, cutoff", SCAN_CASES)
    def test_scan_picks_the_per_frequency_choice(self, monkeypatch, p, cutoff):
        # the grid frequency of a loop that assembles and solves every basis
        if cutoff:
            monkeypatch.setattr(spectral, "SCAN_CUTOFF", cutoff)
        for t_ref in (0.4, 1.0, 2.5):
            zs = []
            for om in spectral._omega_grid(p):
                ev, _ = build_hamiltonian(p, BasisSpec(spectral.SCAN_CUTOFF, float(om))).solve()
                zs.append(np.sum(np.exp(-t_ref * ev)))
            best = float(spectral._omega_grid(p)[int(np.argmax(zs))])
            assert trace_maximizing_omega(p, t_ref) == best

    @pytest.mark.parametrize("p, cutoff", SCAN_CASES)
    def test_levels_run_no_sparse_work(self, monkeypatch, p, cutoff):
        # once built, a basis is solved at any frequency without making a
        # sparse matrix, and gives the levels of a fresh build there
        import scipy.sparse

        N = cutoff or spectral.SCAN_CUTOFF
        h = build_hamiltonian(p, BasisSpec(N, 1.0))
        fresh = {om: build_hamiltonian(p, BasisSpec(N, om)).solve() for om in (0.45, 2.2)}

        def no_sparse(*args, **kwargs):
            raise AssertionError("a sparse matrix was made")

        for name in scipy.sparse.__all__:
            cls = getattr(scipy.sparse, name)
            if isinstance(cls, type) and issubclass(cls, (scipy.sparse.spmatrix, scipy.sparse.sparray)):
                monkeypatch.setattr(cls, "__init__", no_sparse)
        with pytest.raises(AssertionError, match="sparse matrix was made"):
            scipy.sparse.csr_matrix((2, 2))
        for om, (merged, sectors) in fresh.items():
            got, got_sectors = h.levels(om)
            np.testing.assert_array_equal(got, merged)
            for (sec, w), (ref_sec, ref) in zip(got_sectors, sectors):
                assert sec == ref_sec
                np.testing.assert_array_equal(w, ref)


class TestLeadingLogStudy:
    def test_slope_and_flags(self):
        study = leading_log_study(QUARTIC, n_top=44)
        assert study.ladder == (20, 28, 36, 44)
        assert study.flags["asymptotic_clear"]
        assert study.flags["truncation_model_ok"]
        assert 0.75 < study.slope < 1.25

    def test_model_guard(self):
        with pytest.raises(DomainError):
            leading_log_study(ModelParams(g=1.0, v=0.0, hbar=1.0, t=1.0, n_model=3))

    def test_ladder_checked_before_the_scan(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the omega scan ran")

        monkeypatch.setattr(spectral, "trace_maximizing_omega", boom)
        assert spectral.study_ladder(60) == (36, 44, 52, 60)
        assert spectral.study_ladder(spectral.MIN_CUTOFF + 24)[0] == spectral.MIN_CUTOFF
        for n_top in (27, spectral.max_cutoff(2) + spectral.ENLARGEMENT + 1):
            with pytest.raises(DomainError, match="study ladder"):
                leading_log_study(QUARTIC, n_top=n_top)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        # the saved header and rows give back the spectrum they were written from
        h = build_hamiltonian(HARMONIC, BasisSpec(12, 1.0))
        spec = eigenvalues(h, how_many=3, conv_tol=1e-8)
        path = tmp_path / "spectrum.txt"
        save_spectrum(spec, path)
        lines = path.read_text().splitlines()
        header = dict(line[2:].split(": ") for line in lines if line.startswith("# "))
        assert header["format"] == "ymqm-spectrum-v1"
        assert header["columns"] == "index eigenvalue converged"
        assert float(header["g"]) == spec.params.g
        assert int(header["cutoff_per_axis"]) == spec.basis.cutoff_per_axis
        assert int(header["count_converged"]) == spec.count_converged
        rows = [line.split() for line in lines if not line.startswith("#")]
        assert [int(r[0]) for r in rows] == list(range(len(spec.eigenvalues)))
        assert [float(r[1]) for r in rows] == list(spec.eigenvalues)
        assert [int(r[2]) for r in rows] == [int(i < spec.count_converged) for i in range(len(rows))]


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

    def test_dense_pieces_bounded_at_the_size_cap(self):
        # every 3-D sector of the largest basis within SIZE_CAP splits, and no
        # piece that the dense solver gets exceeds 4,000 rows
        N = spectral.max_cutoff(3) + spectral.ENLARGEMENT
        assert N**3 <= spectral.SIZE_CAP < (N + 1) ** 3
        for sec in itertools.product((0, 1), repeat=3):
            rows = spectral._split_rows(sec, N)
            assert rows
            assert max(B.shape[0] for B, _ in rows) <= 4000

"""Ground-truth partition sums by basis diagonalization.

The quantum Hamiltonians are assembled in a product basis of harmonic
oscillator levels (frequency ``omega`` per axis, a numerical knob), where
x^2 and p^2 have exact ladder-operator matrix elements and the pairwise
quartic couplings are tensor products of 1-D x^2 matrices.  Per-axis parity
is conserved, so the matrix splits into 2^d blocks.  The Hamiltonian is
symmetric under every permutation of the axes, so sectors whose parities are
permutations of each other (planar (0,1) and (1,0); 3-D {001, 010, 100} and
{011, 101, 110}) have the same spectrum: only one sector of each such orbit
is assembled, sparse from the tridiagonal 1-D factors, and its levels serve
the whole orbit.

At frequency omega the 1-D operators are x^2 = (hbar/omega) X and
p^2 = hbar omega P, so every block is omega K + (v^2/omega) X +
(g^2/omega^2) Q in its kinetic, harmonic and quartic parts K, X and Q at
omega = 1.  A basis keeps those parts, and the rows that split its blocks,
built once; solving it at a frequency forms each block there and solves it
completely, split by the permutations that leave its sector unchanged:
when all three axes share a parity (3-D 000 and 111), into the irreps A1,
A2 and E of S3, whose two-dimensional E gives each of its levels twice;
when two axes share a parity, into the symmetric and antisymmetric halves
under their swap.  In its natural order a planar piece is a band matrix
about N/2 wide, so it is solved from its upper band by LAPACK's band
solver; a 3-D piece, whose band is about N^2/4 wide, by dense LAPACK.
Within ``SIZE_CAP`` a dense piece has at most 3,990 rows (the symmetric
half of sector 001 at 39 levels per axis).  The omega scan solves one such
basis at each of its frequencies.

Every computed eigenvalue is variational (an upper bound that decreases
monotonically with the cutoff), hence every truncated partition sum is a
rigorous lower bound on the true one; basis-enlargement ladders turn that
into convergence estimates.

``scipy.sparse`` and ``scipy.linalg`` load at the first basis build or
solve, not at import.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .params import ModelParams

SIZE_CAP = 60000  # refuse to assemble beyond this total dimension
MIN_CUTOFF = 4  # levels per axis
ENLARGEMENT = 8  # extra levels per axis of the convergence check in eigenvalues
SCAN_CUTOFF = 28  # levels per axis of the omega scan's prescan basis
SCAN_POINTS = 17  # frequencies on the omega scan's grid
LADDER_STEPS = 4  # bases on the leading-log study's ladder
LADDER_STEP = 8  # levels per axis between successive ladder bases
TAIL_SAFETY = 10.0


@dataclass(frozen=True)
class BasisSpec:
    cutoff_per_axis: int
    oscillator_scale: float

    def __post_init__(self):
        if self.cutoff_per_axis < MIN_CUTOFF:
            raise DomainError(f"need at least {MIN_CUTOFF} levels per axis")
        if self.oscillator_scale <= 0:
            raise DomainError("oscillator scale must be positive")

    def enlarged(self):
        return BasisSpec(self.cutoff_per_axis + ENLARGEMENT, self.oscillator_scale)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    basis: BasisSpec
    conv_tol: float
    count_converged: int
    params: ModelParams
    sectors: list

    def converged(self):
        return self.eigenvalues[: self.count_converged]


def _one_axis_ops(N, hbar):
    """x^2 and p^2 at unit frequency on levels 0..N-1 (couplings k <-> k+2
    only); at frequency omega they are x^2/omega and omega p^2."""
    k = np.arange(N)
    off = np.sqrt((k[: N - 2] + 1.0) * (k[: N - 2] + 2.0))
    x2 = np.diag(hbar * (k + 0.5))
    x2[np.arange(N - 2), np.arange(2, N)] = hbar / 2.0 * off
    x2[np.arange(2, N), np.arange(N - 2)] = hbar / 2.0 * off
    p2 = np.diag(hbar * (k + 0.5))
    p2[np.arange(N - 2), np.arange(2, N)] = -hbar / 2.0 * off
    p2[np.arange(2, N), np.arange(N - 2)] = -hbar / 2.0 * off
    return x2, p2


def _parity_slices(N):
    return {0: np.arange(0, N, 2), 1: np.arange(1, N, 2)}


def _kron_sum(terms):
    """CSR matrix of sum_k c_k A_k1 (x) A_k2 (x) ... for ``terms`` of
    (c_k, [A_k1, A_k2, ...]) with square factors: the nonzeros of each
    Kronecker product come from index arithmetic on those of its (banded)
    factors."""
    from scipy.sparse import csr_matrix

    n = math.prod(m.shape[0] for m in terms[0][1])
    rows, cols, vals = [], [], []
    for coeff, factors in terms:
        r, c, v = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.array([coeff])
        for m in factors:
            fr, fc = np.nonzero(m)
            r = (r[:, None] * m.shape[0] + fr).ravel()
            c = (c[:, None] * m.shape[0] + fc).ravel()
            v = (v[:, None] * m[fr, fc]).ravel()
        rows.append(r)
        cols.append(c)
        vals.append(v)
    return csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def _sector_terms(d, x2, p2):
    """``(sec, kinetic, harmonic, quartic)`` per parity sector of the d-axis
    product basis: the :func:`_kron_sum` terms of 1/2 sum_i p_i^2,
    1/2 sum_i x_i^2 and 1/2 sum_(i<j) x_i^2 x_j^2 built from the 1-D x^2
    and p^2 on all levels."""
    sl = _parity_slices(x2.shape[0])
    xb = {p: x2[np.ix_(sl[p], sl[p])] for p in (0, 1)}
    pb = {p: p2[np.ix_(sl[p], sl[p])] for p in (0, 1)}
    pairs = [(0, 1)] if d == 2 else [(0, 1), (1, 2), (2, 0)]
    for sec in itertools.product((0, 1), repeat=d):
        eyes = [np.eye(len(sl[p])) for p in sec]

        def embed(ops):
            return [ops.get(i, eyes[i]) for i in range(d)]

        yield (
            sec,
            [(0.5, embed({i: pb[sec[i]]})) for i in range(d)],
            [(0.5, embed({i: xb[sec[i]]})) for i in range(d)],
            [(0.5, embed({i: xb[sec[i]], j: xb[sec[j]]})) for i, j in pairs],
        )


def _orbit_rows(tuples, perms, pattern, shape):
    """CSR matrix whose unit row r is sum_i pattern[i] e_(tuples[r]
    permuted by perms[i]), over the product basis of the given per-axis
    shape; repeated permuted tuples add up."""
    from scipy.sparse import csr_matrix, diags

    m = len(tuples)
    cols = np.concatenate([np.ravel_multi_index(tuples[:, p].T, shape) for p in perms])
    rows = np.tile(np.arange(m), len(perms))
    B = csr_matrix(
        (np.repeat(np.asarray(pattern, float), m), (rows, cols)), shape=(m, math.prod(shape))
    )
    return diags(1.0 / np.sqrt(B.multiply(B).sum(axis=1).A1)) @ B


def _swap_rows(sec, N):
    """Orthonormal rows of the symmetric and antisymmetric halves of parity
    sector ``sec`` (N levels per axis) under the swap of its first two axes
    of equal parity, which leaves the Hamiltonian and the sector unchanged;
    ``None`` when every axis has its own parity.  The rows run over the
    index tuples with a <= b (a < b) for the swapped pair (a, b), in
    lexicographic order, so a planar half keeps the band of its block."""
    pair = next(((i, j) for i, j in itertools.combinations(range(len(sec)), 2)
                 if sec[i] == sec[j]), None)
    if pair is None:
        return None
    i, j = pair
    shape = tuple(len(range(p, N, 2)) for p in sec)
    idx = np.indices(shape).reshape(len(sec), -1).T
    swap = list(range(len(sec)))
    swap[i], swap[j] = j, i
    perms = (list(range(len(sec))), swap)
    a, b = idx[:, i], idx[:, j]
    return (
        _orbit_rows(idx[a <= b], perms, (1, 1), shape),
        _orbit_rows(idx[a < b], perms, (1, -1), shape),
    )


# the permutations of three axes, even ones first; entry i of a pattern
# below is the coefficient of the index triple permuted by _S3[i]
_S3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1))
_A1 = (1, 1, 1, 1, 1, 1)
_A2 = (1, 1, 1, -1, -1, -1)
# two orthogonal rows of E, both symmetric under the swap of the first two
# axes and orthogonal to A1; _E2 vanishes unless a, b and c all differ
_E1 = (2, -1, -1, 2, -1, -1)
_E2 = (0, 1, -1, 0, 1, -1)


def _s3_rows(n):
    """Orthonormal rows of the A1, A2 and E blocks of a 3-D parity sector
    whose three axes share a parity (n levels per axis): every permutation
    of the axes leaves the Hamiltonian and the sector unchanged.  The rows
    are combinations within one S3 orbit of index triples (a, b, c): A1
    their symmetric sum; A2 their antisymmetric sum, when a, b and c all
    differ; E the part of the span symmetric under the swap of the first two
    axes that is orthogonal to A1, which is one row of the two-dimensional
    irrep, so each E level is a level of the sector twice."""
    from scipy.sparse import vstack

    tri = np.array(list(itertools.combinations_with_replacement(range(n), 3)))
    a, b, c = tri.T
    distinct = tri[(a < b) & (b < c)]
    shape = (n, n, n)
    return (
        _orbit_rows(tri, _S3, _A1, shape),
        _orbit_rows(distinct, _S3, _A2, shape),
        vstack([_orbit_rows(tri[a < c], _S3, _E1, shape),
                _orbit_rows(distinct, _S3, _E2, shape)]),
    )


def _split_rows(sec, N):
    """``(B, copies)`` pairs that split the block of parity sector ``sec``
    (N levels per axis) into pieces ``B H B^T`` whose levels, each taken
    ``copies`` times, are the levels of the block: the S3 irreps when all
    three axes share a parity (E taken twice), else the swap halves when two
    axes do; empty when every axis has its own parity."""
    if len(sec) == 3 and len(set(sec)) == 1:
        return list(zip(_s3_rows(len(range(sec[0], N, 2))), (1, 1, 2)))
    return [(B, 1) for B in _swap_rows(sec, N) or ()]


def _upper_band(h):
    """The diagonal and the superdiagonals up to the last nonzero one of the
    symmetric sparse matrix h, in the upper band layout of
    ``eigvals_banded``."""
    h = h.tocoo()
    keep = (h.col >= h.row) & (h.data != 0)
    r, c, v = h.row[keep], h.col[keep], h.data[keep]
    width = int(np.max(c - r, initial=0))
    band = np.zeros((width + 1, h.shape[0]))
    band[width - (c - r), c] = v
    return band


def eigh(a, **kwargs):
    """``scipy.linalg.eigh``, imported at the first call; :func:`_piece_levels`
    calls it by this name, which tests substitute."""
    from scipy.linalg import eigh as scipy_eigh

    return scipy_eigh(a, **kwargs)


def eigvals_banded(a_band, **kwargs):
    """``scipy.linalg.eigvals_banded``, imported at the first call;
    :func:`_piece_levels` calls it by this name, which tests substitute."""
    from scipy.linalg import eigvals_banded as scipy_eigvals_banded

    return scipy_eigvals_banded(a_band, **kwargs)


def _piece_levels(h, d):
    """All levels of the sparse piece h of the d-axis model: a planar piece
    from its upper band (:func:`_upper_band`) by ``eigvals_banded``; a 3-D
    piece densified by ``eigh``, which beat the band solver there (3-D bands
    are about N^2/4 wide), in Fortran order so that ``eigh`` overwrites it
    instead of a copy."""
    if d == 2:
        return eigvals_banded(_upper_band(h), overwrite_a_band=True)
    return eigh(h.toarray(order="F"), eigvals_only=True, overwrite_a=True)


class HamiltonianBlocks:
    """The parity blocks of H = T + V in the product basis, kept free of the
    basis frequency so that any frequency can be solved.

    ``blocks`` holds ``(sec, K, (X, Q))`` for one sector of each orbit of
    permuted parities (its sorted member): the sparse kinetic, harmonic and
    quartic parts at omega = 1, so that at frequency omega the block is
    omega K + (v^2/omega) X + (g^2/omega^2) Q.  The rows that split each
    block (:func:`_split_rows`) are built once with it."""

    def __init__(self, params, basis):
        d = params.n_model
        N = basis.cutoff_per_axis
        if N**d > SIZE_CAP:
            raise DomainError(f"basis dimension {N**d} exceeds the size cap {SIZE_CAP}")
        self.params = params
        self.basis = basis
        self.blocks = []
        self._rows = []
        for sec, kinetic, harmonic, quartic in _sector_terms(d, *_one_axis_ops(N, params.hbar)):
            if list(sec) != sorted(sec):
                continue  # the orbit is solved as its sorted member
            self.blocks.append((sec, _kron_sum(kinetic), (_kron_sum(harmonic), _kron_sum(quartic))))
            self._rows.append(_split_rows(sec, N))

    @property
    def dimension(self):
        return self.basis.cutoff_per_axis**self.params.n_model

    def levels(self, omega):
        """Sorted merged spectrum at basis frequency ``omega`` and per-sector
        ``(sec, w)``, one entry per parity sector.

        Each orbit's block is solved once, completely, from the pieces of
        :func:`_split_rows` (:func:`_piece_levels`), and every sector of the
        orbit gets its sorted, read-only levels w."""
        d = self.params.n_model
        a, b = self.params.v**2 / omega, self.params.g**2 / omega**2
        solved = {}
        for (sec, K, (X, Q)), rows in zip(self.blocks, self._rows):
            H = omega * K + a * X + b * Q
            pieces = [(B @ H @ B.T, copies) for B, copies in rows] or [(H, 1)]
            w = np.sort(np.concatenate([np.tile(_piece_levels(h, d), c) for h, c in pieces]))
            w.flags.writeable = False
            solved[sec] = w
        sectors = [(sec, solved[tuple(sorted(sec))]) for sec in itertools.product((0, 1), repeat=d)]
        merged = np.sort(np.concatenate([w for _, w in sectors]))
        return merged, sectors

    def solve(self):
        """:meth:`levels` at the basis frequency."""
        return self.levels(self.basis.oscillator_scale)


def build_hamiltonian(params, basis):
    """Blocked Hamiltonian handle for the basis (``perfbench/workloads.py`` imports it)."""
    return HamiltonianBlocks(params, basis)


def _omega_grid(params):
    """The omega scan's frequencies, 1/20 to 20 times the natural scale."""
    s = _natural_scale(params)
    return np.exp(np.linspace(math.log(0.05 * s), math.log(20.0 * s), SCAN_POINTS))


def trace_maximizing_omega(params, t_ref):
    """Basis frequency of :func:`_omega_grid` maximizing the truncated
    partition sum at ``t_ref``; every truncated sum is a lower bound, so the
    maximum is the tightest.  Scanned at the prescan basis of
    ``SCAN_CUTOFF`` levels per axis, which is assembled and its split rows
    built once; each grid frequency solves it through
    :meth:`HamiltonianBlocks.levels`."""
    h = HamiltonianBlocks(params, BasisSpec(SCAN_CUTOFF, 1.0))
    best, best_om = -np.inf, None
    for om in _omega_grid(params):
        merged, _ = h.levels(float(om))
        z = float(np.sum(np.exp(-t_ref * merged)))
        if z > best:
            best, best_om = z, float(om)
    return best_om


def _natural_scale(params):
    # harmonic: v; pure quartic: the g^(2/3) hbar^(1/3) ladder scale
    if params.v > 0 and params.g == 0:
        return params.v
    base = (params.g * params.hbar) ** (2.0 / 3.0) / params.hbar ** (1.0 / 3.0)
    return max(base, params.v, 1e-3)


def max_cutoff(n_model):
    """Largest cutoff per axis whose enlargement in :func:`eigenvalues` stays
    within ``SIZE_CAP``."""
    n = round(SIZE_CAP ** (1.0 / n_model))
    while n**n_model > SIZE_CAP:
        n -= 1
    return n - ENLARGEMENT


def eigenvalues(handle, how_many, conv_tol=1e-6):
    """Lowest eigenvalues with a basis-enlargement convergence study.

    Solves the handle's basis and its enlargement by ``ENLARGEMENT`` levels
    per axis; eigenvalues are retained as converged while successive values
    differ by less than ``conv_tol``.  Raises :class:`ConvergenceError` naming the first
    unconverged index if fewer than ``how_many`` converge.
    """
    if how_many > handle.dimension // 4:
        raise DomainError("how_many exceeds the dimension/4 safety margin")
    ev, sectors = handle.solve()
    ev_big, _ = HamiltonianBlocks(handle.params, handle.basis.enlarged()).solve()
    n = len(ev)
    diffs = np.abs(ev - ev_big[:n])
    bad = np.nonzero(diffs > conv_tol)[0]
    count = int(bad[0]) if bad.size else n
    if count < how_many:
        raise ConvergenceError(
            f"eigenvalue {count} not converged to {conv_tol:g} "
            f"(changed by {diffs[count]:.3g} under basis enlargement)",
            first_unconverged=count,
        )
    return SpectrumResult(
        eigenvalues=ev_big[:n],
        basis=handle.basis,
        conv_tol=conv_tol,
        count_converged=count,
        params=handle.params,
        sectors=sectors,
    )


def tf_envelope(params, t):
    """Phase-space upper envelope of the partition sum used as a tail
    majorant: exact leading term for v > 0 (a rigorous upper bound for our
    non-negative potentials), harmonic form at g = 0, and the regulated
    (effective-Higgs) leading term at v = 0 -- heuristic there, hence the
    safety factor applied by the caller."""
    from . import heatkernel

    p = ModelParams(params.g, params.v, params.hbar, t, params.n_model)
    d = params.n_model
    if params.g == 0:
        if params.v == 0:
            raise DomainError("free particle has no normalizable envelope")
        return (params.hbar * params.v * t) ** -d
    if params.v > 0:
        if d == 2:
            return heatkernel.tf_partition_n2(p)
        # bound the triple quartic by the planar one pairwise: use the
        # regulated leading term times the harmonic extra axis
        return heatkernel.tf_partition_n2(p) / (params.hbar * params.v * t)
    if d == 2:
        return heatkernel.resummed_term(0, p)
    return heatkernel.tf_term_n3(p)


def partition_from_spectrum(spectrum, t, tail_rel_tol=1e-8):
    """Z(t) from the converged levels with a certified-style bracket.

    The truncated tail above the last converged level E_c is majorized by

        min_{0 < t0 < t}  e^(-(t - t0) E_c) Z_env(t0) * safety,

    with ``Z_env`` the phase-space envelope (a Golden-Thompson upper bound
    on the true partition sum for v > 0, the regulated envelope at v = 0).
    Raises when the bound exceeds ``tail_rel_tol`` relatively -- then t is
    too small for the basis.
    """
    levels = spectrum.converged()
    if len(levels) == 0:
        raise ConvergenceError("no converged levels", first_unconverged=0)
    value = float(np.sum(np.exp(-t * levels)))
    e_c = float(levels[-1])
    p = spectrum.params
    t0_grid = np.geomspace(1e-3 * t, 0.95 * t, 48)
    tail = TAIL_SAFETY * min(
        math.exp(-(t - t0) * e_c) * tf_envelope(p, t0) for t0 in t0_grid
    )
    if tail > tail_rel_tol * value:
        raise ConvergenceError(
            f"tail bound {tail:.3g} exceeds {tail_rel_tol:g} of the sum "
            f"(t = {t} too small for {len(levels)} converged levels)",
        )
    return value, (value, value + tail)


# -- leading-log window study --------------------------------------------------


@dataclass
class LeadingLogStudy:
    slope: float
    intercept: float
    t_grid: np.ndarray
    lam2: np.ndarray
    z_over_k: np.ndarray  # truncation-corrected, per grid point
    z_raw_top: np.ndarray  # largest-basis raw sums
    deficit_power: float
    fit_rms: float
    ladder: tuple
    omega: float
    flags: dict


def study_ladder(n_top):
    """Cutoffs per axis of the leading-log study's planar basis ladder:
    ``LADDER_STEPS`` rungs ``LADDER_STEP`` apart, ending at ``n_top``; raises
    :class:`DomainError` unless every rung lies within ``MIN_CUTOFF`` and
    ``SIZE_CAP``."""
    ladder = tuple(n_top - LADDER_STEP * i for i in range(LADDER_STEPS - 1, -1, -1))
    top = max_cutoff(2) + ENLARGEMENT  # the ladder solves no enlargement
    if min(ladder) < MIN_CUTOFF or max(ladder) > top:
        raise DomainError(
            f"the study ladder {ladder} needs {MIN_CUTOFF} to {top} levels per "
            f"axis on every rung (size cap {SIZE_CAP})"
        )
    return ladder


def leading_log_study(params, n_top=60, omega=None):
    """Regression of Z/K against -ln(lam2) over the asymptotic window.

    Partition sums are computed on a basis ladder ending at ``n_top`` per
    axis, at ten times spanning lam2 in [0.022, 0.097], the basis-reachable
    part of the asymptotic window; the basis deficit is modeled jointly as
    (a + b x) (n_top/N)^p and removed, which is what turns the variationally
    biased raw sums into a usable estimate of the true trace.  The
    asymptotic flag restricts the window to lam2 <= 0.1.
    """
    if params.n_model != 2:
        raise DomainError("the leading-log study is defined for the planar model")
    ladder = study_ladder(n_top)
    thi = (0.097 / (params.g**2 * params.hbar**4)) ** (1.0 / 3.0)
    tlo = (0.022 / (params.g**2 * params.hbar**4)) ** (1.0 / 3.0)
    t_grid = np.linspace(tlo, thi, 10)
    lam2 = params.g**2 * params.hbar**4 * t_grid**3
    flags = {"asymptotic_clear": bool(np.all(lam2 <= 0.1))}
    if omega is None:
        omega = trace_maximizing_omega(params, t_ref=float(np.median(t_grid)))
    sums = {}
    for N in ladder:
        ev, _ = HamiltonianBlocks(params, BasisSpec(N, omega)).solve()
        sums[N] = np.array([np.sum(np.exp(-t * ev)) for t in t_grid])
    x = -np.log(lam2)
    K = 1.0 / np.sqrt(2.0 * np.pi * lam2)
    from scipy.optimize import least_squares

    def resid(th):
        s, b, g0, g1, p = th
        parts = []
        for N in ladder:
            y = sums[N] / K
            parts.append(y - (s * x + b - (g0 + g1 * x) * (n_top / N) ** p))
        return np.concatenate(parts)

    sol = least_squares(resid, [1.0, 5.0, 1.0, 0.1, 1.0])
    s, b, g0, g1, p = sol.x
    rms = float(np.sqrt(np.mean(sol.fun**2)))
    flags["truncation_model_ok"] = bool(rms < 0.1 and 0.3 < p < 4.0)
    return LeadingLogStudy(
        slope=float(s),
        intercept=float(b),
        t_grid=t_grid,
        lam2=lam2,
        z_over_k=s * x + b,
        z_raw_top=sums[n_top],
        deficit_power=float(p),
        fit_rms=rms,
        ladder=ladder,
        omega=float(omega),
        flags=flags,
    )


# -- persistence ----------------------------------------------------------------

_SPECTRUM_FORMAT = "ymqm-spectrum-v1"


def save_spectrum(spectrum, path):
    """Columnar text format: self-describing header, then
    ``index eigenvalue converged`` rows."""
    p = spectrum.params
    with open(path, "w") as fh:
        fh.write(f"# format: {_SPECTRUM_FORMAT}\n")
        fh.write(
            f"# g: {p.g!r}\n# v: {p.v!r}\n# hbar: {p.hbar!r}\n"
            f"# n_model: {p.n_model}\n"
        )
        fh.write(
            f"# cutoff_per_axis: {spectrum.basis.cutoff_per_axis}\n"
            f"# oscillator_scale: {float(spectrum.basis.oscillator_scale)!r}\n"
            f"# conv_tol: {float(spectrum.conv_tol)!r}\n"
            f"# count_converged: {spectrum.count_converged}\n"
        )
        fh.write("# columns: index eigenvalue converged\n")
        for i, e in enumerate(spectrum.eigenvalues):
            fh.write(f"{i} {float(e)!r} {int(i < spectrum.count_converged)}\n")

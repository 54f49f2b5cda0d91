"""Ground-truth partition sums by basis diagonalization.

The quantum Hamiltonians are assembled in a product basis of harmonic
oscillator levels (frequency ``omega`` per axis, a numerical knob), where
x^2 and p^2 have exact ladder-operator matrix elements and the pairwise
quartic couplings are tensor products of 1-D x^2 matrices.  Per-axis parity
is conserved, so the matrix splits into 2^d blocks, each assembled sparse
from the tridiagonal 1-D factors.  The Hamiltonian is symmetric under every
permutation of the axes, so sectors whose parities are permutations of each
other (planar (0,1) and (1,0); 3-D {001, 010, 100} and {011, 101, 110})
have the same spectrum: one sector of each such orbit is solved and its
levels serve the whole orbit.  A block at or below a size cap is solved
completely by dense LAPACK, split by the permutations that leave its sector
unchanged: when all three axes share a parity (3-D 000 and 111), into the
irreps A1, A2 and E of S3, whose two-dimensional E gives each of its levels
twice; when two axes share a parity, into the symmetric and antisymmetric
halves under their swap.  Above the cap an iterative extremal solver
returns only the lowest levels of the whole block.

Every computed eigenvalue is variational (an upper bound that decreases
monotonically with the cutoff), hence every truncated partition sum is a
rigorous lower bound on the true one; basis-enlargement ladders turn that
into convergence estimates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix, diags, vstack
from scipy.sparse.linalg import eigsh

from .errors import ConvergenceError, DomainError
from .params import ModelParams

DENSE_BLOCK_CAP = 4000
ITERATIVE_LEVELS = 64  # lowest levels solved in a sector above DENSE_BLOCK_CAP
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
    params: ModelParams | None = None
    sectors: list = field(default_factory=list)

    def converged(self):
        return self.eigenvalues[: self.count_converged]


def _one_axis_ops(N, hbar, omega):
    """x^2 and p^2 on levels 0..N-1 (couplings k <-> k+2 only)."""
    k = np.arange(N)
    off = np.sqrt((k[: N - 2] + 1.0) * (k[: N - 2] + 2.0))
    x2 = np.diag((hbar / omega) * (k + 0.5))
    x2[np.arange(N - 2), np.arange(2, N)] = hbar / (2.0 * omega) * off
    x2[np.arange(2, N), np.arange(N - 2)] = hbar / (2.0 * omega) * off
    p2 = np.diag((hbar * omega) * (k + 0.5))
    p2[np.arange(N - 2), np.arange(2, N)] = -hbar * omega / 2.0 * off
    p2[np.arange(2, N), np.arange(N - 2)] = -hbar * omega / 2.0 * off
    return x2, p2


def _parity_slices(N):
    return {0: np.arange(0, N, 2), 1: np.arange(1, N, 2)}


def _kron_sum(terms):
    """CSR matrix of sum_k c_k A_k1 (x) A_k2 (x) ... for ``terms`` of
    (c_k, [A_k1, A_k2, ...]) with square factors: the nonzeros of each
    Kronecker product come from index arithmetic on those of its (banded)
    factors."""
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


def _swap_halves(H, sec, N):
    """Dense symmetric and antisymmetric halves of the sparse block H of
    parity sector ``sec`` (N levels per axis) under the swap of its first
    two axes of equal parity, which leaves H and the sector unchanged;
    ``None`` when every axis has its own parity."""
    pair = next(((i, j) for i, j in itertools.combinations(range(len(sec)), 2)
                 if sec[i] == sec[j]), None)
    if pair is None:
        return None
    idx = np.arange(H.shape[0])
    shape = [len(range(p, N, 2)) for p in sec]
    sigma = np.swapaxes(idx.reshape(shape), *pair).ravel()
    # basis (e_r + e_sr)/sqrt(2) over r < sr and e_r over the fixed points
    r = np.nonzero(idx <= sigma)[0]
    c = np.where(r == sigma[r], math.sqrt(0.5), 1.0)
    Hr = H[r]
    sym = (Hr[:, r] + Hr[:, sigma[r]]).toarray() * np.outer(c, c)
    a = np.nonzero(idx < sigma)[0]
    Ha = H[a]
    anti = (Ha[:, a] - Ha[:, sigma[a]]).toarray()
    return sym, anti


# the permutations of three axes, even ones first; entry i of a pattern
# below is the coefficient of the index triple permuted by _S3[i]
_S3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1))
_A1 = (1, 1, 1, 1, 1, 1)
_A2 = (1, 1, 1, -1, -1, -1)
# two orthogonal rows of E, both symmetric under the swap of the first two
# axes and orthogonal to A1; _E2 vanishes unless a, b and c all differ
_E1 = (2, -1, -1, 2, -1, -1)
_E2 = (0, 1, -1, 0, 1, -1)


def _orbit_rows(triples, pattern, n):
    """CSR matrix whose unit row r is sum_i pattern[i] e_(triples[r]
    permuted by _S3[i]), over the product basis of three axes of n levels
    each; repeated permuted triples add up."""
    m = len(triples)
    cols = np.concatenate(
        [(triples[:, i] * n + triples[:, j]) * n + triples[:, k] for i, j, k in _S3]
    )
    rows = np.tile(np.arange(m), len(_S3))
    B = csr_matrix((np.repeat(np.asarray(pattern, float), m), (rows, cols)), shape=(m, n**3))
    return diags(1.0 / np.sqrt(B.multiply(B).sum(axis=1).A1)) @ B


def _s3_irreps(H, n):
    """Dense A1, A2 and E blocks ``B H B^T`` of the sparse block H of a 3-D
    parity sector whose three axes share a parity (n levels per axis): every
    permutation of the axes leaves H and the sector unchanged.  The rows of
    each B are orthonormal combinations within one S3 orbit of index
    triples (a, b, c): A1 their symmetric sum; A2 their antisymmetric sum,
    when a, b and c all differ; E the part of the span symmetric under the
    swap of the first two axes that is orthogonal to A1, which is one row
    of the two-dimensional irrep, so each E level is a level of H twice."""
    tri = np.array(list(itertools.combinations_with_replacement(range(n), 3)))
    a, b, c = tri.T
    distinct = tri[(a < b) & (b < c)]
    bases = (
        _orbit_rows(tri, _A1, n),
        _orbit_rows(distinct, _A2, n),
        vstack([_orbit_rows(tri[a < c], _E1, n), _orbit_rows(distinct, _E2, n)]),
    )
    return [(B @ H @ B.T).toarray() for B in bases]


class HamiltonianBlocks:
    """Parity-blocked sparse matrices of H = T + V, with T and V kept
    separate."""

    def __init__(self, params, basis):
        d = params.n_model
        N = basis.cutoff_per_axis
        if N**d > SIZE_CAP:
            raise DomainError(f"basis dimension {N**d} exceeds the size cap {SIZE_CAP}")
        self.params = params
        self.basis = basis
        x2, p2 = _one_axis_ops(N, params.hbar, basis.oscillator_scale)
        sl = _parity_slices(N)
        xb = {p: x2[np.ix_(sl[p], sl[p])] for p in (0, 1)}
        pb = {p: p2[np.ix_(sl[p], sl[p])] for p in (0, 1)}
        g2, v2 = params.g**2, params.v**2
        pairs = [(0, 1)] if d == 2 else [(0, 1), (1, 2), (2, 0)]
        self.blocks = []
        for sec in itertools.product((0, 1), repeat=d):
            eyes = [np.eye(len(sl[p])) for p in sec]

            def embed(ops):
                return [ops.get(i, eyes[i]) for i in range(d)]

            T = _kron_sum([(0.5, embed({i: pb[sec[i]]})) for i in range(d)])
            V = _kron_sum(
                [(0.5 * v2, embed({i: xb[sec[i]]})) for i in range(d)]
                + [(0.5 * g2, embed({i: xb[sec[i]], j: xb[sec[j]]})) for i, j in pairs]
            )
            self.blocks.append((sec, T, V))

    @property
    def dimension(self):
        return sum(T.shape[0] for _, T, _ in self.blocks)

    def solve(self):
        """Sorted merged spectrum and per-sector ``(sec, w, T, V)``, one
        entry per parity sector.

        Sectors whose parities are permutations of each other have the same
        spectrum, so one representative of each orbit, keyed by its sorted
        parities, is solved and every member gets its levels.  A dense
        block is solved as its S3 irreps when its three axes share a parity
        (:func:`_s3_irreps`), else as its swap halves when two axes do."""
        N = self.basis.cutoff_per_axis
        solved = {}
        sector_data = []
        for sec, T, V in self.blocks:
            key = tuple(sorted(sec))
            if key not in solved:
                solved[key] = _levels(T + V, sec, N)
            sector_data.append((sec, solved[key], T, V))
        merged = np.sort(np.concatenate([w for _, w, _, _ in sector_data]))
        return merged, sector_data


def _levels(H, sec, N):
    """Sorted levels of the sparse block H of parity sector ``sec``: all of
    them at or below ``DENSE_BLOCK_CAP``, else the lowest
    ``ITERATIVE_LEVELS``.  Read-only, as the sectors of an orbit share them."""
    if H.shape[0] > DENSE_BLOCK_CAP:
        kk = min(ITERATIVE_LEVELS, H.shape[0] - 2)
        w = eigsh(H, k=kk, which="SA", return_eigenvectors=False)
    elif len(sec) == 3 and len(set(sec)) == 1:
        a1, a2, e = (eigh(h, eigvals_only=True) for h in _s3_irreps(H, len(range(sec[0], N, 2))))
        w = np.concatenate([a1, a2, e, e])  # E is two-dimensional
    else:
        parts = _swap_halves(H, sec, N) or (H.toarray(),)
        w = np.concatenate([eigh(h, eigvals_only=True) for h in parts])
    w = np.sort(w)
    w.flags.writeable = False
    return w


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
    ``SCAN_CUTOFF`` levels per axis, which must be solved completely: raises
    :class:`ConvergenceError` when a sector's higher levels are missing."""
    best, best_om = -np.inf, None
    for om in _omega_grid(params):
        h = HamiltonianBlocks(params, BasisSpec(SCAN_CUTOFF, float(om)))
        ev, sectors = h.solve()
        n = _complete_count(ev, sectors)
        if n < len(ev):
            raise ConvergenceError(
                f"omega scan basis N = {SCAN_CUTOFF} solved only partly "
                f"(complete below level {n} of {len(ev)})",
                first_unconverged=n,
            )
        z = float(np.sum(np.exp(-t_ref * ev)))
        if z > best:
            best, best_om = z, float(om)
    return best_om


def _natural_scale(params):
    # harmonic: v; pure quartic: the g^(2/3) hbar^(1/3) ladder scale
    if params.v > 0 and params.g == 0:
        return params.v
    base = (params.g * params.hbar) ** (2.0 / 3.0) / max(params.hbar, 1e-300) ** (1.0 / 3.0)
    return max(base, params.v, 1e-3)


def _complete_count(merged, sector_data):
    """Length of the prefix of the merged spectrum with no level missing: a
    sector solved iteratively returns only its lowest levels, so above its
    top one the merge may skip levels of that sector."""
    tops = [w[-1] for _, w, T, _ in sector_data if len(w) < T.shape[0]]
    if not tops:
        return len(merged)
    return int(np.searchsorted(merged, min(tops), side="right"))


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
    big = HamiltonianBlocks(handle.params, handle.basis.enlarged())
    ev_big, sectors_big = big.solve()
    n = min(_complete_count(ev, sectors), _complete_count(ev_big, sectors_big))
    diffs = np.abs(ev[:n] - ev_big[:n])
    bad = np.nonzero(diffs > conv_tol)[0]
    count = int(bad[0]) if bad.size else n
    if count < how_many:
        why = (
            f"changed by {diffs[count]:.3g} under basis enlargement"
            if count < n
            else "higher levels of an iteratively solved sector were not computed"
        )
        raise ConvergenceError(
            f"eigenvalue {count} not converged to {conv_tol:g} ({why})",
            first_unconverged=count,
        )
    return SpectrumResult(
        eigenvalues=ev_big[:n],
        basis=handle.basis,
        conv_tol=conv_tol,
        count_converged=count,
        params=handle.params,
        sectors=[(sec, w) for sec, w, _, _ in sectors],
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


def study_ladder(n_top, ladder_steps=LADDER_STEPS, step=LADDER_STEP):
    """Cutoffs per axis of the leading-log study's planar basis ladder,
    ending at ``n_top``; raises :class:`DomainError` unless every rung lies
    within ``MIN_CUTOFF`` and ``SIZE_CAP``."""
    ladder = tuple(n_top - step * i for i in range(ladder_steps - 1, -1, -1))
    top = max_cutoff(2) + ENLARGEMENT  # the ladder solves no enlargement
    if min(ladder) < MIN_CUTOFF or max(ladder) > top:
        raise DomainError(
            f"the study ladder {ladder} needs {MIN_CUTOFF} to {top} levels per "
            f"axis on every rung (size cap {SIZE_CAP})"
        )
    return ladder


def leading_log_study(
    params,
    n_top=60,
    ladder_steps=LADDER_STEPS,
    step=LADDER_STEP,
    omega=None,
):
    """Regression of Z/K against -ln(lam2) over the asymptotic window.

    Partition sums are computed on a basis ladder ending at ``n_top`` per
    axis, at ten times spanning lam2 in [0.022, 0.097], the basis-reachable
    part of the asymptotic window; the basis deficit is modeled jointly as
    (a + b x) (n_top/N)^p and removed, which is what turns the variationally
    biased raw sums into a usable estimate of the true trace.  The
    asymptotic flag restricts the window to lam2 <= 0.1.  Each sum runs over
    the complete prefix of its basis's spectrum; the ``complete_spectra``
    flag is False when a sector solved iteratively cut that prefix short.
    """
    if params.n_model != 2:
        raise DomainError("the leading-log study is defined for the planar model")
    ladder = study_ladder(n_top, ladder_steps, step)
    thi = (0.097 / (params.g**2 * params.hbar**4)) ** (1.0 / 3.0)
    tlo = (0.022 / (params.g**2 * params.hbar**4)) ** (1.0 / 3.0)
    t_grid = np.linspace(tlo, thi, 10)
    lam2 = params.g**2 * params.hbar**4 * t_grid**3
    flags = {"asymptotic_clear": bool(np.all(lam2 <= 0.1))}
    if omega is None:
        omega = trace_maximizing_omega(params, t_ref=float(np.median(t_grid)))
    sums = {}
    complete = True
    for N in ladder:
        h = HamiltonianBlocks(params, BasisSpec(N, omega))
        ev, sectors = h.solve()
        n = _complete_count(ev, sectors)
        complete = complete and n == len(ev)
        sums[N] = np.array([np.sum(np.exp(-t * ev[:n])) for t in t_grid])
    flags["complete_spectra"] = complete
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


def save_spectrum(spectrum, path_or_file):
    """Columnar text format: self-describing header, then
    ``index eigenvalue converged`` rows."""
    close = False
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        fh = open(path_or_file, "w")
        close = True
    else:
        fh = path_or_file
    try:
        p = spectrum.params
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
    finally:
        if close:
            fh.close()

"""Ground-truth partition sums by basis diagonalization.

The quantum Hamiltonians are assembled in a product basis of harmonic
oscillator levels (frequency ``omega`` per axis, a numerical knob), where
x^2 and p^2 have exact ladder-operator matrix elements and the pairwise
quartic couplings are tensor products of 1-D x^2 matrices.  Per-axis parity
is conserved, so the matrix splits into 2^d blocks, each assembled sparse
from the tridiagonal 1-D factors and solved independently.  A block at or
below a size cap is solved completely by dense LAPACK; when two of its axes
share a parity, the swap of those axes is a symmetry of the block, and it is
solved as its symmetric and antisymmetric halves.  Above the cap an
iterative extremal solver returns only the lowest levels of the whole block.

Every computed eigenvalue is variational (an upper bound that decreases
monotonically with the cutoff), hence every truncated partition sum is a
rigorous lower bound on the true one; basis-enlargement ladders turn that
into convergence estimates.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigsh

from .errors import ConvergenceError, DomainError
from .params import ModelParams

DENSE_BLOCK_CAP = 4000
SIZE_CAP = 60000  # refuse to assemble beyond this total dimension
MIN_CUTOFF = 4  # levels per axis
ENLARGEMENT = 8  # extra levels per axis of the convergence check in eigenvalues
TAIL_SAFETY = 10.0


@dataclass(frozen=True)
class BasisSpec:
    cutoff_per_axis: int
    oscillator_scale: float
    symmetry_sector: tuple | None = None

    def __post_init__(self):
        if self.cutoff_per_axis < MIN_CUTOFF:
            raise DomainError(f"need at least {MIN_CUTOFF} levels per axis")
        if self.oscillator_scale <= 0:
            raise DomainError("oscillator scale must be positive")

    def enlarged(self, extra=ENLARGEMENT):
        return BasisSpec(
            self.cutoff_per_axis + extra, self.oscillator_scale, self.symmetry_sector
        )


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
        sectors = (
            [basis.symmetry_sector]
            if basis.symmetry_sector is not None
            else list(itertools.product((0, 1), repeat=d))
        )
        for sec in sectors:
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

    def solve(self, how_many=None):
        """Sorted merged spectrum and per-sector ``(sec, w, T, V)``."""
        evs = []
        sector_data = []
        for sec, T, V in self.blocks:
            H = T + V
            if H.shape[0] <= DENSE_BLOCK_CAP:
                parts = _swap_halves(H, sec, self.basis.cutoff_per_axis) or (H.toarray(),)
                w = np.sort(np.concatenate([eigh(h, eigvals_only=True) for h in parts]))
            else:
                kk = min(how_many or 64, H.shape[0] - 2)
                w = np.sort(eigsh(H, k=kk, which="SA", return_eigenvectors=False))
            evs.append(w)
            sector_data.append((sec, w, T, V))
        merged = np.sort(np.concatenate(evs))
        return merged, sector_data


def build_hamiltonian(params, basis):
    """Assemble the blocked Hamiltonian handle for the given basis."""
    return HamiltonianBlocks(params, basis)


def trace_minimizing_omega(params, N):
    """Basis frequency minimizing the truncated-basis trace of H (closed form
    per power of omega, minimized by scalar search)."""
    from scipy.optimize import minimize_scalar

    d = params.n_model
    hbar, g2, v2 = params.hbar, params.g**2, params.v**2
    pairs = 1 if d == 2 else 3

    def tr(omega):
        trx = (hbar / omega) * N * N / 2.0  # tr of 1-D x^2 over N levels
        trp = (hbar * omega) * N * N / 2.0
        return (
            0.5 * d * trp * N ** (d - 1)
            + 0.5 * v2 * d * trx * N ** (d - 1)
            + 0.5 * g2 * pairs * trx * trx * N ** (d - 2)
        )

    res = minimize_scalar(lambda w: tr(math.exp(w)), bounds=(-4.0, 4.0), method="bounded")
    return math.exp(res.x)


def trace_maximizing_omega(params, t_ref, N_scan=28, grid=None):
    """Basis frequency maximizing the truncated partition sum at ``t_ref``;
    every truncated sum is a lower bound, so the maximum is the tightest.
    Scanned at a small prescan basis, which must be solved completely:
    raises :class:`ConvergenceError` when a sector's higher levels are
    missing."""
    if grid is None:
        lo = math.log(0.05 * _natural_scale(params))
        hi = math.log(20.0 * _natural_scale(params))
        grid = np.exp(np.linspace(lo, hi, 17))
    best, best_om = -np.inf, None
    for om in grid:
        h = HamiltonianBlocks(params, BasisSpec(N_scan, float(om)))
        ev, sectors = h.solve()
        n = _complete_count(ev, sectors)
        if n < len(ev):
            raise ConvergenceError(
                f"omega scan basis N = {N_scan} solved only partly "
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


def ground_state_expectations(handle):
    """(E0, <T>, <V>) from the lowest eigenvector across sectors."""
    best = None
    for sec, T, V in handle.blocks:
        w, U = eigh((T + V).toarray())
        if best is None or w[0] < best[0]:
            vec = U[:, 0]
            best = (float(w[0]), float(vec @ (T @ vec)), float(vec @ (V @ vec)))
    return best


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


def leading_log_study(
    params,
    t_grid=None,
    n_top=60,
    ladder_steps=4,
    step=8,
    omega=None,
):
    """Regression of Z/K against -ln(lam2) over the asymptotic window.

    Partition sums are computed on a basis ladder ending at ``n_top`` per
    axis; the basis deficit is modeled jointly as (a + b x) (n_top/N)^p and
    removed, which is what turns the variationally biased raw sums into a
    usable estimate of the true trace.  The asymptotic flag restricts the
    window to lam2 <= 0.1.  Each sum runs over the complete prefix of its
    basis's spectrum; the ``complete_spectra`` flag is False when a sector
    solved iteratively cut that prefix short.
    """
    if params.n_model != 2:
        raise DomainError("the leading-log study is defined for the planar model")
    if t_grid is None:
        # lam2 in [~0.02, 0.1]: basis-reachable part of the asymptotic window
        lam2_hi = 0.097
        lam2_lo = 0.022
        thi = (lam2_hi / (params.g**2 * params.hbar**4)) ** (1.0 / 3.0)
        tlo = (lam2_lo / (params.g**2 * params.hbar**4)) ** (1.0 / 3.0)
        t_grid = np.linspace(tlo, thi, 10)
    t_grid = np.asarray(t_grid, dtype=float)
    lam2 = params.g**2 * params.hbar**4 * t_grid**3
    flags = {"asymptotic_clear": bool(np.all(lam2 <= 0.1))}
    if omega is None:
        omega = trace_maximizing_omega(params, t_ref=float(np.median(t_grid)))
    ladder = tuple(n_top - step * i for i in range(ladder_steps - 1, -1, -1))
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


def load_spectrum(path_or_file):
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file) as fh:
            text = fh.read()
    else:
        text = path_or_file.read()
    header = {}
    rows = []
    for line in io.StringIO(text):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if ":" in line:
                key, _, val = line[1:].partition(":")
                header[key.strip()] = val.strip()
            continue
        idx, ev, conv = line.split()
        rows.append((int(idx), float(ev), int(conv)))
    if header.get("format") != _SPECTRUM_FORMAT:
        raise DomainError(f"unrecognized spectrum format: {header.get('format')}")
    params = ModelParams(
        g=float(header["g"]),
        v=float(header["v"]),
        hbar=float(header["hbar"]),
        t=1.0,
        n_model=int(header["n_model"]),
    )
    basis = BasisSpec(
        cutoff_per_axis=int(header["cutoff_per_axis"]),
        oscillator_scale=float(header["oscillator_scale"]),
    )
    return SpectrumResult(
        eigenvalues=np.array([r[1] for r in rows]),
        basis=basis,
        conv_tol=float(header["conv_tol"]),
        count_converged=int(header["count_converged"]),
        params=params,
    )

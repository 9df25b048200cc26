"""Independent oracles predicting each model's pairing.

None of these touch the localiser machinery: the winding number integrates
the symbol's phase around the circle, the lattice band invariant sums
plaquette field strengths of the occupied-band projector, and the graded
index counts kernel dimensions of the off-diagonal block directly.  Expected
values in tests come from here, never from the code under test.

Integer-valued outputs are rounded only when the residue is tiny; a residue
above the tolerance raises ResidueTooLarge instead of returning a guess.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .core import EIG_SEP_TOL, as_matrix, window_mask
from .errors import (
    AmbiguousKernel,
    BoundaryEigenvalue,
    GapClosure,
    NonUnitary,
    ResidueTooLarge,
    SingularSymbol,
    ValidationError,
    WindowInstability,
)
from .models import GradedOperator, _normalize_symbol, circle_symbol_values

__all__ = [
    "winding_number",
    "chern_number_fhs",
    "fredholm_index_graded",
    "toeplitz_index",
]


def winding_number(symbol, grid: int = 4096, residue_tol: float = 0.01) -> int:
    """Winding of det g(theta) around 0, summed from phase increments.

    symbol: finite Fourier coefficients ({k: c}) or a callable returning a
    complex scalar or matrix per theta.  Raises SingularSymbol if the symbol
    (nearly) vanishes on the grid, or, for coefficients, if the grid cannot
    rule out a zero between samples: every theta lies within pi/grid of one,
    and |g'| <= sum |k| |c_k|.  Raises ResidueTooLarge if the increment sum
    is not close to an integer multiple of 2*pi.
    """
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    if callable(symbol):
        raw = [np.asarray(symbol(t)) for t in thetas]
        vals = np.array(
            [complex(r) if r.ndim == 0 else complex(np.linalg.det(r)) for r in raw]
        )
        lipschitz = 0.0
    else:
        vals = circle_symbol_values(symbol, thetas)
        lipschitz = sum(abs(k) * abs(c) for k, c in _normalize_symbol(symbol).items())
    mags = np.abs(vals)
    floor = max(1e-12 * max(float(np.max(mags)), 1.0), lipschitz * np.pi / grid)
    if float(np.min(mags)) <= floor:
        raise SingularSymbol("symbol vanishes on or between the grid samples")
    increments = np.angle(vals[np.r_[1:grid, 0]] / vals)
    total = float(np.sum(increments)) / (2.0 * np.pi)
    nearest = round(total)
    if abs(total - nearest) > residue_tol:
        raise ResidueTooLarge(
            "winding residue %.3e exceeds %.3e (grid too coarse?)"
            % (abs(total - nearest), residue_tol)
        )
    return int(nearest)


def chern_number_fhs(
    bloch, grid: int = 48, residue_tol: float = 0.01
) -> int:
    """Occupied(lower)-band Chern number via plaquette field strengths.

    bloch: callable (k1, k2) -> Hermitian 2x2 matrix.  Link variables are
    overlaps of lower-band eigenvectors at neighbouring grid momenta; the
    plaquette phase sum is quantized on any grid fine enough to resolve the
    gap.  Raises GapClosure if the bands touch on the grid.
    """
    ks = 2.0 * np.pi * np.arange(grid) / grid
    vecs = np.empty((grid, grid, 2), dtype=complex)
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            h = np.asarray(bloch(k1, k2), dtype=complex)
            w, v = np.linalg.eigh(h)
            if w[1] - w[0] < 1e-8:
                raise GapClosure(
                    "bands touch at k=(%.4f, %.4f); invariant undefined" % (k1, k2)
                )
            vecs[i, j] = v[:, 0]

    u1 = np.einsum("ijc,ijc->ij", vecs.conj(), np.roll(vecs, -1, axis=0))
    u2 = np.einsum("ijc,ijc->ij", vecs.conj(), np.roll(vecs, -1, axis=1))
    if np.any(np.abs(u1) < 1e-12) or np.any(np.abs(u2) < 1e-12):
        raise GapClosure("vanishing link variable; grid too coarse")
    plaq = u1 * np.roll(u2, -1, axis=0) * np.conj(np.roll(u1, -1, axis=1)) * np.conj(u2)
    total = float(np.sum(np.angle(plaq))) / (2.0 * np.pi)
    nearest = round(total)
    if abs(total - nearest) > residue_tol:
        raise ResidueTooLarge(
            "band-invariant residue %.3e exceeds %.3e" % (abs(total - nearest), residue_tol)
        )
    return int(nearest)


def _sector_radii(gram: sp.sparray) -> tuple[np.ndarray, np.ndarray | None]:
    """|D| eigenvalues and eigenvectors within one grading sector.

    gram is the (sparse) sector block of D^2.  Site-diagonal models make it
    exactly diagonal; the eigenvectors are then the coordinate basis,
    returned as None.  Otherwise a dense eigh supplies them.
    """
    coo = gram.tocoo()
    if not np.any(coo.data[coo.row != coo.col]):
        return np.sqrt(np.clip(gram.diagonal().real, 0.0, None)), None
    lam, vecs = np.linalg.eigh(gram.toarray())
    return np.sqrt(np.clip(lam, 0.0, None)), vecs


def fredholm_index_graded(
    graded: GradedOperator,
    rho_window: float | None = None,
    tol: float | None = None,
    eig_sep_tol: float = EIG_SEP_TOL,
) -> int:
    """dim ker - dim coker of the plus block, restricted to the |D| window.

    The window is |D| <= rho_window under the core.window_mask rule, applied
    to both grading sectors at once (their |D| eigenvalues together are
    those of D), so one sector may be empty but not both.

    Kernel dimensions are column counts minus ranks from singular values of
    the window-restricted block, the only part densified.  Singular values
    inside the ambiguity decade [tol/10, 10*tol] raise AmbiguousKernel;
    counting them either way would be a silent guess.
    """
    dplus = graded.block_plus
    if rho_window is None:
        a = dplus.toarray()
    else:
        r_plus, v_plus = _sector_radii(dplus.conj().T @ dplus)
        r_minus, v_minus = _sector_radii(dplus @ dplus.conj().T)
        keep = window_mask(np.concatenate([r_plus, r_minus]), rho_window, eig_sep_tol)
        keep_plus, keep_minus = keep[: r_plus.size], keep[r_plus.size :]
        # a coordinate basis selects by index, an eigenbasis is applied
        a = dplus[keep_minus] if v_minus is None else v_minus[:, keep_minus].conj().T @ dplus
        a = a[:, keep_plus] if v_plus is None else a @ v_plus[:, keep_plus]
        a = a.toarray() if sp.issparse(a) else a
    n_rows, n_cols = a.shape

    s = sla.svdvals(a) if min(a.shape) else np.array([])
    scale = float(s[0]) if s.size else 1.0
    if tol is None:
        tol = 1e-6 * max(scale, 1.0)
    if np.any((s >= tol / 10.0) & (s <= 10.0 * tol)):
        raise AmbiguousKernel(
            "singular values inside [%.2e, %.2e]; kernel dimension ill-defined"
            % (tol / 10.0, 10.0 * tol)
        )
    rank = int(np.sum(s > tol))
    return (n_cols - rank) - (n_rows - rank)


def _toeplitz_count(
    w: np.ndarray,
    v: np.ndarray,
    u: np.ndarray,
    window: float,
    margin: float,
    tol: float,
    zero_tol: float,
    eig_sep_tol: float,
) -> int:
    dist = np.abs(w - window)
    if np.any(dist < eig_sep_tol):
        raise BoundaryEigenvalue(
            "D eigenvalue within %.3e of the window edge %.6g"
            % (float(np.min(dist)), window)
        )
    sel = (w > zero_tol) & (w <= window)
    if not sel.any():
        raise ValidationError("empty positive window (0, %.6g]" % window)
    cols = v[:, sel]
    wsel = w[sel]
    a = cols.conj().T @ u @ cols
    uu, s, vh = np.linalg.svd(a)
    if np.any((s >= tol / 10.0) & (s <= 10.0 * tol)):
        raise AmbiguousKernel("singular values in the ambiguity decade around %.2e" % tol)
    small = s < tol
    # Vectors supported at the artificial cut near the window top are
    # compression artifacts; genuine kernel/cokernel modes live at the
    # spectral boundary near 0.
    edge = wsel > window - margin
    ker = coker = 0
    for col in np.flatnonzero(small):
        if float(np.sum(np.abs(vh[col]) ** 2 * edge)) <= 0.5:
            ker += 1
        if float(np.sum(np.abs(uu[:, col]) ** 2 * edge)) <= 0.5:
            coker += 1
    return ker - coker


def toeplitz_index(
    u: np.ndarray,
    dirac,
    window: float,
    margin: float = 5.0,
    tol: float = 1e-8,
    zero_tol: float = 1e-8,
    eig_sep_tol: float = EIG_SEP_TOL,
) -> int:
    """Index of the compression of a unitary to the positive-D window (0, W].

    The count is repeated on the shrunk window W-2 and must agree, otherwise
    WindowInstability is raised.  margin sets the edge zone (in units of D
    eigenvalues) used to discard compression artifacts at the top cut.
    """
    u = np.asarray(u, dtype=np.complex128)
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if defect > 1e-10:
        raise NonUnitary("u fails unitarity by %.3e" % defect)
    w, v = np.linalg.eigh(as_matrix(getattr(dirac, "matrix", dirac)))
    first = _toeplitz_count(w, v, u, window, margin, tol, zero_tol, eig_sep_tol)
    second = _toeplitz_count(w, v, u, window - 2.0, margin, tol, zero_tol, eig_sep_tol)
    if first != second:
        raise WindowInstability(
            "index changed from %d to %d when the window shrank from %.6g to %.6g"
            % (first, second, window, window - 2.0)
        )
    return first

"""Finite-dimensional spectral primitives.

Everything downstream reduces to inertia counts, gaps and norms of
Hermitian matrices.  One kernel diagonalises, ``hermitian_eigenvalues``; it
validates its input (square, non-empty, finite, Hermitian within
HERM_TOL_FACTOR), sparse input on its stored entries, and picks its route
from the matrix itself: zhbevd on the band of sparse input of small reverse
Cuthill-McKee bandwidth (BAND_POWER), else eigvalsh on a dense copy.

One primitive counts, ``_Counter``: Sylvester's law of inertia on sparse
symmetric LUs (SuperLU, diagonal pivots) of the matrices on one sparse
pattern, in one of two ORDERINGS.  Its first LU finds the ordering, later
thresholds (and a walk's later samples) factor the copy permuted into it,
and a pivot that leaves the diagonal or vanishes is a decline.  The counts
at t are the eigenvalues above t, below -t and in [-t, t].  Every count is
read by two independent routes whose triples must agree exactly, or
:class:`~speclocaliser.errors.BackendDisagreement` is raised
(:class:`~speclocaliser.errors.FactorizationDeclined` when no LU is left):
``inertia`` checks its caller's eigenvalues against the counts, retrying a
declined LU in the second ordering; in ``certified_inertia`` the LU at 0
gives a truncated block's inertia, Lanczos or two band eigenvalues its gap
g, and one count pair in the second ordering confirms both; ``gap_counts``
decides a row ``gap >= b`` by counts in both orderings; a spectral-flow
walk counts each sample on its pattern's counter and checks each end in
the second ordering.  The count thresholds, with ||X||_1 the larger
absolute row sum of a walk's ends (a bound on both spectral radii), L_w
the truncated window localiser and r(A) = 3 sqrt(n) eps ||A||_inf:

  walk samples (``eps``)       1e-6 ||X||_1                    flow.sf_crossings
  walk end checks              1e-8 ||X||_1                    flow.sf_crossings
  pairing ``zero_tol``         1e-8 (kappa max|D_w| + ||K||),  localiser.pairing
                               a Weyl bound on ||L_w||
  truncated gap confirmation   its Lanczos bound, or the       certified_inertia
                               band's max(g - r(A), zero_tol)
  complement and regime gaps   b - 1e-9, b the row's bound,    gap_counts
                               on applicable rows only
  ``inertia`` by default       1e-8 max|eigenvalue|            inertia

Model operators (D, K and D's eigenvectors) are stored sparse, as
:class:`CsrOperator` arrays validated on their nonzeros by
``hermitian_csr``, so a model costs O(nnz) at any size.  Dense copies are
capped at ``DENSE_DIM_LIMIT`` rows (a band is not): the kernel's, the D
eigensystem and K spectrum of a model without closed forms, and the inputs
of the small-model oracles and flows.  ``commutator_norm`` (Lanczos on the
Gram matrix of the masked commutator, an upper bound) and the truncated
gap (shift-invert Lanczos on the LU at 0, a lower bound, or bisection on
the band) stay sparse, Lanczos padded by its residual in the safe direction.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    BackendDisagreement,
    BoundaryEigenvalue,
    DimensionMismatch,
    FactorizationDeclined,
    ValidationError,
)

__all__ = [
    "DENSE_DIM_LIMIT",
    "CsrOperator",
    "Inertia",
    "as_matrix",
    "hermitian_csr",
    "hermitian_eigenvalues",
    "hermitian_matrix",
    "max_abs_entry",
    "eigenvalue_counts",
    "inertia",
    "window_mask",
    "gap_counts",
    "certified_inertia",
    "commutator_norm",
]

# Caps every dense copy: the eigenvalue kernel's and the inputs of the dense
# small-model helpers.  Sparse model storage and bands are not capped.
DENSE_DIM_LIMIT = 10_000

# zero_tol (relative default) separates "invertible" from "kernel"; the
# Hermitian tolerance (relative) bounds the allowed asymmetry of inputs;
# EIG_SEP_TOL is the least distance of a D eigenvalue from a window edge.
ZERO_TOL_FACTOR = 1e-8
HERM_TOL_FACTOR = 1e-12
EIG_SEP_TOL = 1e-6

# the routes of certified_inertia, named in the truncated_gap certificate
SPARSE_GAP_ROUTE = "sparse Lanczos, Sylvester-certified lower bound"
DENSE_EIG_ROUTE = "dense eigvalsh"

# a sparse matrix takes the banded eigenvalue route when its reverse
# Cuthill-McKee bandwidth to the power BAND_POWER is at most its dimension:
# bandwidth-1 circle and shift windows and the kappa D - Gamma end of a QWZ
# suspension do, QWZ windows (bandwidth 27 and up) do not
BAND_POWER = 2

# SuperLU column orderings of the two Sylvester count routes
ORDERINGS = ("MMD_AT_PLUS_A", "COLAMD")

# Lanczos basis size of commutator_norm: the top of the [D, K] Gram spectrum
# is tightly clustered, and 40 vectors converge it fastest on QWZ boxes.
_LANCZOS_NCV = 40


class CsrOperator(sp.csr_array):
    """CSR storage of a model operator.

    nbytes reports the stored footprint (data, indices and index pointers),
    as ndarray.nbytes does for a dense matrix.
    """

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes + self.indices.nbytes + self.indptr.nbytes)


def _check_shape(shape: tuple) -> None:
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch("expected a square matrix, got shape %s" % (shape,))
    if shape[0] == 0:
        raise ValidationError("empty matrix")


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values.view(np.float64))):
        raise ValidationError("matrix contains non-finite entries")


def as_matrix(m) -> np.ndarray:
    """A validated dense copy of a dense or sparse square matrix (square,
    non-empty, at most DENSE_DIM_LIMIT rows, finite)."""
    shape = m.shape if sp.issparse(m) else np.shape(m)
    _check_shape(shape)
    if shape[0] > DENSE_DIM_LIMIT:
        raise ValidationError("dimension %d exceeds dense limit %d" % (shape[0], DENSE_DIM_LIMIT))
    # C order: the dense copy of a CSC array is Fortran-ordered, and the
    # finiteness check reads it as a float view
    m = np.ascontiguousarray(m.toarray() if sp.issparse(m) else m, dtype=np.complex128)
    _check_finite(m)
    return m


def max_abs_entry(m) -> float:
    """Largest entry modulus; sparse input is read on its stored entries only."""
    values = m.data if sp.issparse(m) else m
    return float(np.max(np.abs(values), initial=0.0))


def _check_hermitian(m) -> None:
    # Entrywise max defect against a max-entry scale; cheap and dimension-free.
    tol = HERM_TOL_FACTOR * max(max_abs_entry(m), 1.0)
    defect = max_abs_entry(m - m.conj().T)
    if defect > tol:
        raise ValidationError(
            "matrix is not Hermitian: max asymmetry %.3e exceeds tol %.3e"
            % (defect, tol)
        )


def hermitian_csr(m) -> CsrOperator:
    """Validate a Hermitian matrix, dense or sparse, into CSR storage.

    The eigenvalue kernel's contract (square, non-empty, finite, entrywise
    asymmetry within the default tolerance) with no dimension cap; every
    check reads the stored entries only.
    """
    m = CsrOperator(m, dtype=np.complex128)
    _check_shape(m.shape)
    _check_finite(m.data)
    _check_hermitian(m)
    return m


def _nonzero_entries(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzero stored entries of a CSR a.

    Stored zeros are masked out, so that the band order and the band it
    orders read one pattern."""
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    nonzero = a.data != 0
    return rows[nonzero], a.indices[nonzero], a.data[nonzero]


def _band_order(a) -> tuple[np.ndarray, int] | None:
    """(position, bandwidth) of a sparse (CSR) a whose reverse Cuthill-McKee
    bandwidth b, read off its nonzero pattern, has b**BAND_POWER <= dim,
    where position[i] is row i's place in that order; None for any other input.

    The order is read off the off-diagonal nonzeros: scipy's RCM counts a
    stored diagonal entry in its row's degree, so whether a (zero) diagonal
    entry is stored would otherwise change the order."""
    if not sp.issparse(a):
        return None
    from scipy.sparse.csgraph import reverse_cuthill_mckee  # deferred: loads sparse.linalg
    n = a.shape[0]
    rows, cols, _ = _nonzero_entries(a)
    off = rows != cols
    indptr = np.searchsorted(rows[off], np.arange(n + 1))
    graph = sp.csr_array((np.ones(np.count_nonzero(off)), cols[off], indptr), shape=a.shape)
    position = np.argsort(reverse_cuthill_mckee(graph, symmetric_mode=True))
    bandwidth = int(np.max(np.abs(position[rows] - position[cols]), initial=0))
    return (position, bandwidth) if bandwidth**BAND_POWER <= n else None


def _eigensolve(a, order, select=None) -> np.ndarray:
    """Ascending eigenvalues of a validated Hermitian a: zhbevd on a's upper
    band in the order of _band_order (zhbevx, by bisection, for the indices
    select = (lo, hi) alone), or eigvalsh (zheevd) on an as_matrix copy when
    order is None."""
    if order is None:
        return np.linalg.eigvalsh(as_matrix(a))
    position, bandwidth = order
    rows, cols, values = _nonzero_entries(a)
    rows, cols = position[rows], position[cols]
    upper = rows <= cols
    band = np.zeros((bandwidth + 1, a.shape[0]), dtype=np.complex128)
    band[bandwidth + rows[upper] - cols[upper], cols[upper]] = values[upper]
    return sla.eigvals_banded(band, select="a" if select is None else "i", select_range=select)


def hermitian_matrix(a):
    """The eigenvalue kernel's validated copy of a Hermitian matrix:
    hermitian_csr's for sparse input, as_matrix's, checked Hermitian, for
    dense input."""
    if sp.issparse(a):
        return hermitian_csr(a)
    a = as_matrix(a)
    _check_hermitian(a)
    return a


def hermitian_eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, the eigenvalue kernel.

    The input must be square, non-empty, finite and Hermitian within
    HERM_TOL_FACTOR (ValidationError, or DimensionMismatch if not square),
    sparse input on its stored entries.  Sparse input narrow enough for
    _band_order goes to LAPACK's zhbevd in that order, at any dimension; any
    other is densified for eigvalsh, at most DENSE_DIM_LIMIT rows.
    """
    a = hermitian_matrix(a)
    return _eigensolve(a, _band_order(a))


@dataclasses.dataclass(frozen=True)
class Inertia:
    """Signed eigenvalue counts of a Hermitian matrix at a given zero_tol."""

    n_pos: int
    n_neg: int
    n_zero: int

    @property
    def signature(self) -> int:
        return self.n_pos - self.n_neg


def _on_pattern(m) -> sp.csc_array:
    """m as a canonical complex CSC array that stores its full diagonal, the
    form a _Counter reads; a dense m is stored on its nonzeros.  An m already
    in that form (a suspension sample, or a block converted once for the
    counters of both orderings) is not copied."""
    n = m.shape[0]
    c = sp.csc_array(m, dtype=np.complex128)
    c.sum_duplicates()
    cols = np.repeat(np.arange(n), np.diff(c.indptr))
    if np.count_nonzero(c.indices == cols) < n:
        # explicit zeros on the missing diagonal; COO->CSC keeps them
        c = sp.csc_array((np.concatenate([c.data, np.zeros(n)]),
                          (np.concatenate([c.indices, np.arange(n)]),
                           np.concatenate([cols, np.arange(n)]))), shape=m.shape)
    return c


class _Counter:
    """Sylvester counts of the Hermitian matrices on one sparse pattern, in
    one SuperLU ordering.

    a is read into an _on_pattern copy.  The first LU is of a itself, in the
    ordering, whose column order SuperLU computes from the structure alone;
    the second permutes the copy into that order, and every later one writes
    its values (a's, or data on a's _on_pattern layout) and shifted diagonal
    there and factors in NATURAL order.  With diagonal pivots (perm_r ==
    perm_c) P A P^T = L D L^* with D = diag(U), so by Sylvester's law the
    signs of U's diagonal are the inertia; a pivot off the diagonal or a
    zero pivot (SuperLU's singular error too) is a decline.
    """

    def __init__(self, a, ordering: str = ORDERINGS[0]):
        c = _on_pattern(a)
        self.ordering, self.values, self.matrix, self.dim = ordering, c.data, c.copy(), c.shape[0]
        self.order = None  # the first LU's column order, until the copy is permuted into it
        self.src = None  # position in a's layout of each permuted entry
        self.diag = np.flatnonzero(c.indices == np.repeat(np.arange(self.dim), np.diff(c.indptr)))

    def factor(self, shift: float, data=None):
        """(lu, signs of its pivots) of the matrix less shift*I, or None on a decline."""
        import scipy.sparse.linalg as spla  # deferred: only factorizations load SuperLU

        if self.order is not None:  # the second LU permutes the copy, once
            self._permute()
        m = self.matrix
        values = self.values if data is None else np.asarray(data)
        m.data[:] = values if self.src is None else values[self.src]
        m.data[self.diag] -= shift
        try:
            lu = spla.splu(
                m, permc_spec=self.ordering if self.src is None else "NATURAL",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            if "singular" not in str(exc):  # SuperLU: "Factor is exactly singular"
                raise
            return None
        if self.src is None:
            self.order = lu.perm_c
        pivots = lu.U.diagonal().real
        if not np.array_equal(lu.perm_r, lu.perm_c) or not np.all(pivots):
            return None
        return lu, np.sign(pivots)

    def _permute(self) -> None:
        # row/column i of a moves to order[i]; the entries are re-sorted into
        # the permuted CSC order
        m, n, order, self.order = self.matrix, self.dim, self.order, None
        rows = order[m.indices].astype(np.int64)
        cols = order[np.repeat(np.arange(n), np.diff(m.indptr))].astype(np.int64)
        self.src = np.argsort(cols * n + rows)
        rows, cols = rows[self.src], cols[self.src]
        indptr = np.searchsorted(cols, np.arange(n + 1)).astype(m.indptr.dtype)
        self.matrix = sp.csc_array((np.zeros_like(m.data), rows.astype(m.indices.dtype), indptr),
                                   shape=m.shape)
        self.diag = np.flatnonzero(rows == cols)

    def counts(self, zero_tol: float, data=None) -> tuple[int, int, int] | None:
        """Inertia at zero_tol from the LUs at shifts zero_tol (n_pos) and
        -zero_tol (n_neg), one LU at shift 0 when zero_tol is 0; None on a decline."""
        signs = []
        for shift in (zero_tol, -zero_tol) if zero_tol else (0.0,):
            factored = self.factor(shift, data)
            if factored is None:
                return None
            signs.append(factored[1])
        n_pos = int(np.sum(signs[0] > 0))
        n_neg = int(np.sum(signs[-1] < 0))
        return n_pos, n_neg, self.dim - n_pos - n_neg


def eigenvalue_counts(w: np.ndarray, eps: float) -> tuple[int, int, int]:
    """Counts of the eigenvalues w above eps, below -eps and within [-eps, eps]."""
    return int(np.sum(w > eps)), int(np.sum(w < -eps)), int(np.sum(np.abs(w) <= eps))


def inertia(a, eigenvalues: np.ndarray, zero_tol: float | None = None) -> Inertia:
    """Sign counts of the eigenvalues of a, cross-checked between two backends.

    eigenvalues are a's, from hermitian_eigenvalues; zero_tol defaults to
    1e-8 times their largest modulus.  Counts are strict: n_pos counts
    eigenvalues > zero_tol, n_zero those with |eig| <= zero_tol.  They must
    equal the Sylvester counts of a itself, or BackendDisagreement is
    raised; the LUs run in the first ordering, in the second when one
    declines, and FactorizationDeclined is raised when both do.
    """
    if zero_tol is not None and not (math.isfinite(zero_tol) and zero_tol >= 0):
        raise ValidationError("zero_tol must be finite and non-negative, got %r" % zero_tol)
    n = a.shape[0]
    if np.shape(eigenvalues) != (n,):
        raise DimensionMismatch("%d eigenvalues for %d rows" % (np.size(eigenvalues), n))
    if zero_tol is None:
        zero_tol = ZERO_TOL_FACTOR * float(np.max(np.abs(eigenvalues)))
    tol, c = float(zero_tol), _on_pattern(a)
    eig_counts = eigenvalue_counts(eigenvalues, tol)
    factor_counts = _Counter(c).counts(tol) or _Counter(c, ORDERINGS[1]).counts(tol)
    if factor_counts is None:
        raise FactorizationDeclined("LUs at -/+%.3e declined in both orderings" % tol)
    if eig_counts != factor_counts:
        raise BackendDisagreement(eig_counts, factor_counts, tol)
    return Inertia(*eig_counts)


def window_mask(w: np.ndarray, rho: float) -> np.ndarray:
    """The spectral window rule: mask of the eigenvalues w with |w| <= rho.

    Raises BoundaryEigenvalue if any eigenvalue lies within EIG_SEP_TOL of
    +/-rho, since window membership must be unambiguous, and
    ValidationError if the window is empty.
    """
    dist = np.abs(np.abs(w) - rho)
    if np.any(dist < EIG_SEP_TOL):
        raise BoundaryEigenvalue(
            "eigenvalue within %.3e of the window edge +/-%.6g (eig_sep_tol %.3e)"
            % (float(np.min(dist)), rho, EIG_SEP_TOL)
        )
    mask = np.abs(w) <= rho
    if not mask.any():
        raise ValidationError("empty window at rho=%.6g" % rho)
    return mask


def _seeded_start(n: int) -> np.ndarray:
    # seeded, so reproducible; a constant start can miss a symmetric eigenspace
    return [1.0, 1j] @ np.random.default_rng(0).standard_normal((2, n))


def gap_counts(a, bound: float) -> tuple[int, int, int]:
    """Sylvester counts of a Hermitian a at plus and minus bound less 1e-9.

    An empty zero class proves that no eigenvalue of a lies within
    bound - 1e-9 of 0 (the 1e-9 absorbs the rounding of a bound that the gap
    attains exactly).  The counts are read in the first ordering and checked
    against the second: a mismatch raises BackendDisagreement, a decline in
    one ordering leaves the other's counts, and FactorizationDeclined is
    raised when both decline.
    """
    tol, c = max(bound - 1e-9, 0.0), _on_pattern(a)
    first, second = (_Counter(c, ordering).counts(tol) for ordering in ORDERINGS)
    if first is None and second is None:
        raise FactorizationDeclined("LUs at -/+%.3e declined in both orderings" % tol)
    if first is not None and second is not None and first != second:
        raise BackendDisagreement(first, second, tol)
    return first or second


def _rounding(a) -> float:
    """3 sqrt(n) eps ||A||_inf, thrice the rounding level of an n-row LU of a:
    a gap estimate less it survives the rounding of the LUs that count it."""
    return 3.0 * np.sqrt(a.shape[0]) * np.finfo(float).eps * abs(a).sum(axis=1).max()


def _lanczos_gap(a: sp.sparray) -> tuple[float, tuple[int, int, int]] | None:
    """An estimated lower bound on min |eigenvalue| of a and the inertia read
    off the pivot signs (none zero) of the first ordering's LU of a at 0, or
    None (a decline, an ARPACK failure or a bound not above 0).

    Shift-invert Lanczos, with that LU as the inverse, finds the eigenpair
    (theta, y) nearest 0; the bound, |theta| - ||A y - theta y|| less
    _rounding(a), is confirmed by certified_inertia, not here.
    """
    n = a.shape[0]
    factored = _Counter(a).factor(0.0) if n > 2 else None  # complex ARPACK needs k = 1 < n - 1
    if factored is None:
        return None
    import scipy.sparse.linalg as spla  # deferred: only certificates load ARPACK

    solve = spla.LinearOperator(a.shape, matvec=factored[0].solve, dtype=np.complex128)
    try:
        theta, y = spla.eigsh(a, k=1, sigma=0.0, OPinv=solve, v0=_seeded_start(n))
    except spla.ArpackError:
        return None
    theta, y = theta[0], y[:, 0]
    lower = abs(theta) - np.linalg.norm(a @ y - theta * y) - _rounding(a)
    if not lower > 0:
        return None
    return float(lower), (int(np.sum(factored[1] > 0)), int(np.sum(factored[1] < 0)), 0)


def _band_gap(a, c, order) -> tuple[float, tuple[int, int, int]] | None:
    """min |eigenvalue| of a banded CSR a, read off its eigenvalues of ascending
    indices n_neg - 1 and n_neg alone, and the inertia of the first ordering's
    LU at 0 of c (a's _on_pattern copy) with n_neg negative pivots, or None on
    a decline.  The two bracket 0 unless within _rounding(a) of it, else BackendDisagreement."""
    factored = _Counter(c).factor(0.0)
    if factored is None:
        return None
    n, n_neg = a.shape[0], int(np.sum(factored[1] < 0))
    w = _eigensolve(a, order, (max(n_neg - 1, 0), min(n_neg, n - 1)))
    signs, bracket = eigenvalue_counts(w, 0.0), (int(n_neg < n), int(n_neg > 0), 0)
    if signs != bracket and np.min(np.abs(w)) > _rounding(a):
        raise BackendDisagreement(signs, bracket, 0.0)
    return float(np.min(np.abs(w))), (n - n_neg, n_neg, 0)


def certified_inertia(a, zero_tol: float) -> tuple[float, Inertia, str]:
    """min |eigenvalue| of a Hermitian a, its inertia at zero_tol, and the
    name of the route that measured them.

    The first ordering's LU at 0 gives the inertia, Lanczos (_lanczos_gap,
    SPARSE_GAP_ROUTE) or two band eigenvalues (_band_gap) the gap g, and one
    count pair in the second ordering confirms both at the Lanczos bound or
    the band's max(g - _rounding(a), zero_tol), no eigenvalue lying between
    that and zero_tol: an empty zero class (else a Lanczos bound falls back)
    and the LU's triple, else BackendDisagreement.  A decline or a g not
    above zero_tol falls to the kernel's full spectrum (zhbevd or eigvalsh)
    and ``inertia`` at max(g - _rounding(a), zero_tol).
    """
    a = hermitian_csr(a)
    c, order = _on_pattern(a), _band_order(a)
    band_route = None if order is None else "banded eigensolve, bandwidth %d" % order[1]
    got = _lanczos_gap(c) if order is None else _band_gap(a, c, order)
    if got is not None and got[0] > zero_tol:
        tol = got[0] if order is None else max(got[0] - _rounding(a), zero_tol)
        second = _Counter(c, ORDERINGS[1]).counts(tol)
        if second is not None and (order is not None or not second[2]):
            if second != got[1]:
                raise BackendDisagreement(got[1], second, tol)
            return got[0], Inertia(*second), band_route or SPARSE_GAP_ROUTE
    w = _eigensolve(a, order)
    gap = float(np.min(np.abs(w)))
    return gap, inertia(c, w, max(gap - _rounding(a), zero_tol)), band_route or DENSE_EIG_ROUTE


def commutator_norm(d, x, interior_mask: np.ndarray | None = None) -> float:
    """Operator norm of [D, X], restricted to interior_mask when given.

    Periodic identifications put O(box) entries on the seam of [D, X]; the
    interior mask excludes rows and columns touching the seam, and the
    masked value is the one certificates use.  For the masked sparse C it is
    sqrt(lambda_max(C* C)) by seeded Lanczos, padded by the residual as
    sqrt(theta + ||G y - theta y||) so that it cannot loosen a cap built on
    it; blocks too small for ARPACK take a dense eigensolve.
    """
    ds = sp.csr_array(d)
    xs = sp.csr_array(x)
    if xs.shape != ds.shape:
        raise DimensionMismatch(
            "operand shapes differ: %s vs %s" % (ds.shape, xs.shape)
        )
    comm = ds @ xs - xs @ ds
    if interior_mask is not None:
        mask = np.asarray(interior_mask, dtype=bool)
        if mask.shape != (ds.shape[0],):
            raise DimensionMismatch("interior mask length does not match matrix dimension")
        keep = np.flatnonzero(mask)
        comm = comm[keep][:, keep]
    gram = (comm.conj().T @ comm).tocsr()
    if gram.count_nonzero() == 0:  # e.g. K = +-I; ARPACK rejects a zero start
        return 0.0
    if gram.shape[0] <= _LANCZOS_NCV:
        return float(np.sqrt(np.linalg.eigvalsh(gram.toarray())[-1]))
    import scipy.sparse.linalg as spla  # deferred: only certificates load ARPACK
    theta, y = spla.eigsh(
        gram, k=1, which="LA", v0=_seeded_start(gram.shape[0]), ncv=_LANCZOS_NCV, tol=1e-14
    )
    residual = np.linalg.norm(gram @ y[:, 0] - theta[0] * y[:, 0])
    return float(np.sqrt(theta[0] + residual))

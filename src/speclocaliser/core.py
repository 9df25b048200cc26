"""Finite-dimensional spectral primitives.

Everything downstream (localiser assembly, truncation, spectral flow) reduces
to a handful of operations on Hermitian matrices: inertia counts, gaps and
norms.  One kernel diagonalises, ``hermitian_eigenvalues``; it validates
its input (square, non-empty, finite, Hermitian within HERM_TOL_FACTOR, at
most DENSE_DIM_LIMIT rows), sparse input on its stored entries, and picks
its route from the matrix itself: zhbevd for sparse input whose reverse
Cuthill-McKee bandwidth is small (BAND_POWER), eigvalsh for the rest.
Counts come from Sylvester's law of inertia on a sparse symmetric LU
(SuperLU, diagonal pivots, one of two ORDERINGS), which declines when a
pivot leaves the diagonal or vanishes; matrices that share one sparse
pattern (the samples of a spectral-flow walk) share one pattern counter,
which computes the first ordering once and factors each in it.  Every
inertia is read by two independent routes whose count triples must agree
exactly, or :class:`~speclocaliser.errors.BackendDisagreement` is raised:
``inertia`` checks the eigenvalues its caller holds against LU counts (a
declined LU is retried in the second ordering), and ``certified_inertia``,
which makes the whole choice for a truncated block, checks either its
banded eigenvalues that way or, with no eigensolve, the counts that confirm
``certified_gap``'s bound against LUs in the second ordering.

Model operators (D, K and D's eigenvectors) are stored sparse, as
:class:`CsrOperator` arrays validated on their nonzeros by
``hermitian_csr``, so a model costs O(nnz) at any size.  Dense copies are
capped at ``DENSE_DIM_LIMIT`` rows: the eigenvalue kernel's, the D
eigensystem and K spectrum of a model without closed forms, and the inputs
of the small-model oracles and flows.  ``commutator_norm`` (Lanczos on the
Gram matrix of the masked commutator, an upper bound) and ``certified_gap``
(shift-invert Lanczos on the LU, a lower bound confirmed by Sylvester
counts) stay sparse, each padded by its residual in the safe direction.
"""

from __future__ import annotations

import dataclasses
import functools
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
    "certified_gap",
    "certified_inertia",
    "commutator_norm",
]

# Caps every dense matrix: window localisers and the inputs of the dense
# small-model helpers.  Sparse model storage is not capped.
DENSE_DIM_LIMIT = 10_000

# zero_tol (relative default) separates "invertible" from "kernel"; the
# Hermitian tolerance (relative) bounds the allowed asymmetry of inputs;
# EIG_SEP_TOL is the least distance of a D eigenvalue from a window edge.
ZERO_TOL_FACTOR = 1e-8
HERM_TOL_FACTOR = 1e-12
EIG_SEP_TOL = 1e-6

# certified_gap routes, named in the certificates they measure
SPARSE_GAP_ROUTE = "sparse Lanczos, Sylvester-certified lower bound"
DENSE_GAP_ROUTE = "dense eigvalsh fallback"

# a sparse matrix takes the banded eigenvalue route when its reverse
# Cuthill-McKee bandwidth to the power BAND_POWER is at most its dimension:
# bandwidth-1 circle and shift windows and the kappa D - Gamma end of a QWZ
# suspension do, QWZ windows (bandwidth 27 and up) do not
BAND_POWER = 2
DENSE_EIG_ROUTE = "dense eigvalsh"

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


def _check_dense_dim(n: int) -> None:
    if n > DENSE_DIM_LIMIT:
        raise ValidationError("dimension %d exceeds dense limit %d" % (n, DENSE_DIM_LIMIT))


def as_matrix(m) -> np.ndarray:
    """A validated dense copy of a dense or sparse square matrix (square,
    non-empty, at most DENSE_DIM_LIMIT rows, finite)."""
    shape = m.shape if sp.issparse(m) else np.shape(m)
    _check_shape(shape)
    _check_dense_dim(shape[0])
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


def _eigensolve(a, order) -> np.ndarray:
    """Ascending eigenvalues of a validated Hermitian a: LAPACK's zhbevd on
    a's upper band in the order of _band_order, or eigvalsh (zheevd) when
    order is None."""
    _check_dense_dim(a.shape[0])
    if order is None:
        return np.linalg.eigvalsh(a.toarray() if sp.issparse(a) else a)
    position, bandwidth = order
    rows, cols, values = _nonzero_entries(a)
    rows, cols = position[rows], position[cols]
    upper = rows <= cols
    band = np.zeros((bandwidth + 1, a.shape[0]), dtype=np.complex128)
    band[bandwidth + rows[upper] - cols[upper], cols[upper]] = values[upper]
    return sla.eigvals_banded(band, lower=False, check_finite=False)


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

    The input must be square, non-empty, finite, Hermitian within
    HERM_TOL_FACTOR and at most DENSE_DIM_LIMIT rows (ValidationError, or
    DimensionMismatch for a non-square one); sparse input is checked on its
    stored entries.  Sparse input narrow enough for _band_order goes to
    LAPACK's zhbevd in that order, any other is densified for eigvalsh.
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


def _symmetric_lu(a: sp.sparray, ordering: str = ORDERINGS[0]):
    """Sparse LU of a with symmetric ordering and diagonal pivots.

    When every pivot stays on the diagonal (perm_r == perm_c), the factors
    read P A P^T = L D L^* with D = diag(U), so by Sylvester's law the signs
    of U's diagonal are the inertia of a.  Returns (lu, those signs), or
    None (a decline) when a pivot left the diagonal or is zero, SuperLU's
    exactly-singular error included.
    """
    import scipy.sparse.linalg as spla  # deferred: only factorizations load SuperLU

    try:
        lu = spla.splu(
            sp.csc_array(a), permc_spec=ordering, diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        if "singular" not in str(exc):  # SuperLU: "Factor is exactly singular"
            raise
        return None
    pivots = lu.U.diagonal().real
    if not np.array_equal(lu.perm_r, lu.perm_c) or not np.all(pivots):
        return None
    return lu, np.sign(pivots)


def _sylvester_counts(shifted, n: int, zero_tol: float, ordering: str):
    """Inertia from sparse LUs of shifted(zero_tol) and shifted(-zero_tol),
    the n-row matrix less that multiple of I, in one SuperLU ordering (n_pos
    from the first, n_neg from the second); None on a decline."""
    signs = []
    for shift in (zero_tol, -zero_tol) if zero_tol else (0.0,):
        factored = _symmetric_lu(shifted(shift), ordering)
        if factored is None:
            return None
        signs.append(factored[1])
    n_pos = int(np.sum(signs[0] > 0))
    n_neg = int(np.sum(signs[-1] < 0))
    return n_pos, n_neg, n - n_pos - n_neg


def _inertia_sylvester(a, zero_tol: float, ordering=ORDERINGS[0]) -> tuple[int, int, int] | None:
    """Inertia from sparse LUs of a -/+ zero_tol*I in one SuperLU ordering
    (n_pos from the first, n_neg from the second); None on a decline.

    The shifts are written into the stored diagonal of one complex CSC copy
    of a: a sparse sum with zero_tol*I costs as much as the factorization.
    """
    m = sp.csc_array(a, dtype=np.complex128, copy=True)
    d = m.diagonal()

    def shifted(shift):
        if shift:
            m.setdiag(d - shift)
        return m

    return _sylvester_counts(shifted, m.shape[0], zero_tol, ordering)


def _pattern_counter(pattern: sp.csc_array):
    """Sylvester counts of the Hermitian matrices stored on one pattern.

    pattern is a canonical CSC array that stores its full diagonal.  The
    fill-reducing symmetric order (ORDERINGS[0]) is computed once, from the
    structure alone, and the pattern is permuted into it; the returned
    count(data, zero_tol) takes the values of a matrix on pattern, writes
    them and their shifted diagonal into the one permuted copy and factors it
    in NATURAL order, giving _inertia_sylvester's triple, or None on a decline.
    """
    import scipy.sparse.linalg as spla  # deferred: only factorizations load SuperLU

    n = pattern.shape[0]
    cols = np.repeat(np.arange(n), np.diff(pattern.indptr))
    rows = pattern.indices
    # a strictly diagonally dominant matrix on the pattern factors with
    # diagonal pivots, so SuperLU returns the order of the structure alone
    values = np.where(rows == cols, float(n), 1.0)
    order = spla.splu(
        sp.csc_array((values, rows, pattern.indptr), shape=pattern.shape),
        permc_spec=ORDERINGS[0], diag_pivot_thresh=0.0, options={"SymmetricMode": True},
    ).perm_c
    rows, cols = order[rows], order[cols]
    src = np.lexsort((rows, cols))  # stored entries in the permuted CSC order
    rows, cols = rows[src], cols[src]
    indices = rows.astype(pattern.indices.dtype)
    indptr = np.searchsorted(cols, np.arange(n + 1)).astype(pattern.indptr.dtype)
    diag = np.flatnonzero(rows == cols)
    m = sp.csc_array((np.zeros(src.size, dtype=np.complex128), indices, indptr),
                     shape=pattern.shape)

    def count(data: np.ndarray, zero_tol: float) -> tuple[int, int, int] | None:
        m.data[:] = np.asarray(data)[src]
        d = m.data[diag]

        def shifted(shift):
            if shift:
                m.data[diag] = d - shift
            return m

        return _sylvester_counts(shifted, n, zero_tol, "NATURAL")

    return count


# the second count route, bound here so that it stays independent of the first
_inertia_second = functools.partial(_inertia_sylvester, ordering=ORDERINGS[1])


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
    tol = float(zero_tol)
    eig_counts = eigenvalue_counts(eigenvalues, tol)
    factor_counts = _inertia_sylvester(a, tol) or _inertia_second(a, tol)
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


def _sylvester_gap(a: sp.sparray) -> tuple[float, tuple[int, int, int]] | None:
    """A certified lower bound on min |eigenvalue| of a and the counts that
    confirm it, or None (a decline)."""
    n = a.shape[0]
    if n <= 2:  # complex ARPACK needs k = 1 < n - 1
        return None
    factored = _symmetric_lu(a)
    if factored is None:
        return None
    import scipy.sparse.linalg as spla  # deferred: only certificates load ARPACK

    solve = spla.LinearOperator(a.shape, matvec=factored[0].solve, dtype=np.complex128)
    try:
        theta, y = spla.eigsh(a, k=1, sigma=0.0, OPinv=solve, v0=_seeded_start(n))
    except spla.ArpackError:
        return None
    theta, y = theta[0], y[:, 0]
    # residual bound, less three times the rounding level sqrt(n) eps ||A||_inf
    # of an n-row factorization, so that it also holds under the rounding of
    # the counting factorizations (and of a dense eigensolver)
    rounding = 3.0 * np.sqrt(n) * np.finfo(float).eps * abs(a).sum(axis=1).max()
    lower = abs(theta) - np.linalg.norm(a @ y - theta * y) - rounding
    if not lower > 0:
        return None
    # no eigenvalue in [-lower, lower]: the Sylvester count at +/-lower has
    # an empty zero class
    counts = _inertia_sylvester(a, lower)
    if counts is None or counts[2]:
        return None
    return float(lower), counts


def certified_gap(a) -> tuple[float, str]:
    """min |eigenvalue| of a sparse Hermitian matrix, as a certified lower bound.

    Shift-invert Lanczos, with the sparse LU at shift 0 as the inverse,
    finds the eigenpair (theta, y) nearest 0; the gap is reported as
    |theta| - ||A y - theta y|| less a rounding margin, and accepted only
    when Sylvester counts at -/+ that value show no eigenvalue between them.  A declined LU, an
    ARPACK failure, a block of at most two rows or a failed count falls
    back to the least eigenvalue modulus from a dense eigvalsh.  Returns
    the gap and the name of the route that measured it (SPARSE_GAP_ROUTE or
    DENSE_GAP_ROUTE).
    """
    a = hermitian_csr(a)
    got = _sylvester_gap(a)
    if got is None:
        return float(np.min(np.abs(_eigensolve(a, None)))), DENSE_GAP_ROUTE
    return got[0], SPARSE_GAP_ROUTE


def certified_inertia(a, zero_tol: float) -> tuple[float, Inertia, str]:
    """min |eigenvalue| of a Hermitian a, its inertia at zero_tol, and the
    name of the route that measured them.

    A block narrow enough for _band_order is diagonalised once by zhbevd: the
    least eigenvalue modulus, and the inertia checked against LU counts.  Any
    other takes certified_gap's sparse lower bound (SPARSE_GAP_ROUTE) and the
    Sylvester counts that confirm it, checked against LUs at -/+zero_tol in
    the second ordering (else BackendDisagreement).  A decline, or a bound
    not above zero_tol, falls back to the eigensolve.
    """
    a = hermitian_csr(a)
    order = _band_order(a)
    got = _sylvester_gap(a) if order is None else None
    second = _inertia_second(a, zero_tol) if got and got[0] > zero_tol else None
    if second is not None:
        if second != got[1]:
            raise BackendDisagreement(got[1], second, zero_tol)
        return got[0], Inertia(*second), SPARSE_GAP_ROUTE
    w = _eigensolve(a, order)
    route = DENSE_EIG_ROUTE if order is None else "banded eigensolve, bandwidth %d" % order[1]
    return float(np.min(np.abs(w))), inertia(a, w, zero_tol), route


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

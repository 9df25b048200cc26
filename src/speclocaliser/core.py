"""Finite-dimensional spectral primitives.

Everything downstream (localiser assembly, truncation, spectral flow) reduces
to a handful of operations on dense Hermitian matrices: inertia counts,
spectral projections, gaps and norms.  Inertia is computed by two independent
routes, a full Hermitian eigendecomposition and a symmetric-indefinite
triangular factorization, and the two integer count triples must agree
exactly; a mismatch raises :class:`~speclocaliser.errors.BackendDisagreement`
rather than being averaged away.

Model operators (D, K and D's eigenvectors) are stored sparse, as
:class:`CsrOperator` arrays validated on their nonzeros by
``hermitian_csr``, so a model costs O(nnz) at any size.  Everything else
here is dense and capped at ``DENSE_DIM_LIMIT`` rows: localiser windows,
their compressions and the reference helpers, which densify sparse input at
their entry.  ``commutator_norm`` stays sparse throughout: Lanczos on the
Gram matrix of the masked commutator, padded by its residual.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    BackendDisagreement,
    BoundaryEigenvalue,
    DimensionMismatch,
    SingularMatrix,
    ValidationError,
)

__all__ = [
    "DENSE_DIM_LIMIT",
    "CsrOperator",
    "HermitianOperator",
    "Inertia",
    "Projection",
    "as_matrix",
    "hermitian_csr",
    "max_abs_entry",
    "inertia",
    "signature",
    "positive_spectral_projection",
    "interval_spectral_projection",
    "window_mask",
    "odd_block",
    "spectral_gap",
    "singular_gap",
    "operator_norm",
    "commutator_norm",
]

# Caps every dense matrix: windows, their localisers and the dense reference
# helpers.  Sparse model storage is not capped.
DENSE_DIM_LIMIT = 10_000

# Relative defaults.  zero_tol separates "invertible" from "kernel"; herm_tol
# bounds the allowed asymmetry of inputs; proj_tol bounds idempotency defects.
ZERO_TOL_FACTOR = 1e-8
HERM_TOL_FACTOR = 1e-12
PROJ_TOL = 1e-10
EIG_SEP_TOL = 1e-6

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


def _as_array(m) -> np.ndarray:
    # dense helpers take a dense copy of sparse (model) input
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def _check_shape(shape: tuple) -> None:
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch("expected a square matrix, got shape %s" % (shape,))
    if shape[0] == 0:
        raise ValidationError("empty matrix")


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values.view(np.float64))):
        raise ValidationError("matrix contains non-finite entries")


def _validate_square(m) -> np.ndarray:
    shape = m.shape if sp.issparse(m) else np.shape(m)
    _check_shape(shape)
    if shape[0] > DENSE_DIM_LIMIT:
        raise ValidationError(
            "dimension %d exceeds dense limit %d" % (shape[0], DENSE_DIM_LIMIT)
        )
    m = _as_array(m).astype(np.complex128, copy=False)
    _check_finite(m)
    return m


def max_abs_entry(m) -> float:
    """Largest entry modulus; sparse input is read on its stored entries only."""
    values = m.data if sp.issparse(m) else m
    return float(np.max(np.abs(values), initial=0.0))


def _check_hermitian(m, herm_tol: float | None) -> None:
    # Entrywise max defect against a max-entry scale; cheap and dimension-free.
    tol = herm_tol if herm_tol is not None else HERM_TOL_FACTOR * max(max_abs_entry(m), 1.0)
    defect = max_abs_entry(m - m.conj().T)
    if defect > tol:
        raise ValidationError(
            "matrix is not Hermitian: max asymmetry %.3e exceeds tol %.3e"
            % (defect, tol)
        )


def hermitian_csr(m) -> CsrOperator:
    """Validate a Hermitian matrix, dense or sparse, into CSR storage.

    The HermitianOperator contract (square, non-empty, finite, entrywise
    asymmetry within the default tolerance) with no dimension cap; every
    check reads the stored entries only.
    """
    m = CsrOperator(m, dtype=np.complex128)
    _check_shape(m.shape)
    _check_finite(m.data)
    _check_hermitian(m, None)
    return m


@dataclasses.dataclass(eq=False)
class HermitianOperator:
    """A validated dense Hermitian matrix with cached spectral data."""

    matrix: np.ndarray
    herm_tol: float | None = None

    def __post_init__(self):
        m = _validate_square(self.matrix)
        _check_hermitian(m, self.herm_tol)
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        w = np.linalg.eigvalsh(self.matrix)
        w.flags.writeable = False
        return w

    @cached_property
    def norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    @cached_property
    def gap(self) -> float:
        return float(np.min(np.abs(self.eigenvalues)))


def as_matrix(op) -> np.ndarray:
    """Accept a dense or sparse matrix or a HermitianOperator; return it dense."""
    if isinstance(op, HermitianOperator):
        return op.matrix
    return _validate_square(op)


def _hermitian_part(op) -> HermitianOperator:
    if isinstance(op, HermitianOperator):
        return op
    return HermitianOperator(op)


@dataclasses.dataclass(frozen=True)
class Inertia:
    """Signed eigenvalue counts of a Hermitian matrix at a given zero_tol."""

    n_pos: int
    n_neg: int
    n_zero: int

    @property
    def dim(self) -> int:
        return self.n_pos + self.n_neg + self.n_zero

    @property
    def signature(self) -> int:
        return self.n_pos - self.n_neg


def _ldl_block_signs(d: np.ndarray) -> tuple[int, int, int]:
    """Sign counts of the block-diagonal factor from an LDL^* factorization.

    The factor is block diagonal with 1x1 and 2x2 pivots; 2x2 blocks are
    flagged by a nonzero subdiagonal entry.  Eigenvalues of each block are
    computed in closed form.
    """
    n = d.shape[0]
    pos = neg = zero = 0
    i = 0
    while i < n:
        if i + 1 < n and d[i + 1, i] != 0:
            a = d[i, i].real
            c = d[i + 1, i + 1].real
            b = abs(d[i + 1, i])
            half_tr = 0.5 * (a + c)
            disc = np.hypot(0.5 * (a - c), b)
            for lam in (half_tr + disc, half_tr - disc):
                if lam > 0:
                    pos += 1
                elif lam < 0:
                    neg += 1
                else:
                    zero += 1
            i += 2
        else:
            lam = d[i, i].real
            if lam > 0:
                pos += 1
            elif lam < 0:
                neg += 1
            else:
                zero += 1
            i += 1
    return pos, neg, zero


def _inertia_factorization(m: np.ndarray, zero_tol: float) -> tuple[int, int, int]:
    """Inertia via LDL^* and Sylvester's law, thresholded by shifting.

    n_pos counts eigenvalues > zero_tol, obtained as the positive count of
    M - zero_tol*I; n_neg symmetrically from M + zero_tol*I.
    """
    n = m.shape[0]
    eye = np.eye(n)
    _, d_minus, _ = sla.ldl(m - zero_tol * eye, hermitian=True)
    n_pos = _ldl_block_signs(d_minus)[0]
    if zero_tol == 0.0:
        n_neg = _ldl_block_signs(d_minus)[1]
    else:
        _, d_plus, _ = sla.ldl(m + zero_tol * eye, hermitian=True)
        n_neg = _ldl_block_signs(d_plus)[1]
    return n_pos, n_neg, n - n_pos - n_neg


def _resolve_zero_tol(scale: float, zero_tol: float | None) -> float:
    if zero_tol is not None:
        if zero_tol < 0:
            raise ValidationError("zero_tol must be non-negative")
        return float(zero_tol)
    return ZERO_TOL_FACTOR * scale


def inertia(op, zero_tol: float | None = None) -> Inertia:
    """Eigenvalue sign counts, cross-checked between two backends.

    zero_tol defaults to 1e-8 times the operator norm.  Counts are strict:
    n_pos counts eigenvalues > zero_tol, n_zero those with |eig| <= zero_tol.
    """
    h = _hermitian_part(op)
    w = h.eigenvalues
    tol = _resolve_zero_tol(h.norm, zero_tol)
    eig_counts = (
        int(np.sum(w > tol)),
        int(np.sum(w < -tol)),
        int(np.sum(np.abs(w) <= tol)),
    )
    factor_counts = _inertia_factorization(h.matrix, tol)
    if eig_counts != factor_counts:
        raise BackendDisagreement(eig_counts, factor_counts, tol)
    return Inertia(*eig_counts)


def signature(op, zero_tol: float | None = None) -> int:
    """Signature n_pos - n_neg with the dual-backend inertia check.

    Only defined for invertible matrices: a signature read off a singular
    matrix is meaningless, so a zero count raises instead of guessing.
    """
    counts = inertia(op, zero_tol=zero_tol)
    if counts.n_zero:
        raise SingularMatrix(
            "%d eigenvalue(s) within zero_tol of 0; signature undefined"
            % counts.n_zero
        )
    return counts.signature


@dataclasses.dataclass(eq=False)
class Projection:
    """A validated orthogonal projection matrix."""

    matrix: np.ndarray
    proj_tol: float = PROJ_TOL

    def __post_init__(self):
        m = _validate_square(self.matrix)
        _check_hermitian(m, self.proj_tol)
        w = np.linalg.eigvalsh(m)
        stray = float(np.max(np.minimum(np.abs(w), np.abs(w - 1.0)))) if w.size else 0.0
        if stray > self.proj_tol:
            raise ValidationError(
                "projection eigenvalues stray from {0,1} by %.3e (tol %.3e)"
                % (stray, self.proj_tol)
            )
        self.matrix = m
        self._rank = int(np.sum(w > 0.5))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self._rank


def positive_spectral_projection(op, zero_tol: float | None = None) -> Projection:
    """Spectral projection onto eigenvalues > 0 of an invertible Hermitian matrix.

    Raises SingularMatrix if any eigenvalue lies within zero_tol of 0.
    """
    h = _hermitian_part(op)
    w, v = np.linalg.eigh(h.matrix)
    tol = _resolve_zero_tol(float(np.max(np.abs(w))), zero_tol)
    if np.any(np.abs(w) <= tol):
        raise SingularMatrix(
            "eigenvalue %.3e within zero_tol %.3e of 0" % (float(np.min(np.abs(w))), tol)
        )
    cols = v[:, w > tol]
    return Projection(cols @ cols.conj().T)


def window_mask(
    w: np.ndarray, rho: float, eig_sep_tol: float = EIG_SEP_TOL, allow_empty: bool = False
) -> np.ndarray:
    """The spectral window rule: mask of the eigenvalues w with |w| <= rho.

    Raises BoundaryEigenvalue if any eigenvalue lies within eig_sep_tol of
    +/-rho, since window membership must be unambiguous, and
    ValidationError if the window is empty (unless allow_empty).
    """
    dist = np.abs(np.abs(w) - rho)
    if np.any(dist < eig_sep_tol):
        raise BoundaryEigenvalue(
            "eigenvalue within %.3e of the window edge +/-%.6g (eig_sep_tol %.3e)"
            % (float(np.min(dist)), rho, eig_sep_tol)
        )
    mask = np.abs(w) <= rho
    if not (allow_empty or mask.any()):
        raise ValidationError("empty window at rho=%.6g" % rho)
    return mask


def interval_spectral_projection(
    op, rho: float, eig_sep_tol: float = EIG_SEP_TOL
) -> Projection:
    """Spectral projection onto eigenvalues in [-rho, rho] (window_mask rule).

    An empty window gives the zero projection.
    """
    if rho < 0:
        raise ValidationError("rho must be non-negative")
    h = _hermitian_part(op)
    w, v = np.linalg.eigh(h.matrix)
    cols = v[:, window_mask(w, rho, eig_sep_tol, allow_empty=True)]
    return Projection(cols @ cols.conj().T)


def odd_block(d: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The odd localiser layout [[d, g], [g*, -d]] on the doubled space."""
    n = d.shape[0]
    mat = np.empty((2 * n, 2 * n), dtype=np.complex128)
    mat[:n, :n] = d
    mat[n:, n:] = -d
    mat[:n, n:] = g
    mat[n:, :n] = g.conj().T
    return mat


def spectral_gap(op) -> float:
    """min |eigenvalue| of a Hermitian matrix (0 iff singular)."""
    return _hermitian_part(op).gap


def singular_gap(a) -> float:
    """Smallest singular value; equals 1/||A^-1|| for invertible A."""
    a = _as_array(a).astype(np.complex128, copy=False)
    if a.ndim != 2:
        raise DimensionMismatch("expected a matrix, got shape %s" % (a.shape,))
    s = sla.svdvals(a)
    return float(s[-1]) if s.size else 0.0


def operator_norm(a) -> float:
    """Operator (2-)norm; uses the symmetric eigensolver for Hermitian input."""
    if isinstance(a, HermitianOperator):
        return a.norm
    a = _as_array(a).astype(np.complex128, copy=False)
    if a.ndim != 2:
        raise DimensionMismatch("expected a matrix, got shape %s" % (a.shape,))
    if a.shape[0] == a.shape[1] and np.array_equal(a, a.conj().T):
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))
    s = sla.svdvals(a)
    return float(s[0]) if s.size else 0.0


def commutator_norm(d, x, interior_mask: np.ndarray | None = None) -> float:
    """Operator norm of [D, X], restricted to interior_mask when given.

    Periodic identifications put O(box) entries on the seam of [D, X]; the
    interior mask excludes rows and columns touching the seam, and the
    masked value is the one certificates use.  For the masked sparse C it is
    sqrt(lambda_max(C* C)) by seeded Lanczos, padded by the residual as
    sqrt(theta + ||G y - theta y||) so that it cannot loosen a cap built on
    it; blocks too small for ARPACK take a dense eigensolve.
    """
    ds = sp.csr_array(d.matrix if isinstance(d, HermitianOperator) else d)
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
    # seeded, so reproducible; a constant start can miss a symmetric top eigenspace
    v0 = [1.0, 1j] @ np.random.default_rng(0).standard_normal((2, gram.shape[0]))
    import scipy.sparse.linalg as spla  # deferred: only certificates load ARPACK
    theta, y = spla.eigsh(gram, k=1, which="LA", v0=v0, ncv=_LANCZOS_NCV, tol=1e-14)
    residual = np.linalg.norm(gram @ y[:, 0] - theta[0] * y[:, 0])
    return float(np.sqrt(theta[0] + residual))

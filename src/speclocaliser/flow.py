"""Spectral flow along Hermitian paths, suspensions and projection indices.

Spectral flow is computed two ways and cross-checked: from endpoint
signatures (half their difference) and by walking the path and accumulating
per-interval changes of the positive eigenvalue count.  Branches are matched
between samples by inertia counts, not eigenvector continuity; a sample where
an eigenvalue sits inside the zero tolerance is replaced by nearby clean
samples via bisection toward its clean neighbours, and an eigenvalue that
cannot be separated from zero raises RefinementLimit rather than being
counted either way.

The suspension paths interpolate the localiser between a trivial reference
and the model's class representative using an admissible cutoff pair
(chi_minus, chi_plus); truncated variants compress every sample onto the
|D| <= rho window, which is what the finite-volume pairing theorems are
about.  Conjugation flow D -> u D u* is likewise computed on a spectral
window of D: on the whole periodic box the endpoints are exactly unitarily
equivalent and all flow cancels against the seam, while the windowed path
recovers the index the compression is meant to expose.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .core import (
    EIG_SEP_TOL,
    HermitianOperator,
    Projection,
    as_matrix,
    odd_block,
    signature,
    window_mask,
)
from .errors import (
    DimensionMismatch,
    IntegerityViolation,
    NonUnitary,
    NotOddProjection,
    RankAmbiguity,
    RefinementLimit,
    SingularMatrix,
    ValidationError,
)
from .models import ModelInstance

__all__ = [
    "ChiPair",
    "CHI_CLAMP",
    "CHI_SMOOTH",
    "OperatorPath",
    "SpectralFlowResult",
    "line_path",
    "path_trace",
    "sf_endpoints",
    "sf_crossings",
    "suspension_even",
    "suspension_odd",
    "sf_conjugation",
    "relative_index_projections",
    "odd_projection_unitary",
]


@dataclasses.dataclass(frozen=True)
class ChiPair:
    """Cutoff pair: chi_plus supported in t >= 0 with chi_plus(1) = 1,
    chi_minus supported in t <= 0 with chi_minus(-1) = 1, values in [0, 1]."""

    plus: Callable[[float], float]
    minus: Callable[[float], float]
    name: str = "custom"

    def validate(self, samples: np.ndarray | None = None) -> None:
        ts = samples if samples is not None else np.linspace(-1.0, 1.0, 201)
        tol = 1e-12
        for t in ts:
            cp, cm = float(self.plus(t)), float(self.minus(t))
            if cp < -tol or cp > 1 + tol or cm < -tol or cm > 1 + tol:
                raise ValidationError("chi values leave [0, 1] at t=%.4f" % t)
            if t <= 0 and abs(cp) > tol:
                raise ValidationError("chi_plus not supported in t >= 0")
            if t >= 0 and abs(cm) > tol:
                raise ValidationError("chi_minus not supported in t <= 0")
        if abs(float(self.plus(1.0)) - 1.0) > tol:
            raise ValidationError("chi_plus(1) != 1")
        if abs(float(self.minus(-1.0)) - 1.0) > tol:
            raise ValidationError("chi_minus(-1) != 1")


def _smoothstep(x: float) -> float:
    x = min(max(x, 0.0), 1.0)
    return x * x * (3.0 - 2.0 * x)


CHI_CLAMP = ChiPair(
    plus=lambda t: min(max(t, 0.0), 1.0),
    minus=lambda t: min(max(-t, 0.0), 1.0),
    name="clamp",
)
CHI_SMOOTH = ChiPair(
    plus=lambda t: _smoothstep(t),
    minus=lambda t: _smoothstep(-t),
    name="smooth",
)

CHI_PAIRS = {"clamp": CHI_CLAMP, "smooth": CHI_SMOOTH}


@dataclasses.dataclass(eq=False)
class OperatorPath:
    """A Hermitian-matrix-valued path t -> T(t) with a sampling grid."""

    evaluate: Callable[[float], np.ndarray]
    grid: np.ndarray
    name: str = ""

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size < 2 or np.any(np.diff(g) <= 0):
            raise ValidationError("grid must be strictly increasing with >= 2 points")
        self.grid = g

    def sample(self, t: float) -> np.ndarray:
        return np.asarray(self.evaluate(float(t)), dtype=np.complex128)


def line_path(t0, t1, num: int = 33, name: str = "line") -> OperatorPath:
    a = np.asarray(t0.matrix if isinstance(t0, HermitianOperator) else t0, dtype=complex)
    b = np.asarray(t1.matrix if isinstance(t1, HermitianOperator) else t1, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch("endpoint shapes differ: %s vs %s" % (a.shape, b.shape))
    return OperatorPath(
        evaluate=lambda t: (1.0 - t) * a + t * b,
        grid=np.linspace(0.0, 1.0, num),
        name=name,
    )


def path_trace(path: OperatorPath) -> tuple[np.ndarray, np.ndarray]:
    """(grid, eigenvalues) with one ascending row of eigenvalues per sample."""
    rows = [np.linalg.eigvalsh(path.sample(t)) for t in path.grid]
    return path.grid.copy(), np.vstack(rows)


def sf_endpoints(t0, t1, zero_tol: float | None = None) -> int:
    """Half the signature difference between two invertible endpoints."""
    h0 = t0 if isinstance(t0, HermitianOperator) else HermitianOperator(t0)
    h1 = t1 if isinstance(t1, HermitianOperator) else HermitianOperator(t1)
    if h0.dim != h1.dim:
        raise DimensionMismatch("endpoint dimensions differ")
    scale = max(h0.norm, h1.norm, 1e-300)
    tol = zero_tol if zero_tol is not None else 1e-8 * scale
    for h, which in ((h0, "start"), (h1, "end")):
        if h.gap <= tol:
            raise SingularMatrix(
                "%s endpoint has an eigenvalue at %.3e (tol %.3e)" % (which, h.gap, tol)
            )
    diff = signature(h1, zero_tol=tol) - signature(h0, zero_tol=tol)
    if diff % 2:
        raise IntegerityViolation("signature difference %d is odd" % diff)
    return diff // 2


@dataclasses.dataclass(frozen=True)
class SpectralFlowResult:
    value: int
    crossings: tuple[tuple[float, float, int], ...]
    samples: int


def _sample(path: OperatorPath, t: float, dim: int) -> np.ndarray:
    m = path.sample(t)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("path sample at t=%.4f is not square" % t)
    if m.shape[0] != dim:
        raise DimensionMismatch("path dimension changed along the way")
    return m


def _counts(w: np.ndarray) -> tuple[int, float]:
    # positive eigenvalue count and distance of the spectrum from zero
    return int(np.sum(w > 0)), float(np.min(np.abs(w)))


def sf_crossings(
    path: OperatorPath, zero_tol: float | None = None, max_depth: int = 20
) -> SpectralFlowResult:
    """Crossing-counted spectral flow along the path.

    Equals sf_endpoints of the endpoint samples for any continuous path; the
    crossing ledger localizes where the positive count changes.  Interior
    samples with an eigenvalue inside the tolerance are replaced by clean
    samples found by bisecting toward their clean neighbours; failure to find
    one within max_depth raises RefinementLimit.  Each grid point is sampled
    and diagonalised once; ``samples`` counts grid and bisection points.
    """
    grid = path.grid
    first = path.sample(grid[0])
    HermitianOperator(first)  # validate once; later samples trusted Hermitian
    dim = first.shape[0]

    # one pass over the grid: eigenvalues of every sample, plus the increment
    # norms of the continuity screen (a step whose increment dwarfs the rest
    # signals a discontinuous evaluator, for which crossing counts are
    # meaningless)
    eigs = [np.linalg.eigvalsh(first)]
    slopes = []
    prev = first
    for i in range(1, len(grid)):
        cur = _sample(path, grid[i], dim)
        slopes.append(
            float(np.linalg.norm(cur - prev)) / float(grid[i] - grid[i - 1])
        )
        eigs.append(np.linalg.eigvalsh(cur))
        prev = cur
    top, typical = max(slopes), float(np.median(slopes))
    if typical > 0 and top > 100.0 * typical:
        raise ValidationError(
            "path increment at one step is %.1fx the median; evaluator looks "
            "discontinuous" % (top / typical)
        )

    scale = max(float(np.max(np.abs(eigs[0]))), float(np.max(np.abs(eigs[-1]))), 1e-300)
    eps = zero_tol if zero_tol is not None else 1e-6 * scale

    def probe(t):
        return _counts(np.linalg.eigvalsh(_sample(path, t, dim)))

    clean: list[tuple[float, int]] = []
    n0, gap0 = _counts(eigs[0])
    if gap0 <= eps:
        raise SingularMatrix("path start is singular at tolerance %.3e" % eps)
    clean.append((float(grid[0]), n0))
    evaluations = len(grid)

    for i in range(1, len(grid)):
        t = float(grid[i])
        npos, gap = _counts(eigs[i])
        if gap > eps:
            clean.append((t, npos))
            continue
        if i == len(grid) - 1:
            raise SingularMatrix("path end is singular at tolerance %.3e" % eps)
        # replace the dirty sample by clean ones bisected toward each
        # neighbour; the skipped degeneracy contributes its net crossing
        # count across the enclosing interval
        left_anchor = clean[-1][0]
        for t_lo, t_hi, towards_left in (
            (left_anchor, t, True),
            (t, float(grid[i + 1]), False),
        ):
            found = False
            lo, hi = t_lo, t_hi
            for _ in range(max_depth):
                mid = 0.5 * (lo + hi)
                npos_m, gap_m = probe(mid)
                evaluations += 1
                if gap_m > eps:
                    clean.append((mid, npos_m))
                    found = True
                    break
                # keep bisecting toward the side known (or soon checked) clean
                if towards_left:
                    hi = mid
                else:
                    lo = mid
            if not found and towards_left:
                raise RefinementLimit(lo, hi)
            # the right side may stay dirty if the degeneracy extends to the
            # next grid point; that sample will be handled on its own turn

    crossings = []
    total = 0
    for (ta, na), (tb, nb) in zip(clean, clean[1:]):
        if nb != na:
            crossings.append((ta, tb, nb - na))
            total += nb - na
    return SpectralFlowResult(
        value=int(total), crossings=tuple(crossings), samples=evaluations
    )


# ---------------------------------------------------------------------------
# suspension paths


def suspension_even(
    model: ModelInstance,
    kappa: float,
    chi: ChiPair = CHI_CLAMP,
    num: int = 33,
    rho: float | None = None,
) -> OperatorPath:
    """Path t -> kappa D + Gamma S(t), S(t) = -chi_minus(t) + chi_plus(t) H.

    Endpoints: kappa D - Gamma at t=-1 and the even localiser at t=+1.
    With rho set, every sample is compressed onto the |D| <= rho window,
    reusing the model's cached window K-part, so the t=+1 sample is the
    truncated localiser that ``pairing`` reads.
    """
    if model.parity != "even":
        raise ValidationError("even suspension needs an even model")
    chi.validate()
    gamma = model.grading.astype(float)
    if rho is None:
        base = kappa * model.dirac.toarray()
        gamma_h = gamma[:, None] * model.k_rep.toarray()
        gamma_diag = np.diag(gamma).astype(complex)

        def evaluate(t):
            return base - chi.minus(t) * gamma_diag + chi.plus(t) * gamma_h

    else:
        window = model.window(rho)
        cols = model.dirac_eigensystem()[1][:, window.index]
        base = kappa * np.diag(window.eigs).astype(complex)
        b_gamma = (cols.conj().T @ sp.diags_array(gamma) @ cols).toarray()
        b_gamma = (b_gamma + b_gamma.conj().T) / 2.0
        b_h = window.k_part

        def evaluate(t):
            return base - chi.minus(t) * b_gamma + chi.plus(t) * b_h

    return OperatorPath(
        evaluate=evaluate,
        grid=np.linspace(-1.0, 1.0, num),
        name="suspension_even[%s]" % chi.name,
    )


def suspension_odd(
    model: ModelInstance,
    kappa: float,
    chi: ChiPair = CHI_CLAMP,
    num: int = 33,
    rho: float | None = None,
) -> OperatorPath:
    """Path of odd localisers along G(t) = chi_minus(t) + chi_plus(t) G.

    Endpoints: the trivial odd localiser (G = identity) at t=-1 and the
    model's odd localiser at t=+1.  With rho set, every sample is compressed
    onto the |D| <= rho window, as in ``suspension_even``.
    """
    if model.parity != "odd":
        raise ValidationError("odd suspension needs an odd model")
    chi.validate()
    if rho is None:
        d = kappa * model.dirac.toarray()
        g = model.k_rep.toarray()
        eye = np.eye(model.dim, dtype=complex)
    else:
        window = model.window(rho)
        d = kappa * np.diag(window.eigs).astype(complex)
        g = window.k_part
        eye = np.eye(window.dim, dtype=complex)

    def evaluate(t):
        return odd_block(d, chi.minus(t) * eye + chi.plus(t) * g)

    return OperatorPath(
        evaluate=evaluate,
        grid=np.linspace(-1.0, 1.0, num),
        name="suspension_odd[%s]" % chi.name,
    )


def sf_conjugation(
    dirac,
    u: np.ndarray,
    window: float,
    num: int = 33,
    zero_tol: float | None = None,
    eig_sep_tol: float = EIG_SEP_TOL,
) -> int:
    """Spectral flow of the windowed straight line from D to u D u*.

    Both endpoints are compressed onto the |D| <= window eigenspace before
    flowing; the compression cuts the seam modes whose flow would otherwise
    cancel the index on a finite periodic box.
    """
    dm = as_matrix(getattr(dirac, "matrix", dirac))
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != dm.shape:
        raise DimensionMismatch("u and D must act on the same space")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if defect > 1e-10:
        raise NonUnitary("u fails unitarity by %.3e" % defect)

    w, v = np.linalg.eigh(dm)
    sel = window_mask(w, window, eig_sep_tol)
    cols = v[:, sel]
    start = np.diag(w[sel]).astype(complex)
    rot = u.conj().T @ cols
    end = rot.conj().T @ dm @ rot
    end = (end + end.conj().T) / 2.0
    path = line_path(start, end, num=num, name="conjugation")
    result = sf_crossings(path, zero_tol=zero_tol)
    return result.value


# ---------------------------------------------------------------------------
# projections


def relative_index_projections(p, q, rank_tol: float = 1e-8) -> int:
    """rank P - rank Q, cross-checked against kernel counts of Q|ran P.

    The kernel route uses rank(QP) from singular values; values inside the
    ambiguity decade around rank_tol raise RankAmbiguity.
    """
    pp = p if isinstance(p, Projection) else Projection(p)
    qq = q if isinstance(q, Projection) else Projection(q)
    if pp.dim != qq.dim:
        raise DimensionMismatch("projection dimensions differ")
    s = np.linalg.svd(qq.matrix @ pp.matrix, compute_uv=False)
    if np.any((s >= rank_tol / 10.0) & (s <= 10.0 * rank_tol)):
        raise RankAmbiguity(
            "singular values of QP inside the ambiguity decade around %.2e" % rank_tol
        )
    r_qp = int(np.sum(s > rank_tol))
    dim_ker = pp.rank - r_qp  # kernel of Q restricted to ran P
    dim_coker = qq.rank - r_qp
    if dim_ker < 0 or dim_coker < 0:
        raise RankAmbiguity(
            "rank(QP)=%d exceeds rank(P)=%d or rank(Q)=%d"
            % (r_qp, pp.rank, qq.rank)
        )
    return dim_ker - dim_coker


def odd_projection_unitary(p, grading: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Extract U from an odd projection P = (1/2) [[1, U*], [U, 1]].

    grading is the +/-1 vector defining the splitting.  Raises
    NotOddProjection if 2P - 1 fails to anticommute with the grading and
    NonUnitary if the extracted block is not unitary.
    """
    pp = p if isinstance(p, Projection) else Projection(p)
    g = np.asarray(grading)
    if g.shape != (pp.dim,):
        raise DimensionMismatch("grading length does not match projection dimension")
    if not np.all(np.isin(g, (-1, 1))):
        raise ValidationError("grading entries must be +1 or -1")
    pos = np.flatnonzero(g == 1)
    neg = np.flatnonzero(g == -1)
    if pos.size != neg.size:
        raise NotOddProjection(
            "graded sectors have unequal dimensions %d vs %d" % (pos.size, neg.size)
        )
    x = 2.0 * pp.matrix - np.eye(pp.dim)
    same = np.equal.outer(g, g)
    defect = float(np.max(np.abs(x[same])))
    if defect > tol:
        raise NotOddProjection(
            "2P - 1 has diagonal-block entries up to %.3e (tol %.3e)" % (defect, tol)
        )
    u = 2.0 * pp.matrix[np.ix_(neg, pos)]
    u_defect = float(np.max(np.abs(u.conj().T @ u - np.eye(pos.size))))
    if u_defect > 1e-10:
        raise NonUnitary("extracted block fails unitarity by %.3e" % u_defect)
    return u

"""Spectral flow along Hermitian paths and suspensions.

Spectral flow is computed two ways from one walk, and callers cross-check
them: by accumulating per-interval changes of the positive eigenvalue count
along the path, and from the endpoint signatures (half their difference),
read off the walk's first and last samples.  Every sample is counted, not
diagonalised: Sylvester's law on sparse LUs at -/+eps, with the
fill-reducing order computed once per sample pattern of the walk; the two
ends are validated as Hermitian and their counts checked against LUs in a
second ordering, and only a traced walk diagonalises (its whole grid).
Branches are matched between samples by these counts, not eigenvector
continuity; a sample with an eigenvalue inside the zero tolerance is
replaced by clean samples bisected toward its clean neighbours, and an
eigenvalue that cannot be separated from zero raises RefinementLimit rather
than being counted either way.

The suspension path interpolates the window localiser's K-part between a
trivial reference (-Gamma for even models, the identity for odd ones) and
the model's class representative using an admissible cutoff pair
(chi_minus, chi_plus).  One builder serves both parities: every sample is
the |D| <= rho window localiser, assembled as ``pairing`` assembles it,
which is what the finite-volume pairing theorems are about.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import core
from .core import eigenvalue_counts, hermitian_eigenvalues, hermitian_matrix
from .errors import (
    BackendDisagreement,
    DimensionMismatch,
    IntegerityViolation,
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
    "sf_crossings",
    "suspension",
]


@dataclasses.dataclass(frozen=True)
class ChiPair:
    """Cutoff pair: chi_plus supported in t >= 0 with chi_plus(1) = 1,
    chi_minus supported in t <= 0 with chi_minus(-1) = 1, values in [0, 1]."""

    plus: Callable[[float], float]
    minus: Callable[[float], float]
    name: str = "custom"

    def validate(self) -> None:
        tol = 1e-12
        for t in np.linspace(-1.0, 1.0, 201):
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
    """A Hermitian path t -> T(t) and a sampling grid."""

    evaluate: Callable[[float], np.ndarray]
    grid: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size < 2 or not np.all(np.isfinite(g)) or np.any(np.diff(g) <= 0):
            raise ValidationError("grid must be finite, strictly increasing, >= 2 points")
        self.grid = g

    def sample(self, t: float) -> np.ndarray:
        m = self.evaluate(float(t))
        return m if sp.issparse(m) else np.asarray(m, dtype=np.complex128)


def line_path(t0, t1, num: int = 33) -> OperatorPath:
    a, b = np.asarray(t0, dtype=complex), np.asarray(t1, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch("endpoint shapes differ: %s vs %s" % (a.shape, b.shape))
    return OperatorPath(
        evaluate=lambda t: (1.0 - t) * a + t * b,
        grid=np.linspace(0.0, 1.0, num),
    )


# bisection depth of sf_crossings
_MAX_DEPTH = 20


@dataclasses.dataclass(frozen=True)
class SpectralFlowResult:
    """Crossing count (value, with its ledger), half the signature difference of the
    end samples (endpoints), samples counted (fallbacks: LU declined), traced eigenvalues."""

    value: int
    crossings: tuple[tuple[float, float, int], ...]
    samples: int
    endpoints: int
    fallbacks: int
    trace: np.ndarray | None = dataclasses.field(default=None, compare=False, repr=False)


def _sample(path: OperatorPath, t: float, dim: int) -> np.ndarray:
    m = path.sample(t)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("path sample at t=%.4f is not square" % t)
    if m.shape[0] != dim:
        raise DimensionMismatch("path dimension changed along the way")
    return m


def sf_crossings(path: OperatorPath, trace: bool = False) -> SpectralFlowResult:
    """Crossing-counted spectral flow along the path, and its endpoint value.

    For any continuous path the crossing count equals the endpoint value,
    half the signature difference of the end samples; the crossing ledger
    localizes where the positive count changes.  Every sample is counted by
    Sylvester's law on sparse LUs at -/+eps, eps = 1e-6 times the larger
    max-absolute-row-sum of the two ends (a bound on both spectral radii),
    with one pattern counter (one fill-reducing order) per sample pattern of
    the walk; a sample whose LU declines is counted from its eigenvalues
    (fallbacks).  Interior samples with an eigenvalue inside eps are
    replaced by clean samples found by bisecting toward their clean
    neighbours; failure to find one within _MAX_DEPTH steps raises
    RefinementLimit, and an end with one raises SingularMatrix.  The end
    samples are validated as Hermitian, and each end's counts are checked
    against LUs at -/+ core.ZERO_TOL_FACTOR times that bound in the second
    SuperLU ordering (BackendDisagreement); the rest are trusted Hermitian.
    Only a traced walk diagonalises, every grid sample by
    hermitian_eigenvalues, and requires their counts to agree.
    """
    grid = path.grid
    first = path.sample(grid[0])
    hermitian_matrix(first)
    dim = first.shape[0]
    last = _sample(path, grid[-1], dim)
    hermitian_matrix(last)
    # the larger max-absolute-row-sum of the ends bounds both spectral radii
    scale = max(1e-300, *(float(np.max(abs(m).sum(axis=1))) for m in (first, last)))
    eps = 1e-6 * scale
    fallbacks = 0
    counters = {}  # pattern key -> its counter, for this walk only

    def counts(c, w=None):
        # Sylvester counts at +/-eps of a core._on_pattern sample, on its
        # pattern's counter; eigenvalues on a decline; checked against w
        nonlocal fallbacks
        key = c.indptr.tobytes(), c.indices.tobytes()
        if key not in counters:
            counters[key] = core._Counter(c)
        got = counters[key].counts(eps, c.data)
        if got is None:
            fallbacks += 1
            w = hermitian_eigenvalues(c) if w is None else w
            return eigenvalue_counts(w, eps)
        if w is not None and eigenvalue_counts(w, eps) != got:
            raise BackendDisagreement(eigenvalue_counts(w, eps), got, eps)
        return got

    # one pass over the grid: counts of every sample, plus the increment
    # norms of the continuity screen (a step whose increment dwarfs the rest
    # signals a discontinuous evaluator, for which crossing counts are
    # meaningless); consecutive samples on one pattern differ in their data
    rows, status, steps, prev = [], [], [], None
    for i, t in enumerate(grid):
        m = first if i == 0 else last if i == len(grid) - 1 else _sample(path, t, dim)
        cur = core._on_pattern(m)
        if prev is not None:
            same = (np.array_equal(cur.indptr, prev.indptr)
                    and np.array_equal(cur.indices, prev.indices))
            steps.append(np.linalg.norm(cur.data - prev.data if same else (cur - prev).data))
        if trace:
            rows.append(hermitian_eigenvalues(m))
        status.append(counts(cur, rows[-1] if trace else None))
        prev = cur
    slopes = np.divide(steps, np.diff(grid))
    top, typical = float(np.max(slopes)), float(np.median(slopes))
    if typical > 0 and top > 100.0 * typical:
        raise ValidationError(
            "path increment at one step is %.1fx the median; evaluator looks "
            "discontinuous" % (top / typical)
        )

    clean: list[tuple[float, int]] = []
    evaluations = len(grid)
    for i, t in enumerate(map(float, grid)):
        npos, _, nzero = status[i]
        if not nzero:
            clean.append((t, npos))
            continue
        if i in (0, len(grid) - 1):
            raise SingularMatrix("path %s is singular at tolerance %.3e"
                                 % ("end" if i else "start", eps))
        # replace the dirty sample by clean ones bisected toward each
        # neighbour; the skipped degeneracy contributes its net crossing
        # count across the enclosing interval
        for lo, hi, towards_left in ((clean[-1][0], t, True), (t, float(grid[i + 1]), False)):
            for _ in range(_MAX_DEPTH):
                mid = 0.5 * (lo + hi)
                npos_m, _, nzero_m = counts(core._on_pattern(_sample(path, mid, dim)))
                evaluations += 1
                if not nzero_m:
                    clean.append((mid, npos_m))
                    break
                # keep bisecting toward the side known (or soon checked) clean
                lo, hi = (lo, mid) if towards_left else (mid, hi)
            else:
                # the right side may stay dirty if the degeneracy extends to
                # the next grid point; that sample is handled on its own turn
                if towards_left:
                    raise RefinementLimit(lo, hi)

    crossings = [
        (ta, tb, nb - na) for (ta, na), (tb, nb) in zip(clean, clean[1:]) if nb != na
    ]
    # both ends are clean at eps, so their counts at tol < eps must be the
    # same; the second route reads them in the other ordering (or, should
    # that LU decline, from the end's eigenvalues)
    tol = core.ZERO_TOL_FACTOR * scale
    for end, got in ((first, status[0]), (last, status[-1])):
        second = (core._Counter(end, core.ORDERINGS[1]).counts(tol)
                  or eigenvalue_counts(hermitian_eigenvalues(end), tol))
        if second != got:
            raise BackendDisagreement(got, second, tol)
    ends = (status[-1][0] - status[-1][1]) - (status[0][0] - status[0][1])
    if ends % 2:
        raise IntegerityViolation("signature difference %d is odd" % ends)
    return SpectralFlowResult(
        value=sum(c[2] for c in crossings), crossings=tuple(crossings),
        samples=evaluations, endpoints=ends // 2, fallbacks=fallbacks,
        trace=np.vstack(rows) if trace else None,
    )


# ---------------------------------------------------------------------------
# suspension paths


def _csc_keys(m: sp.csc_array) -> np.ndarray:
    # position of every stored entry in column-major order, the sort order of
    # a canonical CSC array
    n = m.shape[0]
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr)) * n + m.indices


def suspension(
    model: ModelInstance,
    kappa: float,
    rho: float,
    chi: ChiPair = CHI_CLAMP,
    num: int = 33,
) -> OperatorPath:
    """Path of window localisers with K-part chi_plus(t) K_W + chi_minus(t) T_W
    on the |D| <= rho window, for either parity.

    K_W is the window's K-part and T_W the trivial reference: -Gamma for
    even models, the identity for odd ones.  Endpoints: kappa D - Gamma
    (even) or the trivial odd localiser with G = identity (odd) at t=-1,
    and at t=+1 the truncated localiser that ``pairing`` reads.  kappa D,
    K_W and T_W are laid out by ``Window.assemble``, as the window localiser
    is.  Every sample is a CSC array on one of at most four fixed layouts,
    one per support set (K_W where chi_plus != 0, T_W where chi_minus != 0,
    kappa D and the full diagonal always): its values are computed on the
    layout with numpy alone, equal to the entries of the sparse sum
    kappa D + (chi_plus K_W + chi_minus T_W).
    """
    chi.validate()
    window = model.window(rho)
    ref = sp.eye_array(window.dim, dtype=complex) if window.odd else -window.gamma_part
    parts = [sp.csc_array(window.assemble(kappa, sp.csr_array(window.k_part.shape)))]
    parts += [sp.csc_array(window.assemble(0.0, part)) for part in (window.k_part, ref)]
    for part in parts:
        part.sum_duplicates()
    n = parts[0].shape[0]
    keys = [_csc_keys(part) for part in parts]
    layouts = {}  # support set -> (indices, indptr, values of each part on the layout)

    def layout(support):
        used = [True, *support]
        union = np.unique(np.concatenate(
            [np.arange(n, dtype=np.int64) * (n + 1)] + [k for k, on in zip(keys, used) if on]
        ))
        values = np.zeros((3, union.size), dtype=np.complex128)
        for row, part, k, on in zip(values, parts, keys, used):
            if on:
                row[np.searchsorted(union, k)] = part.data
        indptr = np.searchsorted(union // n, np.arange(n + 1))
        return (union % n).astype(np.int32), indptr.astype(np.int32), values

    def evaluate(t):
        plus, minus = chi.plus(t), chi.minus(t)
        support = (plus != 0, minus != 0)
        if support not in layouts:
            layouts[support] = layout(support)
        indices, indptr, (b, k, r) = layouts[support]
        return sp.csc_array((b + (plus * k + minus * r), indices, indptr), shape=(n, n))

    return OperatorPath(evaluate=evaluate, grid=np.linspace(-1.0, 1.0, num))

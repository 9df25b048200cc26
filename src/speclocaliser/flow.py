"""Spectral flow along Hermitian paths and suspensions.

Spectral flow is computed two ways from one walk, and callers cross-check
them: by accumulating per-interval changes of the positive eigenvalue count
along the path, and from the endpoint signatures (half their difference),
read off the walk's first and last samples: the only two it diagonalises
unless traced, each inertia-checked against its own Sylvester counts.
Branches are matched between samples by inertia counts (Sylvester's law on
sparse LUs, except at the two ends), not eigenvector continuity; a sample
with an eigenvalue inside the zero tolerance is replaced by clean samples
bisected toward its clean neighbours, and an eigenvalue that cannot be
separated from zero raises RefinementLimit rather than being counted either
way.

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
from .core import eigenvalue_counts, hermitian_eigenvalues, inertia
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
    half the signature difference of the end samples at core.ZERO_TOL_FACTOR
    times the larger end norm; the crossing ledger localizes where the
    positive count changes.  Interior samples with an eigenvalue inside the
    tolerance (1e-6 times the larger end norm) are replaced by clean samples
    found by bisecting toward their clean neighbours; failure to find one
    within _MAX_DEPTH steps raises RefinementLimit.  The end samples are
    validated and diagonalised by hermitian_eigenvalues, each on the route
    it picks, and their signatures are inertia-checked; the rest are
    trusted Hermitian and counted by Sylvester's law, and a traced walk
    requires their grid eigenvalues to agree (BackendDisagreement).
    """
    grid = path.grid
    first = path.sample(grid[0])
    w_first = hermitian_eigenvalues(first)
    dim = first.shape[0]
    last = _sample(path, grid[-1], dim)
    w_last = hermitian_eigenvalues(last)
    scale = max(float(np.max(np.abs(w_first))), float(np.max(np.abs(w_last))), 1e-300)
    eps = 1e-6 * scale
    fallbacks = 0

    def counts(m, w=None):
        # Sylvester counts at +/-eps; eigenvalues on a decline; checked against w
        nonlocal fallbacks
        got = core._inertia_sylvester(m, eps)
        if got is None:
            fallbacks += 1
            w = hermitian_eigenvalues(m) if w is None else w
            return eigenvalue_counts(w, eps)
        if w is not None and eigenvalue_counts(w, eps) != got:
            raise BackendDisagreement(eigenvalue_counts(w, eps), got, eps)
        return got

    # one pass over the grid: counts of every sample, plus the increment
    # norms of the continuity screen (a step whose increment dwarfs the rest
    # signals a discontinuous evaluator, for which crossing counts are
    # meaningless)
    rows, status, steps, prev = [w_first], [], [], first
    for t in grid[1:]:
        cur = _sample(path, t, dim) if t < grid[-1] else last
        diff = cur - prev
        steps.append(np.linalg.norm(diff.data if sp.issparse(diff) else diff))
        if t < grid[-1]:
            rows.append(hermitian_eigenvalues(cur) if trace else None)
            status.append(counts(cur, rows[-1]))
        prev = cur
    rows.append(w_last)
    status = ([eigenvalue_counts(rows[0], eps)] + status
              + [eigenvalue_counts(rows[-1], eps)])
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
                npos_m, _, nzero_m = counts(_sample(path, mid, dim))
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
    # both ends are clean at eps, so neither has an eigenvalue within tol < eps
    tol = core.ZERO_TOL_FACTOR * scale
    ends = inertia(last, w_last, tol).signature - inertia(first, w_first, tol).signature
    if ends % 2:
        raise IntegerityViolation("signature difference %d is odd" % ends)
    return SpectralFlowResult(
        value=sum(c[2] for c in crossings), crossings=tuple(crossings),
        samples=evaluations, endpoints=ends // 2, fallbacks=fallbacks,
        trace=np.vstack(rows) if trace else None,
    )


# ---------------------------------------------------------------------------
# suspension paths


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
    is; every sample is sparse.
    """
    chi.validate()
    window = model.window(rho)
    ref = sp.eye_array(window.dim, dtype=complex) if window.odd else -window.gamma_part
    base = window.assemble(kappa, sp.csr_array(window.k_part.shape))
    k_w, t_w = (window.assemble(0.0, part) for part in (window.k_part, ref))

    def evaluate(t):
        return base + (chi.plus(t) * k_w + chi.minus(t) * t_w)

    return OperatorPath(evaluate=evaluate, grid=np.linspace(-1.0, 1.0, num))

"""Independent oracles: the invariants a model kind's predicted pairing is read from.

None of the invariants touch the localiser machinery: the winding number
integrates the symbol's phase around the circle, the lattice band invariant
sums plaquette field strengths of the occupied-band projector, and the
graded index counts kernel dimensions of the whole-space plus block from its
singular values, a route the pairing (which reads the window's grading
trace) never takes.  Expected values in tests come from here, never from
the code under test.  No model is read here: ``models.KINDS`` turns a
kind's invariant into the pairing the localiser must return, through two
constant signs.

Integer-valued outputs are rounded only when the residue is tiny; a residue
above the tolerance raises ResidueTooLarge instead of returning a guess.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import (
    AmbiguousKernel,
    GapClosure,
    ResidueTooLarge,
    SingularSymbol,
    ValidationError,
)

__all__ = [
    "EVEN_SIGN",
    "ODD_SIGN",
    "circle_symbol_values",
    "winding_number",
    "chern_number_fhs",
    "fredholm_index_graded",
]

# Basis ordering, grading orientation and the direction of the phase around
# the circle fix two signs the theory leaves free: pairing = EVEN_SIGN *
# Chern number and pairing = ODD_SIGN * winding number.  Calibrated on QWZ
# box 9, mass 1 (pairing +1 against Chern +1) and on circle 40, symbol
# 0.5 + z (pairing -1 against winding +1); the calibration test re-checks
# both.  The graded-index route has no free sign: the pairing's index
# correction (the grading trace on the window) and its oracle (kernel counts
# of the whole-space plus block) both compute the index of D's plus block,
# whose orientation the grading fixes.
EVEN_SIGN = 1
ODD_SIGN = -1

# largest residue of an invariant from its nearest integer, and the graded
# index's relative kernel threshold
_RESIDUE_TOL = 0.01
_KERNEL_TOL_FACTOR = 1e-6


def _normalize_symbol(symbol) -> dict[int, complex]:
    """The symbol's nonzero coefficients {k: c}, from a dict or (k, c) pairs."""
    out: dict[int, complex] = {}
    for k, c in symbol.items() if isinstance(symbol, dict) else symbol:
        k = int(k)
        c = complex(c[0], c[1]) if isinstance(c, (tuple, list)) else complex(c)
        if c != 0:
            out[k] = out.get(k, 0) + c
    if not out:
        raise ValidationError("symbol has no nonzero coefficients")
    return out


def circle_symbol_values(symbol, thetas: np.ndarray) -> np.ndarray:
    """Evaluate the loop symbol g(theta) = sum_k c_k exp(i k theta)."""
    return sum(c * np.exp(1j * k * thetas) for k, c in _normalize_symbol(symbol).items())


def winding_number(symbol, grid: int = 4096) -> int:
    """Winding of the scalar loop symbol g(theta) around 0, summed from phase increments.

    symbol: finite Fourier coefficients {k: c}.  Raises SingularSymbol if
    the symbol (nearly) vanishes on the grid, or if the grid cannot rule out
    a zero between samples: every theta lies within pi/grid of one, and
    |g'| <= sum |k| |c_k|.  Raises ResidueTooLarge if the increment sum is
    not close to an integer multiple of 2*pi.
    """
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    vals = circle_symbol_values(symbol, thetas)
    lipschitz = sum(abs(k) * abs(c) for k, c in _normalize_symbol(symbol).items())
    mags = np.abs(vals)
    floor = max(1e-12 * max(float(np.max(mags)), 1.0), lipschitz * np.pi / grid)
    if float(np.min(mags)) <= floor:
        raise SingularSymbol("symbol vanishes on or between the grid samples")
    increments = np.angle(vals[np.r_[1:grid, 0]] / vals)
    total = float(np.sum(increments)) / (2.0 * np.pi)
    nearest = round(total)
    if abs(total - nearest) > _RESIDUE_TOL:
        raise ResidueTooLarge(
            "winding residue %.3e exceeds %.3e (grid too coarse?)"
            % (abs(total - nearest), _RESIDUE_TOL)
        )
    return int(nearest)


def chern_number_fhs(bloch, grid: int = 48) -> int:
    """Occupied(lower)-band Chern number via plaquette field strengths.

    bloch: callable (k1, k2) -> Hermitian 2x2 matrix, called once on the
    (grid, grid) momentum arrays; it must broadcast over them (a stack of
    shape (grid, grid, 2, 2)) or return one matrix for every k.  Link variables are
    overlaps of lower-band eigenvectors at neighbouring grid momenta; the
    plaquette phase sum is quantized on any grid fine enough to resolve the
    gap.  Raises GapClosure if the bands touch on the grid.
    """
    ks = 2.0 * np.pi * np.arange(grid) / grid
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    h = np.broadcast_to(np.asarray(bloch(k1, k2), dtype=complex), (grid, grid, 2, 2))
    w, v = np.linalg.eigh(h)  # one stacked call over the (grid, grid, 2, 2) array
    touching = np.argwhere(w[..., 1] - w[..., 0] < 1e-8)
    if touching.size:
        i, j = touching[0]  # the first in row-major order
        raise GapClosure(
            "bands touch at k=(%.4f, %.4f); invariant undefined" % (ks[i], ks[j])
        )
    vecs = v[..., 0]

    u1 = np.einsum("ijc,ijc->ij", vecs.conj(), np.roll(vecs, -1, axis=0))
    u2 = np.einsum("ijc,ijc->ij", vecs.conj(), np.roll(vecs, -1, axis=1))
    if np.any(np.abs(u1) < 1e-12) or np.any(np.abs(u2) < 1e-12):
        raise GapClosure("vanishing link variable; grid too coarse")
    plaq = u1 * np.roll(u2, -1, axis=0) * np.conj(np.roll(u1, -1, axis=1)) * np.conj(u2)
    total = float(np.sum(np.angle(plaq))) / (2.0 * np.pi)
    nearest = round(total)
    if abs(total - nearest) > _RESIDUE_TOL:
        raise ResidueTooLarge(
            "band-invariant residue %.3e exceeds %.3e" % (abs(total - nearest), _RESIDUE_TOL)
        )
    return int(nearest)


def fredholm_index_graded(graded) -> int:
    """dim ker - dim coker of the plus block of a graded operator.

    graded: a ``models.GradedOperator``.  Kernel dimensions are column
    counts minus ranks from singular values of the plus block, densified
    whole, at tol = 1e-6 max(s_max, 1).  Singular values inside the
    ambiguity decade [tol/10, 10*tol] raise AmbiguousKernel; counting them
    either way would be a silent guess.
    """
    a = graded.block_plus.toarray()
    n_rows, n_cols = a.shape

    s = sla.svdvals(a) if min(a.shape) else np.array([])
    scale = float(s[0]) if s.size else 1.0
    tol = _KERNEL_TOL_FACTOR * max(scale, 1.0)
    if np.any((s >= tol / 10.0) & (s <= 10.0 * tol)):
        raise AmbiguousKernel(
            "singular values inside [%.2e, %.2e]; kernel dimension ill-defined"
            % (tol / 10.0, 10.0 * tol)
        )
    rank = int(np.sum(s > tol))
    return (n_cols - rank) - (n_rows - rank)

"""Reference models: position/Dirac operators paired with a class representative.

A model bundles a (possibly graded) position-type operator D with the matrix
K that represents the class being paired against it: a Hermitian H for even
models, an invertible G for odd ones.  Builders return fully validated
:class:`ModelInstance` objects carrying the containment radius and the
interior mask used for commutator norms.  D, K and D's eigenvector matrix
are stored sparse (``core.CsrOperator`` for D and K, a CSC array for the
eigenvectors) and are
validated on their nonzeros, so a model costs O(nnz) at any box size; the
spectral windows and the localiser blocks assembled from them are sparse
too, and each block is validated by the core primitive that reads it.

Three builders are provided, each the builder of one entry of ``KINDS``:

* ``build_circle_model`` - odd; D = diag(n) on Fourier modes, G a banded
  circulant from a finite symbol.  Periodic wrap keeps G exactly invertible.
* ``build_qwz_model`` - even; a two-band lattice model on a periodic square
  box with a site-diagonal dual Dirac operator, amplified by the internal
  2-level space so that D and H act on the same space
  (ordering: site (x) internal(2) (x) dirac(2)).
* ``build_weighted_shift_dirac`` - even; a graded weighted shift whose plus
  block has exact Fredholm index -nu at finite size, with scalar K = +/-1.

Builders attach analytically known eigensystems of D where the structure
makes them immediate (diagonal or site-block D, one or two nonzeros per
eigenvector), K's norm and gap, and a closed-form bound on the interior
[D, K] norm; the generic paths (dense ones capped at
``core.DENSE_DIM_LIMIT``, the Lanczos commutator norm) are used otherwise,
and the two eigensystems are interchangeable up to basis choice inside
degenerate eigenspaces.
``ModelInstance.window`` compresses K (and, for even models, the grading)
onto a spectral window of D in that eigenbasis once per radius, touching
only the rows the window's eigenvectors reach; every localiser block the
pairing and the suspension paths read is assembled from such a window.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy.io
import scipy.linalg as sla
import scipy.sparse as sp
import yaml

from .core import (
    CsrOperator,
    as_matrix,
    commutator_norm,
    hermitian_csr,
    max_abs_entry,
    window_mask,
)
from .errors import (
    ContainmentViolation,
    DimensionMismatch,
    FormatError,
    GaplessMass,
    SingularSymbol,
    ValidationError,
)
from .oracles import EVEN_SIGN, ODD_SIGN, chern_number_fhs, fredholm_index_graded, winding_number
from .oracles import _normalize_symbol, circle_symbol_values

__all__ = [
    "s0",
    "sx",
    "sy",
    "sz",
    "GradedOperator",
    "ModelInstance",
    "Window",
    "build_circle_model",
    "build_qwz_model",
    "build_weighted_shift_dirac",
    "qwz_bloch",
    "qwz_bloch_gap",
    "KINDS",
    "oracle_pairing",
    "save_model",
    "load_model",
]

s0 = np.array([[1, 0], [0, 1]], dtype=complex)
sx = np.array([[0, 1], [1, 0]], dtype=complex)
sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
sz = np.array([[1, 0], [0, -1]], dtype=complex)

# libyaml's parser and emitter when PyYAML was built with it: manifests list
# the grading and interior mask entry by entry, which the pure-Python ones
# read and write slowly
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# Safety margin (in lattice units) between the containment radius and the
# last site unaffected by the periodic seam.
_SAFETY_MARGIN = 2

# Largest same-sector entry of a graded operator, relative to max(|entry|, 1).
_ODD_TOL_FACTOR = 1e-12


def _stable_order(w: np.ndarray) -> np.ndarray:
    # Ascending eigenvalue order; exact ties keep original index order.
    return np.argsort(w, kind="stable")


def _graded_defect(m: sp.sparray, grading: np.ndarray, same_sector: bool) -> float:
    """Largest stored entry of m between equal (or unequal) grading sectors."""
    coo = m.tocoo()
    sel = (grading[coo.row] == grading[coo.col]) == same_sector
    return float(np.max(np.abs(coo.data[sel]), initial=0.0))


@dataclasses.dataclass(eq=False)
class GradedOperator:
    """A Hermitian matrix anticommuting with a diagonal +/-1 grading, stored CSR."""

    matrix: CsrOperator
    grading: np.ndarray

    def __post_init__(self):
        self.matrix = hermitian_csr(self.matrix)
        g = np.asarray(self.grading)
        if g.shape != (self.dim,):
            raise DimensionMismatch("grading length does not match matrix dimension")
        if not np.all(np.isin(g, (-1, 1))):
            raise ValidationError("grading entries must be +1 or -1")
        self.grading = g.astype(np.int8)
        scale = max(max_abs_entry(self.matrix), 1.0)
        defect = _graded_defect(self.matrix, self.grading, same_sector=True)
        if defect > _ODD_TOL_FACTOR * scale:
            raise ValidationError(
                "matrix does not anticommute with the grading: "
                "diagonal-block entry %.3e exceeds %.3e" % (defect, _ODD_TOL_FACTOR * scale)
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def block_plus(self) -> sp.csr_array:
        """The block mapping the +1 sector into the -1 sector (sparse)."""
        plus = self.grading == 1
        return self.matrix[np.flatnonzero(~plus)][:, np.flatnonzero(plus)]


@dataclasses.dataclass(frozen=True, eq=False)
class Window:
    """A spectral window of D, in D's eigenbasis.

    index holds the kept positions of the ordered D eigensystem, eigs their
    D eigenvalues, and k_part the K-part V_W* K~ V_W (sparse), with
    K~ = Gamma K for even models and G for odd ones.  gamma_part is the
    grading V_W* Gamma V_W (sparse), None for odd models.  Every localiser
    block on the window or on a sub-window is read off these.
    """

    index: np.ndarray
    eigs: np.ndarray
    k_part: sp.csr_array
    gamma_part: sp.csr_array | None

    @property
    def dim(self) -> int:
        return self.index.size

    @property
    def odd(self) -> bool:
        return self.gamma_part is None

    def localiser(self, kappa: float, beyond: float | None = None) -> sp.csr_array:
        """The localiser on the window, or on its part with |D| > beyond (sparse).

        Hermitian by construction (a real diagonal plus the symmetrised even
        K-part, or the odd double), so it is left to its consumers to validate.
        """
        if beyond is None:
            return self.assemble(kappa, self.k_part)
        sel = np.flatnonzero(np.abs(self.eigs) > beyond)
        return self.assemble(kappa, self.k_part[sel][:, sel], sel)

    def assemble(self, kappa: float, k_part: sp.sparray, sel=slice(None)) -> sp.csr_array:
        """kappa*diag(eigs) + k_part for even models, the odd double
        [[kappa*diag(eigs), k_part], [k_part*, -kappa*diag(eigs)]], storing
        no zero of kappa*eigs, for odd ones, with eigs taken at the window
        positions sel.  k_part is any sparse K-part on those positions.
        """
        d = (kappa * self.eigs[sel]).astype(np.complex128)
        if not self.odd:
            return (sp.diags_array(d) + k_part).tocsr()
        k, n, nz = sp.coo_array(k_part), d.size, np.flatnonzero(d)
        ij = np.concatenate([[nz, nz], [k.row, k.col + n], [k.col + n, k.row], [nz + n] * 2], 1)
        data = np.concatenate([d[nz], k.data, k.data.conj(), -d[nz]])
        return sp.csr_array((data, tuple(ij)), shape=(2 * n, 2 * n))


@dataclasses.dataclass(eq=False)
class ModelInstance:
    """Immutable model data plus lazily cached spectral quantities."""

    kind: str
    parity: str
    dirac: CsrOperator
    grading: np.ndarray | None
    k_rep: CsrOperator
    containment_radius: float
    params: dict
    interior_mask: np.ndarray
    cache: dict = dataclasses.field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValidationError("parity must be 'even' or 'odd'")
        if self.parity == "odd":
            if self.grading is not None:
                raise ValidationError("odd models carry no grading")
            self.dirac = hermitian_csr(self.dirac)
        else:
            if self.grading is None:
                raise ValidationError("even models need a grading")
            # validates hermiticity of D + anticommutation with the grading
            graded = GradedOperator(self.dirac, self.grading)
            self.cache["graded"] = graded
            self.dirac, self.grading = graded.matrix, graded.grading
        if np.shape(self.k_rep) != self.dirac.shape:
            raise DimensionMismatch("D and K must act on the same space")
        if self.parity == "even":
            self.k_rep = hermitian_csr(self.k_rep)
            # K must commute with the grading: its inter-sector block vanishes
            defect = _graded_defect(self.k_rep, self.grading, same_sector=False)
            # relative to max(|K|, 1); the scale is only read past the floor
            if defect > 1e-12 and defect > 1e-12 * max_abs_entry(self.k_rep):
                raise ValidationError(
                    "K does not commute with the grading (defect %.3e)" % defect
                )
        else:
            self.k_rep = CsrOperator(self.k_rep, dtype=np.complex128)
            if not np.all(np.isfinite(self.k_rep.data)):
                raise ValidationError("K contains non-finite entries")
        self.interior_mask = np.asarray(self.interior_mask, dtype=bool)
        if self.interior_mask.shape != (self.dim,):
            raise DimensionMismatch("interior mask length does not match dimension")
        if not math.isfinite(self.containment_radius):
            raise ValidationError(
                "containment radius %r is not finite" % self.containment_radius
            )
        if self.containment_radius <= 0:
            raise ContainmentViolation(
                "containment radius %.3g is not positive; box too small for the "
                "hopping range plus margin %d" % (self.containment_radius, _SAFETY_MARGIN)
            )

    @property
    def dim(self) -> int:
        return self.dirac.shape[0]

    def graded(self) -> GradedOperator:
        if self.parity != "even":
            raise ValidationError("model has no grading")
        return self.cache["graded"]

    def dirac_eigensystem(self) -> tuple[np.ndarray, sp.csc_array]:
        """Eigenvalues (ascending, stable ties) and eigenvector columns of D.

        The eigenvectors are a CSC array; builders attach closed forms, and
        other models fall back to a capped dense eigh, stored the same way.
        """
        if "eigensystem" not in self.cache:
            w, v = np.linalg.eigh(as_matrix(self.dirac))
            order = _stable_order(w)
            self.cache["eigensystem"] = (w[order], sp.csc_array(v[:, order]))
        return self.cache["eigensystem"]

    def window(self, rho: float) -> Window:
        """The |D| <= rho window under the core.window_mask rule, cached per radius."""
        key = ("window", float(rho))
        if key not in self.cache:
            w, _ = self.dirac_eigensystem()
            self.cache[key] = self._window(window_mask(w, rho))
        return self.cache[key]

    def containment_window(self) -> Window:
        """The |D| <= containment radius window, cached.

        The window is closed at the radius plus 1e-9 with no edge check, so
        it keeps an eigenvalue equal to the radius up to rounding; QWZ with
        the integer offset, circles without offset and the shift model have
        one there, while half-integer QWZ and offset circles have none.  An
        empty selection raises ValidationError, as window_mask does.
        """
        if "containment_window" not in self.cache:
            w, _ = self.dirac_eigensystem()
            mask = np.abs(w) <= self.containment_radius + 1e-9
            if not mask.any():
                raise ValidationError("empty containment window: radius %.6g below the least |D| "
                                      "eigenvalue %.6g" % (self.containment_radius, min(abs(w))))
            self.cache["containment_window"] = self._window(mask)
        return self.cache["containment_window"]

    def _window(self, mask: np.ndarray) -> Window:
        w, v = self.dirac_eigensystem()
        index = np.flatnonzero(mask)
        cols = v[:, index]
        # only rows in the support of the window's eigenvectors contribute;
        # closed-form eigensystems make that support as small as the window
        rows = np.unique(cols.indices)
        cols = cols[rows]
        k_sub = self.k_rep[rows][:, rows]
        gamma_part = None
        if self.parity == "even":
            gamma = sp.diags_array(self.grading[rows].astype(np.float64))
            k_sub = gamma @ k_sub
            gamma_part = cols.conj().T @ (gamma @ cols)
            gamma_part = (gamma_part + gamma_part.conj().T) / 2.0
        k_part = (cols.conj().T @ (k_sub @ cols)).tocsr()
        if self.parity == "even":
            k_part = (k_part + k_part.conj().T) / 2.0
        return Window(index, w[index], k_part, gamma_part)

    def k_norm(self) -> float:
        """Operator norm of K, from _k_spectrum unless a builder cached it."""
        if "k_norm" not in self.cache:
            self._k_spectrum()
        return self.cache["k_norm"]

    def k_gap(self) -> float:
        """Invertibility margin of K: spectral gap (even) or sigma_min (odd)."""
        if "k_gap" not in self.cache:
            self._k_spectrum()
        return self.cache["k_gap"]

    def _k_spectrum(self) -> None:
        # one capped dense spectrum caches both: |eigenvalues| of the
        # Hermitian K (even) or singular values of G (odd)
        k = as_matrix(self.k_rep)
        s = np.abs(np.linalg.eigvalsh(k)) if self.parity == "even" else sla.svdvals(k)
        self.cache["k_norm"], self.cache["k_gap"] = float(np.max(s)), float(np.min(s))

    def dirac_commutator(self) -> tuple[float, str]:
        """An upper bound on the interior norm ||[D, K]|| and its source, cached.

        The interior mask keeps no row or column touching the seam, so the
        masked commutator compresses the infinite-volume one: builders cache
        its closed-form bound from the symbol.  Every other model, a
        reloaded manifest included, measures it by core.commutator_norm
        (Lanczos on the masked commutator over the whole box).
        """
        if "dirac_commutator" not in self.cache:
            self.cache["dirac_commutator"] = (
                commutator_norm(self.dirac, self.k_rep, self.interior_mask),
                "interior Lanczos",
            )
        return self.cache["dirac_commutator"]

    def describe(self) -> dict:
        """The report's model entry; oracle_ref is None for a kind outside KINDS."""
        kind = KINDS.get(self.kind)
        return {
            "kind": self.kind,
            "parity": self.parity,
            "dim": self.dim,
            "containment_radius": self.containment_radius,
            "oracle_ref": None if kind is None else kind.oracle,
            "params": dict(self.params),
        }


# ---------------------------------------------------------------------------
# circle model


def _cyclic_shift(n: int, k: int) -> sp.csr_array:
    """S^k on n sites: e_j -> e_{j+k mod n}."""
    j = np.arange(n)
    return sp.csr_array((np.ones(n), ((j + k) % n, j)), shape=(n, n))


def build_circle_model(modes: int, symbol, offset: float = 0.0) -> ModelInstance:
    """Odd model on Fourier modes n in [-M, M].

    D = diag(n + offset); G = sum_k c_k S^k with S the cyclic shift, so G is
    a circulant and its eigenvalues are exactly the symbol values on the
    (2M+1)-th roots of unity.  Raises SingularSymbol if any of those vanish.
    """
    modes = int(modes)
    if modes < 2:
        raise ValidationError("need modes >= 2")
    coeffs = _normalize_symbol(symbol)
    hop = max(abs(k) for k in coeffs)
    dim = 2 * modes + 1
    n = np.arange(-modes, modes + 1)
    dvals = (n + float(offset)).astype(complex)
    dirac = sp.diags_array(dvals, format="csr")
    g = sum(c * _cyclic_shift(dim, k) for k, c in coeffs.items())

    thetas = 2.0 * np.pi * np.arange(dim) / dim
    eigs = circle_symbol_values(coeffs, thetas)
    min_eig = float(np.min(np.abs(eigs)))
    max_eig = float(np.max(np.abs(eigs)))
    if min_eig <= 1e-12 * max(max_eig, 1.0):
        raise SingularSymbol(
            "symbol value %.3e at a box momentum; G is not invertible" % min_eig
        )

    containment = float(modes - hop - _SAFETY_MARGIN)
    if containment <= 0:
        raise ContainmentViolation(
            "modes=%d too small for hopping range %d plus margin %d"
            % (modes, hop, _SAFETY_MARGIN)
        )
    interior = np.abs(n) <= modes - hop

    model = ModelInstance(
        kind="circle",
        parity="odd",
        dirac=dirac,
        grading=None,
        k_rep=g,
        containment_radius=containment,
        params={
            "modes": modes,
            "symbol": {int(k): [c.real, c.imag] for k, c in sorted(coeffs.items())},
            "offset": float(offset),
        },
        interior_mask=interior,
    )
    order = _stable_order(dvals.real)
    # the coordinate basis, columns in eigenvalue order
    eigvecs = sp.csc_array(
        (np.ones(dim, dtype=complex), order, np.arange(dim + 1)), shape=(dim, dim)
    )
    model.cache["eigensystem"] = (dvals.real[order], eigvecs)
    # circulant G is normal; norm and gap come from the symbol on the grid
    model.cache["k_norm"] = max_eig
    model.cache["k_gap"] = min_eig
    # [D, G] = sum_k k c_k S^k off the seam, the symbol's derivative
    model.cache["dirac_commutator"] = (
        float(sum(abs(k) * abs(c) for k, c in coeffs.items())),
        "symbol bound sum|k||c_k|",
    )
    return model


# ---------------------------------------------------------------------------
# QWZ model


def qwz_bloch(mass: float):
    """Momentum-space two-band Hamiltonian h(k1, k2) as a callable.

    It broadcasts: momenta of any (common) array shape give the stack of
    2x2 matrices over that shape."""

    def h(k1, k2) -> np.ndarray:
        s1, s2, z = (np.asarray(x)[..., None, None]
                     for x in (np.sin(k1), np.sin(k2), mass + np.cos(k1) + np.cos(k2)))
        return s1 * sx + s2 * sy + z * sz

    return h


def _qwz_grid_norms(mass: float, grid: int) -> np.ndarray:
    """|d(k)| on the uniform grid x grid momenta (the bands sit at +/-|d(k)|),
    from one row of sines and cosines broadcast over the grid."""
    ks = 2.0 * np.pi * np.arange(grid) / grid
    s, c = np.sin(ks), np.cos(ks)
    return np.sqrt(s[:, None] ** 2 + s[None, :] ** 2 + (mass + c[:, None] + c[None, :]) ** 2)


def qwz_bloch_gap(mass: float, grid: int = 512) -> float:
    """min_k |h(k)| over a uniform momentum grid."""
    return float(np.min(_qwz_grid_norms(mass, grid)))


def build_qwz_model(
    box: int, mass: float, offset: str = "half_integer"
) -> ModelInstance:
    """Even model on a periodic (2L+1)^2 box, ordering site (x) internal (x) dirac.

    H is the two-band lattice Hamiltonian (nearest-neighbour hops plus a mass
    term) amplified by the identity on the dirac factor.  D places
    [[0, zbar], [z, 0]] on the dirac factor of every site, z = (x1-o1) +
    i(x2-o2), with the offset o at the central site (integer) or displaced by
    (1/2, 1/2) (half_integer).  Grading = sigma_z on the dirac factor.
    """
    box = int(box)
    if box < 3:
        raise ValidationError("need box >= 3")
    if offset not in ("integer", "half_integer"):
        raise ValidationError("offset must be 'integer' or 'half_integer'")
    mass = float(mass)
    gap = qwz_bloch_gap(mass)
    if gap < 1e-6:
        raise GaplessMass(
            "bulk gap %.3e at mass %.6g; the band invariant is undefined" % (gap, mass)
        )

    side = 2 * box + 1
    n_sites = side * side
    coords = np.arange(-box, box + 1)
    x1 = np.repeat(coords, side)
    x2 = np.tile(coords, side)

    roll = _cyclic_shift(side, 1)  # e_x -> e_{x+1} (periodic)
    r1 = sp.kron(roll, sp.eye_array(side))
    r2 = sp.kron(sp.eye_array(side), roll)
    a1 = (sz - 1j * sx) / 2.0
    a2 = (sz - 1j * sy) / 2.0
    h_int = (
        sp.kron(r1, a1)
        + sp.kron(r1.T, a1.conj().T)
        + sp.kron(r2, a2)
        + sp.kron(r2.T, a2.conj().T)
        + mass * sp.kron(sp.eye_array(n_sites), sz)
    )
    k_rep = sp.kron(h_int, sp.eye_array(2), format="csr")

    o = 0.5 if offset == "half_integer" else 0.0
    z = (x1 - o) + 1j * (x2 - o)
    zdiag = np.repeat(z, 2)  # one dirac block per (site, internal) pair
    lower = np.array([[0, 0], [1, 0]], dtype=complex)
    dirac = sp.kron(sp.diags_array(zdiag), lower, format="csr")
    dirac = dirac + dirac.conj().T

    dim = 4 * n_sites
    grading = np.tile([1, -1], dim // 2).astype(np.int8)

    containment = float(box - 3)
    interior_site = np.maximum(np.abs(x1), np.abs(x2)) <= box - 1
    interior = np.repeat(interior_site, 4)

    model = ModelInstance(
        kind="qwz",
        parity="even",
        dirac=dirac,
        grading=grading,
        k_rep=k_rep,
        containment_radius=containment,
        params={"box": box, "mass": mass, "offset": offset},
        interior_mask=interior,
    )
    model.cache["eigensystem"] = _qwz_eigensystem(zdiag)
    # K = h_int (x) I2 and the periodic h_int is the Bloch symbol on the box
    # momenta, so its spectrum is +/-|d(k)| there
    norms = _qwz_grid_norms(mass, side)
    model.cache["k_norm"] = float(np.max(norms))
    model.cache["k_gap"] = float(np.min(norms))
    # off the seam [D, K] = [x1, H] (x) sigma_x + [x2, H] (x) sigma_y (the mass
    # term commutes with D), with Bloch symbols d_k1 h and d_k2 h of norm 1
    model.cache["dirac_commutator"] = (2.0, "Bloch symbol bound")
    return model


def _qwz_eigensystem(zdiag: np.ndarray) -> tuple[np.ndarray, sp.csc_array]:
    """Closed-form eigensystem of the site-block Dirac matrix.

    Per dirac block [[0, zbar], [z, 0]]: eigenvalues -/+|z| with eigenvectors
    (1, -/+ z/|z|)/sqrt(2); a zero block keeps the coordinate basis.  Every
    eigenvector lives on its block's two rows, so the CSC array stores two
    entries per column.
    """
    dim = 2 * zdiag.shape[0]
    r = np.abs(zdiag)
    zero = r == 0.0
    phase = zdiag / np.where(zero, 1.0, r)
    inv = 1.0 / np.sqrt(2.0)
    w = np.stack([np.where(zero, 0.0, -r), r], axis=1).ravel()
    # entries (top row, bottom row) of the -|z| and the +|z| eigenvector
    top_minus = np.where(zero, 1.0, inv)
    bot_minus = np.where(zero, 0.0, -inv * phase)
    top_plus = np.where(zero, 0.0, inv)
    bot_plus = np.where(zero, 1.0, inv * phase)
    values = np.stack([top_minus, bot_minus, top_plus, bot_plus], axis=1).reshape(dim, 2)
    rows = np.repeat(np.arange(0, dim, 2), 2)[:, None] + np.array([0, 1])
    order = _stable_order(w)
    v = sp.csc_array(
        (values[order].ravel(), rows[order].ravel(), np.arange(0, 2 * dim + 1, 2)),
        shape=(dim, dim),
    )
    v.eliminate_zeros()
    return w[order], v


# ---------------------------------------------------------------------------
# weighted-shift model


def build_weighted_shift_dirac(sites: int, nu: int = 1, sign: int = 1) -> ModelInstance:
    """Even model whose plus block has exact Fredholm index -nu.

    Each of the nu copies maps e_n -> (n+1) f_{n+1} (n = 0..N) from an
    (N+1)-dimensional +1 sector into an (N+2)-dimensional -1 sector, so the
    minus sector keeps a one-dimensional kernel (f_0) and the index is exact
    at finite size rather than a truncation artifact.  K = sign * identity.
    """
    n_sites = int(sites)
    if n_sites < 2:
        raise ValidationError("need sites >= 2")
    nu = int(nu)
    if nu < 1:
        raise ValidationError("need nu >= 1")
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")

    npl, nmi = n_sites + 1, n_sites + 2
    copy_dim = npl + nmi
    n = np.arange(n_sites + 1)
    block = sp.csr_array(
        ((n + 1).astype(complex), (npl + n + 1, n)), shape=(copy_dim, copy_dim)
    )  # e_n -> (n+1) f_{n+1}
    block = block + block.conj().T
    copy_grading = np.concatenate([np.ones(npl), -np.ones(nmi)]).astype(np.int8)

    dirac = sp.block_diag([block] * nu, format="csr")
    grading = np.tile(copy_grading, nu)
    dim = nu * copy_dim
    k_rep = float(sign) * sp.eye_array(dim, dtype=complex, format="csr")

    containment = float(n_sites - _SAFETY_MARGIN)
    model = ModelInstance(
        kind="weighted_shift",
        parity="even",
        dirac=dirac,
        grading=grading,
        k_rep=k_rep,
        containment_radius=containment,
        params={"sites": n_sites, "nu": nu, "sign": int(sign)},
        interior_mask=np.ones(dim, dtype=bool),
    )
    model.cache["k_norm"] = 1.0
    model.cache["k_gap"] = 1.0
    model.cache["dirac_commutator"] = (0.0, "commuting pair")  # K = +/-I
    return model


# ---------------------------------------------------------------------------
# the table of model kinds


class Kind(NamedTuple):
    """One model kind: its spec sugar, its builder and its oracle.

    head and keys give the ``head:key=val,...`` sugar, each key (name, cast,
    default), default None for a required key; sugar maps the cast keys to
    the params of build, called as ``build(**params)``; oracle names the
    oracle, and predict gives the pairing it predicts, sign included.
    """

    head: str
    keys: tuple
    build: Callable[..., ModelInstance]
    oracle: str
    predict: Callable[[ModelInstance], int]
    sugar: Callable[..., dict] = dict


def _circle_sugar(modes, winding, c0, offset) -> dict:
    symbol = {0: complex(c0)}  # the loop symbol c0 + z^winding
    symbol[winding] = symbol.get(winding, 0.0) + 1.0
    return {"modes": modes, "symbol": symbol, "offset": offset}


KINDS = {
    "circle": Kind(
        head="circle",
        keys=(("modes", int, None), ("winding", int, 1), ("c0", float, 0.5),
              ("offset", float, 0.0)),
        sugar=_circle_sugar,
        build=build_circle_model,
        oracle="winding_number",
        predict=lambda model: ODD_SIGN * winding_number(model.params["symbol"]),
    ),
    "qwz": Kind(
        head="qwz",
        keys=(("box", int, None), ("mass", float, None), ("offset", str, "half_integer")),
        build=build_qwz_model,
        oracle="chern_number_fhs",
        predict=lambda model: EVEN_SIGN * chern_number_fhs(
            qwz_bloch(float(model.params["mass"]))),
    ),
    "weighted_shift": Kind(
        head="shift",
        keys=(("sites", int, None), ("nu", int, 1), ("sign", int, 1)),
        build=build_weighted_shift_dirac,
        oracle="fredholm_index_graded",
        # no free sign: with K = +1 the pairing is the graded index; with
        # K = -1 the signature and the index correction cancel exactly
        predict=lambda model: fredholm_index_graded(model.graded())
        * (int(model.params.get("sign", 1)) == 1),
    ),
}


def oracle_pairing(model: ModelInstance) -> int:
    """The oracle's prediction for ``pairing(model, ...)``, by the model's kind."""
    if model.kind not in KINDS:
        raise ValidationError("no oracle registered for model kind %r" % model.kind)
    return KINDS[model.kind].predict(model)


# ---------------------------------------------------------------------------
# persistence


def save_model(model: ModelInstance, directory) -> Path:
    """Write a manifest plus full-precision matrix files; returns the manifest path.

    D and K are written as coordinate Matrix Market files of their stored
    entries, with 17 significant digits, which round-trips IEEE doubles
    bitwise.  The symmetry is declared "general" so that a load reads every
    entry as written and revalidates hermiticity itself.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, op in (("dirac", model.dirac), ("k_rep", model.k_rep)):
        scipy.io.mmwrite(
            directory / (name + ".mtx"), sp.coo_array(op),
            field="complex", precision=17, symmetry="general",
        )
    doc = {
        "schema": 1,
        "kind": model.kind,
        "parity": model.parity,
        "oracle_ref": model.describe()["oracle_ref"],
        "containment_radius": float(model.containment_radius),
        "params": _sanitize(model.params),
        "grading": None if model.grading is None else [int(g) for g in model.grading],
        "interior_mask": [int(b) for b in model.interior_mask],
        "files": {"dirac": "dirac.mtx", "k_rep": "k_rep.mtx"},
    }
    path = directory / "manifest.yaml"
    with open(path, "w") as fh:
        yaml.dump(doc, fh, Dumper=_YAML_DUMPER, sort_keys=True)
    return path


def _sanitize(obj):
    """JSON-safe copy: numpy scalars to python, NaN/inf to None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def load_model(path) -> ModelInstance:
    """Load a model from a manifest directory/file or a {kind, params} config.

    A config is built as ``KINDS[kind].build(**params)``.  Manifest loads
    revalidate every structural contract; a tampered file fails loudly
    rather than producing a quietly inconsistent model: a missing, unknown
    or malformed field or param raises FormatError naming the file, and a
    value a builder or ModelInstance rejects raises its ValidationError.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.yaml"
    if not path.exists():
        raise FormatError("no such model file: %s" % path)
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise FormatError("cannot parse %s: %s" % (path, exc)) from exc
    if not isinstance(doc, dict):
        raise FormatError("%s does not contain a mapping" % path)

    try:
        if "files" not in doc:
            kind = doc.get("kind")
            if kind not in KINDS:
                raise FormatError("unknown model kind %r in %s" % (kind, path))
            return KINDS[kind].build(**doc.get("params", {}))
        dirac = _read_matrix(path.parent / doc["files"]["dirac"])
        k_rep = _read_matrix(path.parent / doc["files"]["k_rep"])
        grading = doc["grading"]
        model = ModelInstance(
            kind=str(doc["kind"]),
            parity=str(doc["parity"]),
            dirac=dirac,
            grading=None if grading is None else np.asarray(grading, dtype=np.int8),
            k_rep=k_rep,
            containment_radius=float(doc["containment_radius"]),
            params=dict(doc.get("params", {})),
            interior_mask=np.asarray(doc["interior_mask"], dtype=bool),
        )
    except KeyError as exc:
        raise FormatError("manifest %s is missing field %s" % (path, exc)) from exc
    except (TypeError, ValueError) as exc:
        raise FormatError("manifest %s has a malformed field: %s" % (path, exc)) from exc
    return model


def _read_matrix(path: Path):
    # coordinate files load sparse; array files (older manifests) load dense
    try:
        return scipy.io.mmread(path)
    except (OSError, ValueError) as exc:
        raise FormatError("cannot read matrix file %s: %s" % (path, exc)) from exc

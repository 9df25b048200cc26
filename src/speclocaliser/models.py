"""Reference models: position/Dirac operators paired with a class representative.

A model bundles a (possibly graded) position-type operator D with the matrix
K that represents the class being paired against it: a Hermitian H for even
models, an invertible G for odd ones.  Builders return fully validated
:class:`ModelInstance` objects carrying the containment radius, the interior
mask used for commutator norms, and the name of the oracle that predicts the
pairing independently.

Three builders are provided:

* ``build_circle_model`` - odd; D = diag(n) on Fourier modes, G a banded
  circulant from a finite symbol.  Periodic wrap keeps G exactly invertible.
* ``build_qwz_model`` - even; a two-band lattice model on a periodic square
  box with a site-diagonal dual Dirac operator, amplified by the internal
  2-level space so that D and H act on the same space
  (ordering: site (x) internal(2) (x) dirac(2)).
* ``build_weighted_shift_dirac`` - even; a graded weighted shift whose plus
  block has exact Fredholm index -nu at finite size, with scalar K = +/-1.

Builders attach analytically known eigensystems of D where the structure
makes them immediate (diagonal or site-block D); the generic dense path is
used otherwise and the two are interchangeable up to basis choice inside
degenerate eigenspaces.  ``ModelInstance.window`` compresses K onto a
spectral window of D in that eigenbasis once per radius; every localiser
block the pairing reads is assembled from such a window.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import yaml

from . import mmio
from .core import (
    CommutatorNorm,
    HermitianOperator,
    commutator_norm,
    odd_block,
    operator_norm,
    singular_gap,
    spectral_gap,
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
    "qwz_box_bloch_gap",
    "circle_symbol_values",
    "suggest_box",
    "save_model",
    "load_model",
]

s0 = np.array([[1, 0], [0, 1]], dtype=complex)
sx = np.array([[0, 1], [1, 0]], dtype=complex)
sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
sz = np.array([[1, 0], [0, -1]], dtype=complex)

# Safety margin (in lattice units) between the containment radius and the
# last site unaffected by the periodic seam.
_SAFETY_MARGIN = 2

# Commutator norms shared between models that provably have the same [D, K]
# (keyed per builder); only the norm pair is stored, never matrices.
_SHARED_COMMUTATORS: dict = {}


def _stable_order(w: np.ndarray) -> np.ndarray:
    # Ascending eigenvalue order; exact ties keep original index order.
    return np.argsort(w, kind="stable")


@dataclasses.dataclass(eq=False)
class GradedOperator:
    """A Hermitian matrix anticommuting with a diagonal +/-1 grading."""

    matrix: np.ndarray
    grading: np.ndarray
    odd_tol_factor: float = 1e-12

    def __post_init__(self):
        h = HermitianOperator(self.matrix)
        self.matrix = h.matrix
        g = np.asarray(self.grading)
        if g.shape != (h.dim,):
            raise DimensionMismatch("grading length does not match matrix dimension")
        if not np.all(np.isin(g, (-1, 1))):
            raise ValidationError("grading entries must be +1 or -1")
        self.grading = g.astype(np.int8)
        same = np.equal.outer(self.grading, self.grading)
        scale = max(float(np.max(np.abs(self.matrix))), 1.0)
        defect = float(np.max(np.abs(self.matrix[same]))) if same.any() else 0.0
        if defect > self.odd_tol_factor * scale:
            raise ValidationError(
                "matrix does not anticommute with the grading: "
                "diagonal-block entry %.3e exceeds %.3e" % (defect, self.odd_tol_factor * scale)
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def plus_index(self) -> np.ndarray:
        return np.flatnonzero(self.grading == 1)

    @property
    def minus_index(self) -> np.ndarray:
        return np.flatnonzero(self.grading == -1)

    @property
    def block_plus(self) -> np.ndarray:
        """The block mapping the +1 sector into the -1 sector."""
        return self.matrix[np.ix_(self.minus_index, self.plus_index)]


@dataclasses.dataclass(frozen=True, eq=False)
class Window:
    """A spectral window of D, in D's eigenbasis.

    index holds the kept positions of the ordered D eigensystem, eigs their
    D eigenvalues, and k_part the K-part V_W* K~ V_W, with K~ = Gamma K for
    even models and G for odd ones.  radius is the selection radius.  Every
    localiser block on the window or on a sub-window is read off these.
    """

    index: np.ndarray
    eigs: np.ndarray
    k_part: np.ndarray
    radius: float
    odd: bool

    @property
    def dim(self) -> int:
        return self.index.size

    def localiser(self, kappa: float, beyond: float | None = None) -> HermitianOperator | None:
        """The localiser on the window, or on its part with |D| > beyond.

        kappa*diag(eigs) + k_part for even models, the odd double
        [[kappa*diag(eigs), k_part], [k_part*, -kappa*diag(eigs)]] for odd
        ones.  None when the part beyond is empty.
        """
        w, k = self.eigs, self.k_part
        if beyond is not None:
            sel = np.flatnonzero((np.abs(w) > beyond) & (np.abs(w) <= self.radius))
            if not sel.size:
                return None
            w, k = w[sel], k[np.ix_(sel, sel)]
        d = np.diag(kappa * w).astype(np.complex128)
        return HermitianOperator(odd_block(d, k) if self.odd else d + k)


@dataclasses.dataclass(eq=False)
class ModelInstance:
    """Immutable model data plus lazily cached spectral quantities."""

    kind: str
    parity: str
    dirac: np.ndarray
    grading: np.ndarray | None
    k_rep: np.ndarray
    containment_radius: float
    oracle_ref: str
    params: dict
    interior_mask: np.ndarray
    cache: dict = dataclasses.field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValidationError("parity must be 'even' or 'odd'")
        self.dirac = HermitianOperator(self.dirac).matrix
        self.k_rep = np.asarray(self.k_rep, dtype=np.complex128)
        if self.k_rep.shape != self.dirac.shape:
            raise DimensionMismatch("D and K must act on the same space")
        if self.parity == "even":
            if self.grading is None:
                raise ValidationError("even models need a grading")
            # validates hermiticity of D + anticommutation with the grading
            GradedOperator(self.dirac, self.grading)
            HermitianOperator(self.k_rep)
            self.grading = np.asarray(self.grading, dtype=np.int8)
            # K must commute with the grading: its inter-sector block vanishes
            cross = self.k_rep[np.ix_(self.grading == 1, self.grading == -1)]
            defect = float(np.max(np.abs(cross))) if cross.size else 0.0
            # relative to max(|K|, 1); the scale is only read past the floor
            if defect > 1e-12 and defect > 1e-12 * float(np.max(np.abs(self.k_rep))):
                raise ValidationError(
                    "K does not commute with the grading (defect %.3e)" % defect
                )
        elif self.grading is not None:
            raise ValidationError("odd models carry no grading")
        self.interior_mask = np.asarray(self.interior_mask, dtype=bool)
        if self.interior_mask.shape != (self.dim,):
            raise DimensionMismatch("interior mask length does not match dimension")
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
        if "graded" not in self.cache:
            self.cache["graded"] = GradedOperator(self.dirac, self.grading)
        return self.cache["graded"]

    def dirac_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending, stable ties) and eigenvector columns of D."""
        if "eigensystem" not in self.cache:
            w, v = np.linalg.eigh(self.dirac)
            order = _stable_order(w)
            self.cache["eigensystem"] = (w[order], v[:, order])
        return self.cache["eigensystem"]

    def window(self, rho: float) -> Window:
        """The |D| <= rho window under the core.window_mask rule, cached per radius."""
        key = ("window", float(rho))
        if key not in self.cache:
            w, _ = self.dirac_eigensystem()
            self.cache[key] = self._window(window_mask(w, rho), float(rho))
        return self.cache[key]

    def containment_window(self) -> Window:
        """The |D| <= containment radius window, cached.

        Containment radii are themselves D eigenvalues, so there is no edge
        check.  An empty selection means the whole space.
        """
        if "containment_window" not in self.cache:
            w, _ = self.dirac_eigensystem()
            radius = self.containment_radius + 1e-9
            mask = np.abs(w) <= radius
            self.cache["containment_window"] = self._window(
                mask if mask.any() else np.ones_like(mask), radius
            )
        return self.cache["containment_window"]

    def _window(self, mask: np.ndarray, radius: float) -> Window:
        w, v = self.dirac_eigensystem()
        index = np.flatnonzero(mask)
        cols = v[:, index]
        # only rows in the support of the window's eigenvectors contribute;
        # closed-form eigensystems make that support as small as the window
        rows = np.flatnonzero(np.any(cols, axis=1))
        cols = cols[rows]
        k_sub = self.k_rep if rows.size == self.dim else self.k_rep[np.ix_(rows, rows)]
        k_cols = k_sub @ cols
        if self.parity == "even":
            k_part = (self.grading[rows, None] * cols).conj().T @ k_cols
            k_part = (k_part + k_part.conj().T) / 2.0
        else:
            k_part = cols.conj().T @ k_cols
        return Window(index, w[index], k_part, radius, self.parity == "odd")

    def k_norm(self) -> float:
        if "k_norm" not in self.cache:
            self.cache["k_norm"] = operator_norm(self.k_rep)
        return self.cache["k_norm"]

    def k_gap(self) -> float:
        """Invertibility margin of K: spectral gap (even) or sigma_min (odd)."""
        if "k_gap" not in self.cache:
            if self.parity == "even":
                self.cache["k_gap"] = spectral_gap(HermitianOperator(self.k_rep))
            else:
                self.cache["k_gap"] = singular_gap(self.k_rep)
        return self.cache["k_gap"]

    def dirac_commutator(self) -> CommutatorNorm:
        if "dirac_commutator" not in self.cache:
            shared = self.cache.get("commutator_shared_key")
            if shared in _SHARED_COMMUTATORS:
                self.cache["dirac_commutator"] = _SHARED_COMMUTATORS[shared]
            else:
                value = commutator_norm(self.dirac, self.k_rep, self.interior_mask)
                self.cache["dirac_commutator"] = value
                if shared is not None:
                    _SHARED_COMMUTATORS[shared] = value
        return self.cache["dirac_commutator"]

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "parity": self.parity,
            "dim": self.dim,
            "containment_radius": self.containment_radius,
            "oracle_ref": self.oracle_ref,
            "params": dict(self.params),
        }


# ---------------------------------------------------------------------------
# circle model


def _normalize_symbol(symbol) -> dict[int, complex]:
    if isinstance(symbol, dict):
        items = symbol.items()
    else:
        items = list(symbol)
    out: dict[int, complex] = {}
    for k, c in items:
        k = int(k)
        c = complex(c[0], c[1]) if isinstance(c, (tuple, list)) else complex(c)
        if c != 0:
            out[k] = out.get(k, 0) + c
    if not out:
        raise ValidationError("symbol has no nonzero coefficients")
    return out


def circle_symbol_values(symbol, thetas: np.ndarray) -> np.ndarray:
    """Evaluate the loop symbol g(theta) = sum_k c_k exp(i k theta)."""
    coeffs = _normalize_symbol(symbol)
    vals = np.zeros_like(thetas, dtype=complex)
    for k, c in coeffs.items():
        vals += c * np.exp(1j * k * thetas)
    return vals


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
    dirac = np.diag(dvals)

    eye = np.eye(dim, dtype=complex)
    g = np.zeros((dim, dim), dtype=complex)
    for k, c in coeffs.items():
        g += c * np.roll(eye, k, axis=0)  # S^k: e_j -> e_{j+k} (cyclic)

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
        oracle_ref="winding_number",
        params={
            "modes": modes,
            "symbol": {int(k): [c.real, c.imag] for k, c in sorted(coeffs.items())},
            "offset": float(offset),
        },
        interior_mask=interior,
    )
    order = _stable_order(dvals.real)
    model.cache["eigensystem"] = (dvals.real[order], eye[:, order])
    # circulant G is normal; norm and gap come from the symbol on the grid
    model.cache["k_norm"] = max_eig
    model.cache["k_gap"] = min_eig
    return model


# ---------------------------------------------------------------------------
# QWZ model


def qwz_bloch(mass: float):
    """Momentum-space two-band Hamiltonian h(k1, k2) as a callable."""

    def h(k1: float, k2: float) -> np.ndarray:
        return (
            math.sin(k1) * sx
            + math.sin(k2) * sy
            + (mass + math.cos(k1) + math.cos(k2)) * sz
        )

    return h


def _qwz_dvec_norms(mass: float, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    c1, c2 = np.cos(k1), np.cos(k2)
    return np.sqrt(np.sin(k1) ** 2 + np.sin(k2) ** 2 + (mass + c1 + c2) ** 2)


def qwz_bloch_gap(mass: float, grid: int = 512) -> float:
    """min_k |h(k)| over a uniform momentum grid (the bands sit at +/-|d(k)|)."""
    ks = 2.0 * np.pi * np.arange(grid) / grid
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    return float(np.min(_qwz_dvec_norms(mass, k1, k2)))


def qwz_box_bloch_gap(mass: float, side: int) -> float:
    """min |h(k)| over the discrete momenta of a periodic side x side box."""
    return qwz_bloch_gap(mass, grid=side)


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

    roll = np.roll(np.eye(side), 1, axis=0)  # e_x -> e_{x+1} (periodic)
    r1 = np.kron(roll, np.eye(side))
    r2 = np.kron(np.eye(side), roll)
    a1 = (sz - 1j * sx) / 2.0
    a2 = (sz - 1j * sy) / 2.0
    h_int = (
        np.kron(r1, a1)
        + np.kron(r1.T, a1.conj().T)
        + np.kron(r2, a2)
        + np.kron(r2.T, a2.conj().T)
        + mass * np.kron(np.eye(n_sites), sz)
    )
    k_rep = np.kron(h_int, np.eye(2))

    o = 0.5 if offset == "half_integer" else 0.0
    z = (x1 - o) + 1j * (x2 - o)
    zdiag = np.repeat(z, 2)  # one dirac block per (site, internal) pair
    lower = np.array([[0, 0], [1, 0]], dtype=complex)
    dirac = np.kron(np.diag(zdiag), lower)
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
        oracle_ref="chern_number_fhs",
        params={"box": box, "mass": mass, "offset": offset},
        interior_mask=interior,
    )
    model.cache["eigensystem"] = _qwz_eigensystem(zdiag)
    # K = h_int (x) I2: spectral data equals that of the half-size block
    w_int = np.linalg.eigvalsh(h_int)
    model.cache["k_norm"] = float(np.max(np.abs(w_int)))
    model.cache["k_gap"] = float(np.min(np.abs(w_int)))
    # the mass term is diagonal in the index D acts on, so [D, K] does not
    # depend on mass: share the commutator norms across masses
    model.cache["commutator_shared_key"] = ("qwz", int(box), str(offset))
    return model


def _qwz_eigensystem(zdiag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigensystem of the site-block Dirac matrix.

    Per dirac block [[0, zbar], [z, 0]]: eigenvalues -/+|z| with eigenvectors
    (1, -/+ z/|z|)/sqrt(2); a zero block keeps the coordinate basis.
    """
    nblocks = zdiag.shape[0]
    dim = 2 * nblocks
    r = np.abs(zdiag)
    w = np.empty(dim)
    v = np.zeros((dim, dim), dtype=complex)
    inv = 1.0 / np.sqrt(2.0)
    for b in range(nblocks):
        i0, i1 = 2 * b, 2 * b + 1
        if r[b] == 0.0:
            w[i0], w[i1] = 0.0, 0.0
            v[i0, i0] = 1.0
            v[i1, i1] = 1.0
        else:
            phase = zdiag[b] / r[b]
            w[i0], w[i1] = -r[b], r[b]
            v[i0, i0] = inv
            v[i1, i0] = -inv * phase
            v[i0, i1] = inv
            v[i1, i1] = inv * phase
    order = _stable_order(w)
    return w[order], v[:, order]


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
    block = np.zeros((copy_dim, copy_dim), dtype=complex)
    for n in range(n_sites + 1):
        block[npl + n + 1, n] = n + 1  # e_n -> (n+1) f_{n+1}
    block = block + block.conj().T
    copy_grading = np.concatenate([np.ones(npl), -np.ones(nmi)]).astype(np.int8)

    dirac = sla.block_diag(*([block] * nu))
    grading = np.tile(copy_grading, nu)
    dim = nu * copy_dim
    k_rep = float(sign) * np.eye(dim, dtype=complex)

    containment = float(n_sites - _SAFETY_MARGIN)
    model = ModelInstance(
        kind="weighted_shift",
        parity="even",
        dirac=dirac,
        grading=grading,
        k_rep=k_rep,
        containment_radius=containment,
        oracle_ref="fredholm_index_graded",
        params={"sites": n_sites, "nu": nu, "sign": int(sign)},
        interior_mask=np.ones(dim, dtype=bool),
    )
    model.cache["k_norm"] = 1.0
    model.cache["k_gap"] = 1.0
    return model


# ---------------------------------------------------------------------------
# sizing helper


def suggest_box(kind: str, kappa: float, gap: float, hop: int = 1) -> int:
    """Smallest box parameter keeping containment >= 1.2 * (2 gap / kappa)."""
    need = 1.2 * (2.0 * gap / kappa)
    if kind == "circle":
        return int(math.ceil(need)) + hop + _SAFETY_MARGIN
    if kind == "qwz":
        return int(math.ceil(need)) + 3
    if kind == "weighted_shift":
        return int(math.ceil(need)) + _SAFETY_MARGIN
    raise ValidationError("unknown model kind %r" % kind)


# ---------------------------------------------------------------------------
# persistence

_BUILDERS = {
    "circle": lambda p: build_circle_model(p["modes"], p["symbol"], p.get("offset", 0.0)),
    "qwz": lambda p: build_qwz_model(p["box"], p["mass"], p.get("offset", "half_integer")),
    "weighted_shift": lambda p: build_weighted_shift_dirac(
        p["sites"], p.get("nu", 1), p.get("sign", 1)
    ),
}


def save_model(model: ModelInstance, directory) -> Path:
    """Write a manifest plus full-precision matrix files; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    mmio.write_matrix(directory / "dirac.mtx", model.dirac, comment="position operator")
    mmio.write_matrix(directory / "k_rep.mtx", model.k_rep, comment="class representative")
    doc = {
        "schema": 1,
        "kind": model.kind,
        "parity": model.parity,
        "oracle_ref": model.oracle_ref,
        "containment_radius": float(model.containment_radius),
        "params": _jsonable(model.params),
        "grading": None if model.grading is None else [int(g) for g in model.grading],
        "interior_mask": [int(b) for b in model.interior_mask],
        "files": {"dirac": "dirac.mtx", "k_rep": "k_rep.mtx"},
    }
    path = directory / "manifest.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def load_model(path) -> ModelInstance:
    """Load a model from a manifest directory/file or a {kind, params} config.

    Manifest loads revalidate every structural contract; a tampered file
    fails loudly rather than producing a quietly inconsistent model.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.yaml"
    if not path.exists():
        raise FormatError("no such model file: %s" % path)
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise FormatError("cannot parse %s: %s" % (path, exc)) from exc
    if not isinstance(doc, dict):
        raise FormatError("%s does not contain a mapping" % path)

    if "files" not in doc:
        kind = doc.get("kind")
        if kind not in _BUILDERS:
            raise FormatError("unknown model kind %r in %s" % (kind, path))
        return _BUILDERS[kind](doc.get("params", {}))

    try:
        dirac = mmio.read_matrix(path.parent / doc["files"]["dirac"])
        k_rep = mmio.read_matrix(path.parent / doc["files"]["k_rep"])
        grading = doc["grading"]
        model = ModelInstance(
            kind=str(doc["kind"]),
            parity=str(doc["parity"]),
            dirac=dirac,
            grading=None if grading is None else np.asarray(grading, dtype=np.int8),
            k_rep=k_rep,
            containment_radius=float(doc["containment_radius"]),
            oracle_ref=str(doc["oracle_ref"]),
            params=dict(doc.get("params", {})),
            interior_mask=np.asarray(doc["interior_mask"], dtype=bool),
        )
    except KeyError as exc:
        raise FormatError("manifest %s is missing field %s" % (path, exc)) from exc
    return model

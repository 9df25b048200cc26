"""Localiser assembly, truncation, validity certificates and pairings.

The even localiser for a graded model (D, Gamma, H) is kappa*D + Gamma*H; the
odd localiser for (D, G) doubles the space to [[kappa*D, G], [G*, -kappa*D]].
Truncation compresses onto the spectral window |D| <= rho, expressed in the
eigenbasis of D ordered by eigenvalue (ties by original index).  The pairing
is read off the truncated matrix as half its signature, with the graded index
of D added in the even case.

``pairing`` never forms the full localiser: every block it needs is read off
the model's windows (``ModelInstance.window``), which hold D's eigenvalues
and the K-part V* K~ V on the window.  The truncated block comes from the
|D| <= rho window; the complement block and the seam-free regime block are
sub-blocks of the containment window.  ``truncate`` and
``complement_block`` compress a dense localiser directly and serve as the
reference those blocks are checked against; they, and the
``build_*_localiser`` helpers, densify the sparse model operators.

Validity is tracked through certificates rather than asserted silently.  Hard
conditions (the kappa bound, rho > 2*gap/kappa, containment of the window in
the box) gate the truncation theorem and are enforced in strict mode.  The
coupling and endpoint conditions from the block-decomposition argument are
recorded but never enforced: they are sufficient-only and fail by a wide
margin on standard parameter sets whose pairings are nevertheless exact, so
they ship as diagnostics.  Guarantee certificates (truncated gap >= gap/2,
complement gap, full-box gap >= theoretical bound) are marked applicable only
when the hypotheses backing them hold.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from .core import (
    EIG_SEP_TOL,
    ZERO_TOL_FACTOR,
    HermitianOperator,
    Inertia,
    as_matrix,
    inertia,
    odd_block,
    spectral_gap,
    window_mask,
)
from .errors import (
    ContainmentViolation,
    DimensionMismatch,
    HypothesisViolated,
    IntegerityViolation,
    SingularMatrix,
    StrictModeViolation,
    ValidationError,
)
from .models import ModelInstance
from .oracles import fredholm_index_graded

__all__ = [
    "LocaliserParams",
    "GapCertificate",
    "RegimeCertificate",
    "TruncatedLocaliser",
    "PairingResult",
    "build_even_localiser",
    "build_odd_localiser",
    "validate_infinite_regime",
    "validate_truncation_params",
    "truncate",
    "complement_block",
    "pairing_even",
    "pairing_odd",
    "pairing",
]

# (47/192)^(1/4): prefactor of sqrt(g*kappa*rho) in the coupling condition.
_COUPLING_FACTOR = (47.0 / 192.0) ** 0.25
# sqrt(47/48): prefactor of kappa*rho in the complement gap bound.
_COMPLEMENT_FACTOR = math.sqrt(47.0 / 48.0)


@dataclasses.dataclass(frozen=True)
class LocaliserParams:
    kappa: float
    rho: float
    mode: str = "permissive"

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValidationError("kappa must be positive")
        if self.rho <= 0:
            raise ValidationError("rho must be positive")
        if self.mode not in ("strict", "permissive"):
            raise ValidationError("mode must be 'strict' or 'permissive'")


@dataclasses.dataclass(frozen=True)
class GapCertificate:
    """One recorded inequality: ``measured <relation> bound``.

    kind "condition": an input hypothesis.  Hard conditions are enforced in
    strict mode; soft ones (sufficient-only bounds) are recorded always and
    enforced never.  kind "guarantee": a theorem output; ``applicable`` says
    whether the hypotheses backing it held, and only applicable guarantees
    can be violated.
    """

    name: str
    measured: float
    bound: float
    relation: str
    satisfied: bool
    kind: str = "condition"
    hard: bool = False
    applicable: bool = True
    detail: str = ""

    @property
    def violated(self) -> bool:
        return self.kind == "guarantee" and self.applicable and not self.satisfied

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["violated"] = self.violated
        return d


def _compare(measured: float, relation: str, bound: float) -> bool:
    if relation == "<=":
        return measured <= bound
    if relation == "<":
        return measured < bound
    if relation == ">=":
        return measured >= bound
    if relation == ">":
        return measured > bound
    raise ValidationError("unknown relation %r" % relation)


def _certificate(
    name, measured, bound, relation, kind="condition", hard=False,
    applicable=True, detail="", slack=0.0,
):
    # slack loosens the test without touching the recorded bound; used by
    # measured-gap guarantees to absorb eigensolver roundoff.
    effective = bound - slack if relation in (">=", ">") else bound + slack
    return GapCertificate(
        name=name,
        measured=float(measured),
        bound=float(bound),
        relation=relation,
        satisfied=_compare(measured, relation, effective),
        kind=kind,
        hard=hard,
        applicable=applicable,
        detail=detail,
    )


@dataclasses.dataclass(frozen=True)
class RegimeCertificate:
    """Invertibility data for the untruncated (full-box) localiser."""

    kappa: float
    k_gap: float
    comm_interior: float
    hypothesis_holds: bool
    theoretical_bound: float
    measured_gap: float | None

    def gap_certificate(self) -> GapCertificate:
        measured = self.measured_gap if self.measured_gap is not None else float("nan")
        return GapCertificate(
            name="regime_gap",
            measured=measured,
            bound=self.theoretical_bound,
            relation=">=",
            satisfied=bool(
                self.measured_gap is not None
                and self.measured_gap >= self.theoretical_bound - 1e-9
            ),
            kind="guarantee",
            applicable=bool(self.hypothesis_holds and self.measured_gap is not None),
            detail="seam-free localiser gap vs sqrt(g^2 - kappa*||[D,K]||)",
        )


def build_even_localiser(model: ModelInstance, kappa: float) -> HermitianOperator:
    """kappa*D + Gamma*H for a graded even model."""
    if model.parity != "even":
        raise ValidationError("even localiser needs an even model")
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    gamma = model.grading.astype(np.float64)
    return HermitianOperator(
        kappa * model.dirac.toarray() + gamma[:, None] * model.k_rep.toarray()
    )


def build_odd_localiser(model: ModelInstance, kappa: float) -> HermitianOperator:
    """[[kappa*D, G], [G*, -kappa*D]] for an odd model."""
    if model.parity != "odd":
        raise ValidationError("odd localiser needs an odd model")
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    return HermitianOperator(odd_block(kappa * model.dirac.toarray(), model.k_rep.toarray()))


def validate_infinite_regime(
    model: ModelInstance, kappa: float, mode: str = "permissive", measure: bool = True
) -> RegimeCertificate:
    """Check kappa * ||[D, K]|| < g^2 and measure the untruncated localiser gap.

    The commutator norm is the interior one, and the gap is measured on the
    localiser compressed to the containment window of D: the periodic seam
    of a finite box carries commutator entries of size O(box) and bound
    eigenmodes with no infinite-volume counterpart (at strict circle
    parameters the lowest full-box eigenvector has all its mass on the wrap
    rows).  In strict mode a failed hypothesis raises HypothesisViolated.
    The gap is measured only when the hypothesis holds; that is the only
    case where the theoretical bound makes a claim.
    """
    g = model.k_gap()
    comm = model.dirac_commutator()
    holds = kappa * comm < g * g
    bound = math.sqrt(max(g * g - kappa * comm, 0.0))
    if mode == "strict" and not holds:
        raise HypothesisViolated(
            "kappa*||[D,K]|| = %.6g is not below g^2 = %.6g"
            % (kappa * comm, g * g)
        )
    measured = None
    if measure and holds:
        key = ("regime_gap", float(kappa))
        if key not in model.cache:
            model.cache[key] = spectral_gap(model.containment_window().localiser(kappa))
        measured = model.cache[key]
    return RegimeCertificate(
        kappa=float(kappa),
        k_gap=g,
        comm_interior=comm,
        hypothesis_holds=bool(holds),
        theoretical_bound=bound,
        measured_gap=measured,
    )


def validate_truncation_params(
    model: ModelInstance, params: LocaliserParams, include_commutator: bool = True
) -> list[GapCertificate]:
    """Certificates for the truncation theorem hypotheses.

    Hard: kappa_bound (kappa <= g^3 / (12 ||K|| ||[D,K]||)), rho_bound
    (rho > 2g/kappa), containment (rho <= containment radius).  Soft:
    coupling (||K|| < (47/192)^(1/4) sqrt(g kappa rho)) and endpoint
    (max(1, ||K||) < kappa rho).  In strict mode a failed hard certificate
    raises; soft failures never raise.  include_commutator=False drops the
    kappa_bound certificate and its sparse Lanczos [D, K] norm, which grows
    with the box rather than the window; permissive-only.
    """
    g = model.k_gap()
    k_norm = model.k_norm()
    kappa, rho = params.kappa, params.rho

    certs = []
    if include_commutator:
        comm = model.dirac_commutator()
        kappa_cap = math.inf if comm == 0 else g**3 / (12.0 * k_norm * comm)
        certs.append(
            _certificate("kappa_bound", kappa, kappa_cap, "<=", hard=True,
                         detail="kappa <= g^3 / (12 ||K|| ||[D,K]||)")
        )
    elif params.mode == "strict":
        raise ValidationError("strict mode requires the commutator certificate")
    certs += [
        _certificate("rho_bound", rho, 2.0 * g / kappa, ">", hard=True,
                     detail="rho > 2 g / kappa"),
        _certificate("containment", rho, model.containment_radius, "<=", hard=True,
                     detail="window contained in the box"),
        _certificate("coupling", k_norm, _COUPLING_FACTOR * math.sqrt(g * kappa * rho),
                     "<", detail="||K|| < (47/192)^(1/4) sqrt(g kappa rho); sufficient only"),
        _certificate("endpoint", max(1.0, k_norm), kappa * rho, "<",
                     detail="max(1, ||K||) < kappa rho; sufficient only"),
    ]
    if params.mode == "strict":
        for cert in certs:
            if cert.hard and not cert.satisfied:
                exc = ContainmentViolation if cert.name == "containment" else StrictModeViolation
                raise exc(
                    "strict mode: %s fails (%.6g %s %.6g is false)"
                    % (cert.name, cert.measured, cert.relation, cert.bound)
                )
    return certs


@dataclasses.dataclass(eq=False)
class TruncatedLocaliser:
    """A localiser compressed onto the |D| <= rho window.

    basis holds the orthonormal window columns in the full space (block
    doubled for odd localisers); window_eigs the D eigenvalues kept.
    """

    operator: HermitianOperator
    basis: np.ndarray
    window_eigs: np.ndarray
    rho: float
    doubled: bool

    @property
    def dim(self) -> int:
        return self.operator.dim

    @property
    def rank(self) -> int:
        """Rank of the window projection the compression acts on."""
        return self.operator.dim


def _resolve_eigensystem(dirac, eigensystem):
    # the dense reference path: a model's sparse eigenvectors are densified
    if eigensystem is not None:
        w, v = eigensystem
        return w, v.toarray() if sp.issparse(v) else v
    d = dirac if isinstance(dirac, HermitianOperator) else HermitianOperator(dirac)
    w, v = np.linalg.eigh(d.matrix)
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def _compress(op_matrix: np.ndarray, basis: np.ndarray) -> HermitianOperator:
    sub = basis.conj().T @ op_matrix @ basis
    return HermitianOperator((sub + sub.conj().T) / 2.0)


def _window_basis(
    op_matrix: np.ndarray, mask: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, bool]:
    d_dim = v.shape[0]
    cols = v[:, mask]
    if op_matrix.shape[0] == d_dim:
        return cols, False
    if op_matrix.shape[0] == 2 * d_dim:
        k = cols.shape[1]
        basis = np.zeros((2 * d_dim, 2 * k), dtype=np.complex128)
        basis[:d_dim, :k] = cols
        basis[d_dim:, k:] = cols
        return basis, True
    raise DimensionMismatch(
        "operator dimension %d is neither d nor 2d for d=%d"
        % (op_matrix.shape[0], d_dim)
    )


def truncate(
    op,
    dirac,
    rho: float,
    eigensystem=None,
    eig_sep_tol: float = EIG_SEP_TOL,
) -> TruncatedLocaliser:
    """Compress op onto the spectral window |D| <= rho.

    op may live on the space of D or on its double (odd localisers); in the
    doubled case the window projection acts blockwise.  Raises
    BoundaryEigenvalue if an eigenvalue of D sits within eig_sep_tol of
    +/-rho.
    """
    op_matrix = as_matrix(op)
    w, v = _resolve_eigensystem(dirac, eigensystem)
    mask = window_mask(w, rho, eig_sep_tol)
    basis, doubled = _window_basis(op_matrix, mask, v)
    compressed = _compress(op_matrix, basis)
    return TruncatedLocaliser(
        operator=compressed,
        basis=basis,
        window_eigs=w[mask],
        rho=float(rho),
        doubled=doubled,
    )


def _complement_certificate(op, kappa, rho, applicable) -> GapCertificate:
    return _certificate(
        "complement_gap",
        spectral_gap(op),
        _COMPLEMENT_FACTOR * kappa * rho,
        ">=",
        kind="guarantee",
        applicable=applicable,
        detail="complement block gap vs sqrt(47/48) kappa rho",
        slack=1e-9,
    )


def complement_block(
    op,
    dirac,
    rho: float,
    kappa: float | None = None,
    outer: float | None = None,
    eigensystem=None,
    eig_sep_tol: float = EIG_SEP_TOL,
    applicable: bool = True,
) -> tuple[HermitianOperator, GapCertificate | None]:
    """Compress op onto |D| > rho and certify its gap against sqrt(47/48)*kappa*rho.

    outer bounds the complement window from above (rho < |D| <= outer);
    model-level callers pass the containment radius so the certificate
    measures the region that stands in for the infinite complement rather
    than the wrap rows of a periodic box.
    """
    op_matrix = as_matrix(op)
    w, v = _resolve_eigensystem(dirac, eigensystem)
    mask = ~window_mask(w, rho, eig_sep_tol)
    if outer is not None:
        mask &= np.abs(w) <= outer + 1e-9
    if not mask.any():
        raise ValidationError("empty complement at rho=%.6g" % rho)
    basis, _ = _window_basis(op_matrix, mask, v)
    compressed = _compress(op_matrix, basis)
    cert = None
    if kappa is not None:
        cert = _complement_certificate(compressed, kappa, rho, applicable)
    return compressed, cert


@dataclasses.dataclass(frozen=True)
class PairingResult:
    parity: str
    pairing: int
    signature: int
    index_correction: int | None
    inertia: Inertia
    kappa: float
    rho: float
    mode: str
    dim_full: int
    dim_trunc: int
    truncated_gap: float
    certificates: tuple[GapCertificate, ...]
    regime: RegimeCertificate | None

    def certificate(self, name: str) -> GapCertificate:
        for cert in self.certificates:
            if cert.name == name:
                return cert
        raise KeyError(name)

    @property
    def violations(self) -> list[str]:
        """Names of applicable guarantee certificates that failed."""
        return [c.name for c in self.certificates if c.violated]


def _index_correction(model: ModelInstance, rho: float) -> int:
    key = ("index_correction", float(rho))
    if key not in model.cache:
        model.cache[key] = fredholm_index_graded(model.graded(), rho_window=rho)
    return model.cache[key]


def pairing(
    model: ModelInstance,
    params: LocaliserParams,
    zero_tol: float | None = None,
    certificates: bool = True,
) -> PairingResult:
    """Read off the index pairing for either parity from the model's windows.

    The truncated block is kappa*diag(w) + V* K~ V on the |D| <= rho window
    (doubled for odd models).  The complement block rho < |D| <= containment
    and the seam-free regime block are sub-blocks of the containment
    window; both match the dense ``truncate``/``complement_block``
    compressions of the full localiser.

    certificates=False is a lean mode for sweeps on large models: it skips
    everything that needs the [D, K] commutator or an extra eigensolve (the
    kappa_bound condition, the untruncated-regime gap, the complement
    block), leaving the cheap geometric conditions plus the measured window
    gap.  Lean results carry no applicable theorem guarantees, so the mode
    is permissive-only.
    """
    if not certificates and params.mode == "strict":
        raise ValidationError("strict mode needs full certificates")
    certs = validate_truncation_params(
        model, params, include_commutator=certificates
    )
    regime = None
    if certificates:
        regime = validate_infinite_regime(model, params.kappa, params.mode)
    assumption_ok = certificates and all(c.satisfied for c in certs if c.hard)

    trunc_op = model.window(params.rho).localiser(params.kappa)
    g = model.k_gap()
    trunc_gap = spectral_gap(trunc_op)
    certs.append(
        _certificate(
            "truncated_gap", trunc_gap, 0.5 * g, ">=", kind="guarantee",
            applicable=assumption_ok,
            detail="truncated localiser gap vs g/2",
            slack=1e-9,
        )
    )
    if regime is not None:
        certs.append(regime.gap_certificate())
        comp = model.containment_window().localiser(params.kappa, beyond=params.rho)
        if comp is not None:
            certs.append(
                _complement_certificate(comp, params.kappa, params.rho, assumption_ok)
            )

    if params.mode == "strict":
        for cert in certs:
            if cert.violated:
                raise StrictModeViolation(
                    "strict mode: guarantee %s violated (%.6g %s %.6g fails)"
                    % (cert.name, cert.measured, cert.relation, cert.bound)
                )

    # the permissive acceptance criterion: the truncated matrix must be
    # numerically invertible regardless of which theoretical bounds applied
    tol_resolved = zero_tol if zero_tol is not None else ZERO_TOL_FACTOR * trunc_op.norm
    certs.append(
        _certificate(
            "invertibility", trunc_gap, tol_resolved, ">", kind="guarantee",
            detail="truncated localiser gap vs numerical zero tolerance",
        )
    )

    inert = inertia(trunc_op, zero_tol=zero_tol)
    if inert.n_zero:
        raise SingularMatrix(
            "truncated localiser has %d numerical zero eigenvalue(s)" % inert.n_zero
        )
    sig = inert.signature

    if model.parity == "even":
        idx = _index_correction(model, params.rho)
        if (sig + idx) % 2:
            raise IntegerityViolation(
                "signature %d plus index %d is odd; no integer pairing" % (sig, idx)
            )
        value = (sig + idx) // 2
    else:
        idx = None
        if sig % 2:
            raise IntegerityViolation("odd-localiser signature %d is odd" % sig)
        value = sig // 2

    return PairingResult(
        parity=model.parity,
        pairing=int(value),
        signature=int(sig),
        index_correction=idx,
        inertia=inert,
        kappa=params.kappa,
        rho=params.rho,
        mode=params.mode,
        dim_full=model.dim if model.parity == "even" else 2 * model.dim,
        dim_trunc=trunc_op.dim,
        truncated_gap=trunc_gap,
        certificates=tuple(certs),
        regime=regime,
    )


def pairing_even(model, params, zero_tol=None, certificates=True) -> PairingResult:
    if model.parity != "even":
        raise ValidationError("pairing_even needs an even model")
    return pairing(model, params, zero_tol=zero_tol, certificates=certificates)


def pairing_odd(model, params, zero_tol=None, certificates=True) -> PairingResult:
    if model.parity != "odd":
        raise ValidationError("pairing_odd needs an odd model")
    return pairing(model, params, zero_tol=zero_tol, certificates=certificates)

"""Validity certificates and index pairings read off a model's windows.

The even localiser for a graded model (D, Gamma, H) is kappa*D + Gamma*H; the
odd localiser for (D, G) doubles the space to [[kappa*D, G], [G*, -kappa*D]].
Truncation compresses onto the spectral window |D| <= rho, expressed in the
eigenbasis of D ordered by eigenvalue (ties by original index).  The pairing
is read off the truncated matrix as half its signature, with the index of
D's plus block on the window added in the even case.  The window is
Gamma-invariant and that block maps its p_w plus-graded vectors to its m_w
minus-graded ones, so by rank-nullity the index is p_w - m_w, the trace of
the window's grading V* Gamma V; no kernel is counted.

``pairing`` never forms the full localiser: every block it needs is read off
the model's windows (``ModelInstance.window``), which hold D's eigenvalues,
the K-part V* K~ V and, for even models, the grading V* Gamma V on the
window, all sparse.  The truncated block (|D| <= rho) stays CSR, and
``core.certified_inertia`` reads it by one rule: the LU at 0 gives the
inertia; Lanczos (QWZ windows) or two band eigenvalues (circle and shift
windows) give the gap; one ``COLAMD`` count pair confirms both.
The complement and seam-free regime blocks are sub-blocks of the
containment window and stay sparse.  A gap row, gap >= b, on either block
is built and counted only when it is applicable (the regime row when
kappa ||[D,K]|| < g^2, the complement row when every hard condition holds),
and otherwise reads NaN.  It is decided with no eigensolve by
``core.gap_counts``: Sylvester counts at +/-(b - 1e-9) in two orderings,
whose empty zero class proves the row; measured is then b - 1e-9, and
otherwise a Weyl lower bound, and each row's detail names the counts.

Validity is tracked through certificates rather than asserted silently:
every check, the untruncated-regime one included, is one
:class:`GapCertificate` row of ``PairingResult.certificates``.  Hard
conditions (the kappa bound, rho > 2*gap/kappa, containment of the window in
the box) gate the truncation theorem and are enforced in strict mode.  The
coupling and endpoint conditions from the block-decomposition argument are
recorded but never enforced: they are sufficient-only and fail by a wide
margin on standard parameter sets whose pairings are nevertheless exact, so
they ship as diagnostics.  Guarantee certificates (truncated gap >= gap/2
and the two gap rows above) are applicable only when the hypotheses backing
them hold.  Every cached spectral quantity is owned by the model.
"""

from __future__ import annotations

import dataclasses
import math
import operator

import numpy as np

from .core import ZERO_TOL_FACTOR, Inertia, certified_inertia, gap_counts
from .errors import (
    ContainmentViolation,
    HypothesisViolated,
    IntegerityViolation,
    SingularMatrix,
    StrictModeViolation,
    ValidationError,
)
from .models import ModelInstance

__all__ = [
    "MODES",
    "LocaliserParams",
    "GapCertificate",
    "PairingResult",
    "validate_infinite_regime",
    "validate_truncation_params",
    "pairing_even",
    "pairing_odd",
    "pairing",
]

# (47/192)^(1/4): prefactor of sqrt(g*kappa*rho) in the coupling condition.
_COUPLING_FACTOR = (47.0 / 192.0) ** 0.25
# sqrt(47/48): prefactor of kappa*rho in the complement gap bound.
_COMPLEMENT_FACTOR = math.sqrt(47.0 / 48.0)

# strict mode enforces the hard conditions and guarantees; permissive records them
MODES = ("strict", "permissive")


@dataclasses.dataclass(frozen=True)
class LocaliserParams:
    kappa: float
    rho: float
    mode: str = "permissive"

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValidationError("kappa must be finite and positive")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValidationError("rho must be finite and positive")
        if self.mode not in MODES:
            raise ValidationError("mode must be one of %s" % (MODES,))


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


_RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


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
        satisfied=bool(_RELATIONS[relation](measured, effective)),
        kind=kind,
        hard=hard,
        applicable=applicable,
        detail=detail,
    )


def _gap_row(model, kappa, name, bound, applicable, detail, beyond=None):
    """A gap guarantee gap >= bound on the containment window, or on its part
    |D| > beyond.

    An inapplicable row builds and counts nothing and reads NaN.  Otherwise
    it holds when the zero class of core.gap_counts of the block is empty;
    measured is then bound - 1e-9, the gap the counts prove, else the Weyl
    bound (each eigenvalue lies within ||K|| of one of kappa D's, read off
    the window), both clipped at 0."""
    if not applicable:
        return _certificate(name, math.nan, bound, ">=", kind="guarantee",
                            applicable=False, detail=detail)
    window = model.containment_window()
    counts = gap_counts(window.localiser(kappa, beyond), bound)
    w = np.abs(window.eigs)
    weyl = kappa * float(np.min(w if beyond is None else w[w > beyond])) - model.k_norm()
    detail = "%s (Sylvester counts %s at +/-(bound - 1e-9))" % (detail, counts)
    return GapCertificate(name, max(weyl if counts[2] else bound - 1e-9, 0.0), float(bound), ">=",
                          not counts[2], kind="guarantee", detail=detail)


def validate_infinite_regime(
    model: ModelInstance, kappa: float, mode: str = "permissive"
) -> GapCertificate:
    """The regime_gap guarantee: kappa * ||[D, K]|| < g^2 and the untruncated gap.

    The commutator norm is the interior one (ModelInstance.dirac_commutator:
    a builder's closed-form bound, or measured), and the gap is decided on the
    localiser compressed to the containment window of D: the periodic seam
    of a finite box carries commutator entries of size O(box) and bound
    eigenmodes with no infinite-volume counterpart (at strict circle
    parameters the lowest full-box eigenvector has all its mass on the wrap
    rows).  In strict mode a failed hypothesis raises HypothesisViolated.
    Only when it holds does the bound sqrt(g^2 - kappa ||[D, K]||) claim
    anything (it is 0 otherwise), so only then is the row applicable and the
    gap counted.  The row is cached per kappa on the model.
    """
    g = model.k_gap()
    comm, source = model.dirac_commutator()
    applicable = kappa * comm < g * g
    if not applicable and mode == "strict":
        raise HypothesisViolated("kappa*||[D,K]|| = %.6g is not below g^2 = %.6g"
                                 % (kappa * comm, g * g))
    key = ("regime_gap", float(kappa))
    if key not in model.cache:
        model.cache[key] = _gap_row(
            model, kappa, "regime_gap", math.sqrt(max(g * g - kappa * comm, 0.0)), applicable,
            "seam-free localiser gap vs sqrt(g^2 - kappa*||[D,K]||), ||[D,K]||: %s" % source)
    return model.cache[key]


def validate_truncation_params(
    model: ModelInstance, params: LocaliserParams, include_commutator: bool = True
) -> list[GapCertificate]:
    """Certificates for the truncation theorem hypotheses.

    Hard: kappa_bound (kappa <= g^3 / (12 ||K|| ||[D,K]||)), rho_bound
    (rho > 2g/kappa), containment (rho <= containment radius).  Soft:
    coupling (||K|| < (47/192)^(1/4) sqrt(g kappa rho)) and endpoint
    (max(1, ||K||) < kappa rho).  In strict mode a failed hard certificate
    raises; soft failures never raise.  The kappa_bound detail names the
    source of ||[D,K]|| (ModelInstance.dirac_commutator).
    include_commutator=False drops the kappa_bound certificate and its
    [D, K] norm, which a model without a builder's closed-form bound
    measures by Lanczos over the whole box rather than the window;
    permissive-only.
    """
    g = model.k_gap()
    k_norm = model.k_norm()
    kappa, rho = params.kappa, params.rho

    certs = []
    if include_commutator:
        comm, source = model.dirac_commutator()
        kappa_cap = math.inf if comm == 0 else g**3 / (12.0 * k_norm * comm)
        certs.append(
            _certificate("kappa_bound", kappa, kappa_cap, "<=", hard=True,
                         detail="kappa <= g^3 / (12 ||K|| ||[D,K]||) (%s)" % source)
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

    def certificate(self, name: str) -> GapCertificate:
        for cert in self.certificates:
            if cert.name == name:
                return cert
        raise KeyError(name)

    @property
    def violations(self) -> list[str]:
        """Names of applicable guarantee certificates that failed."""
        return [c.name for c in self.certificates if c.violated]


def pairing(
    model: ModelInstance,
    params: LocaliserParams,
    certificates: bool = True,
) -> PairingResult:
    """Read off the index pairing for either parity from the model's windows.

    The truncated block is kappa*diag(w) + V* K~ V on the |D| <= rho window
    (doubled for odd models); for even models the index correction is the
    trace of the window's grading, which must be within 1e-6 of an integer
    or IntegerityViolation is raised.  The complement block
    rho < |D| <= containment and the seam-free regime block are sub-blocks
    of the containment window; each equals the compression of the whole-box
    localiser onto the same eigenvectors of D, built only for an applicable
    row.  The complement row, present when D has eigenvalues there, is
    applicable when every hard condition holds; otherwise its detail lists
    those that failed.  PairingResult.truncated_gap and the inertia come
    from core.certified_inertia (a count-confirmed gap estimate), the
    inertia counted at ZERO_TOL_FACTOR times the Weyl bound kappa max|D_w|
    + ||K|| on the block's norm, the invertibility bound.

    certificates=False is a lean mode for sweeps on large models: it skips
    the [D, K] commutator (a closed form for builder models, a whole-box
    Lanczos norm otherwise) and the other blocks' gaps (the kappa_bound
    condition, the untruncated-regime gap, the complement block), leaving
    the cheap geometric conditions plus the window gap.  Lean results carry
    no applicable theorem guarantees, so the mode is permissive-only.
    """
    if not certificates and params.mode == "strict":
        raise ValidationError("strict mode needs full certificates")
    certs = validate_truncation_params(model, params, include_commutator=certificates)
    regime = validate_infinite_regime(model, params.kappa, params.mode) if certificates else None
    assumption_ok = certificates and all(c.satisfied for c in certs if c.hard)

    window = model.window(params.rho)
    trunc_op = window.localiser(params.kappa)
    # Weyl: ||L_w|| <= kappa max|D_w| + ||K||, a tolerance read off no eigenvalue
    zero_tol = ZERO_TOL_FACTOR * (params.kappa * np.abs(window.eigs).max() + model.k_norm())
    trunc_gap, inert, gap_route = certified_inertia(trunc_op, zero_tol)
    certs.append(_certificate(
        "truncated_gap", trunc_gap, 0.5 * model.k_gap(), ">=", kind="guarantee",
        applicable=assumption_ok, slack=1e-9,
        detail="truncated localiser gap vs g/2 (%s)" % gap_route,
    ))
    if regime is not None:
        certs.append(regime)
        kappa, rho = params.kappa, params.rho
        failed = ", ".join(c.name for c in certs if c.hard and not c.satisfied)
        w = np.abs(model.dirac_eigensystem()[0])
        if np.any((w > rho) & (w <= model.containment_radius + 1e-9)):
            certs.append(_gap_row(
                model, kappa, "complement_gap", _COMPLEMENT_FACTOR * kappa * rho, assumption_ok,
                "complement block gap vs sqrt(47/48) kappa rho"
                + (failed and "; not counted: %s failed" % failed), rho))

    if params.mode == "strict":
        for cert in certs:
            if cert.violated:
                raise StrictModeViolation(
                    "strict mode: guarantee %s violated (%.6g %s %.6g fails)"
                    % (cert.name, cert.measured, cert.relation, cert.bound)
                )

    # the permissive acceptance criterion: the truncated matrix must be
    # numerically invertible regardless of which theoretical bounds applied
    certs.append(_certificate(
        "invertibility", trunc_gap, zero_tol, ">", kind="guarantee",
        detail="truncated localiser gap vs numerical zero tolerance",
    ))

    if inert.n_zero:
        raise SingularMatrix(
            "truncated localiser has %d numerical zero eigenvalue(s)" % inert.n_zero
        )
    sig = inert.signature

    if model.parity == "even":
        # the index of the plus block on the window: Tr(V_W* Gamma V_W)
        trace = float(window.gamma_part.trace().real)
        idx = round(trace)
        if abs(trace - idx) > 1e-6:
            raise IntegerityViolation("window grading trace %.9g is not an integer" % trace)
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
        dim_trunc=trunc_op.shape[0],
        truncated_gap=trunc_gap,
        certificates=tuple(certs),
    )


def pairing_even(model, params, certificates=True) -> PairingResult:
    if model.parity != "even":
        raise ValidationError("pairing_even needs an even model")
    return pairing(model, params, certificates=certificates)


def pairing_odd(model, params, certificates=True) -> PairingResult:
    if model.parity != "odd":
        raise ValidationError("pairing_odd needs an odd model")
    return pairing(model, params, certificates=certificates)

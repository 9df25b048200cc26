"""Localiser assembly, certificates, truncation and the pairing itself."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

import speclocaliser.core as core
import speclocaliser.localiser as localiser
from speclocaliser import (
    BackendDisagreement,
    BoundaryEigenvalue,
    ContainmentViolation,
    FactorizationDeclined,
    HypothesisViolated,
    LocaliserParams,
    ModelInstance,
    StrictModeViolation,
    ValidationError,
    build_circle_model,
    build_qwz_model,
    build_weighted_shift_dirac,
    oracle_pairing,
    pairing,
    pairing_even,
    pairing_odd,
    suspension,
    validate_infinite_regime,
    validate_truncation_params,
)
from conftest import splu_spy
from reference import compress, dense_gap, dense_inertia, dense_localiser
from test_core import _BANDED_WINDOWS


def _circle200_strict():
    """The one gate pairing whose complement row is applicable: every hard
    condition holds, and its 208-row complement block counts (104, 104, 0)."""
    return build_circle_model(200, {0: 0.5, 1: 1.0}), LocaliserParams(1 / 144, 145.5, "strict")


def _assert_decided_by_counts(cert, block):
    # a gap row decided by counts: satisfied exactly when the gap reaches the
    # bound up to the 1e-9 slack, and measured a lower bound on the gap
    gap = dense_gap(block)
    assert cert.satisfied == (gap >= cert.bound - 1e-9)
    assert cert.measured <= gap
    assert "Sylvester counts" in cert.detail


class TestAssembly:
    def test_odd_localiser_blocks(self, circle40):
        # D is diagonal in the mode basis, so the odd window localiser is
        # [[kappa n, G_W], [G_W*, -kappa n]] with G_W the window block of G
        kappa = 0.05
        window = circle40.window(30.5)
        loc = window.localiser(kappa).toarray()
        d = window.dim
        g_w = circle40.k_rep.toarray()[np.ix_(window.index, window.index)]
        assert loc.shape == (2 * d, 2 * d)
        assert np.allclose(loc[:d, :d], kappa * np.diag(window.eigs), atol=1e-14)
        assert np.allclose(loc[d:, d:], -kappa * np.diag(window.eigs), atol=1e-14)
        assert np.allclose(loc[:d, d:], g_w, atol=1e-14)
        assert np.allclose(loc[d:, :d], g_w.conj().T, atol=1e-14)

    @pytest.mark.parametrize("offset", [0.0, 0.25], ids=["zero-mode", "no-zero-mode"])
    def test_odd_double_stores_what_block_array_stores(self, offset):
        # the one-COO odd double against sp.block_array, entry by entry and
        # pattern included, on the window (holding mode 0, D eigenvalue 0, at
        # offset 0), on the complement block, and with kappa 0 as the
        # suspension layouts assemble it: block_array stores no zero of
        # kappa diag(eigs)
        model = build_circle_model(40, {0: 0.5, 1: 1.0}, offset=offset)
        window, outer = model.window(30.5), model.containment_window()
        assert np.any(window.eigs == 0.0) == (offset == 0.0)
        w = np.abs(outer.eigs)
        sel = np.flatnonzero((w > 20.5) & (w <= model.containment_radius + 1e-9))
        cases = [
            (window, 0.05, window.k_part, slice(None), window.localiser(0.05)),
            (outer, 0.05, outer.k_part[sel][:, sel], sel, outer.localiser(0.05, beyond=20.5)),
            (window, 0.0, window.k_part, slice(None), window.assemble(0.0, window.k_part)),
        ]
        for win, kappa, k_part, sel, got in cases:
            d = sp.csr_array(sp.diags_array((kappa * win.eigs[sel]).astype(np.complex128)))
            k_part = sp.csr_array(k_part)
            ref = sp.block_array([[d, k_part], [k_part.conj().T, -d]], format="csr")
            assert got.format == "csr" and got.has_canonical_format
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, field), getattr(ref, field))

    def test_identity_symbol_spectrum_in_closed_form(self):
        # G = I makes every 2x2 momentum block [[kn, 1], [1, -kn]]; the
        # window |n| <= 10.5 keeps every mode
        model = build_circle_model(10, {0: 1.0})
        loc = model.window(10.5).localiser(0.1)
        n = np.arange(-10, 11)
        branch = np.sqrt(0.01 * n**2 + 1.0)
        expected = np.sort(np.concatenate([branch, -branch]))
        assert np.allclose(np.sort(np.linalg.eigvalsh(loc.toarray())), expected, atol=1e-12)


class TestInfiniteRegime:
    def test_hypothesis_holds_and_gap_beats_bound(self):
        model = build_circle_model(60, {0: 0.5, 1: 1.0})
        cert = validate_infinite_regime(model, 0.2)
        g = model.k_gap()
        assert cert.name == "regime_gap" and cert.kind == "guarantee"
        assert cert.applicable and cert.satisfied
        assert cert.bound == pytest.approx(np.sqrt(g * g - 0.2), abs=1e-12)
        # the row's detail names the seam-free counts that decide it
        counts = core.gap_counts(model.containment_window().localiser(0.2), cert.bound)
        assert counts[2] == 0
        assert cert.detail.endswith("(Sylvester counts %s at +/-(bound - 1e-9))" % (counts,))
        assert cert.measured == cert.bound - 1e-9
        _assert_decided_by_counts(cert, model.containment_window().localiser(0.2))

    def test_hypothesis_failure_permissive_vs_strict(self, monkeypatch):
        # kappa ||[D,G]|| = 0.3 exceeds g^2 = 0.25
        model = build_circle_model(60, {0: 0.5, 1: 1.0})
        calls = splu_spy(monkeypatch)
        cert = validate_infinite_regime(model, 0.3)
        assert not cert.applicable and not cert.violated
        assert np.isnan(cert.measured)
        assert calls == [] and "containment_window" not in model.cache
        with pytest.raises(HypothesisViolated):
            validate_infinite_regime(model, 0.3, mode="strict")

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_gap_equal_to_its_bound_stays_satisfied(self, nu):
        # K = +/-1 commutes with D, so the seam-free gap is exactly g = 1, the
        # bound itself: the LUs at exactly +/-1 are singular in both orderings,
        # and the counts at +/-(1 - 1e-9) find no eigenvalue inside
        model = build_weighted_shift_dirac(40, nu=nu)
        block = model.containment_window().localiser(0.1)
        assert dense_gap(block) == pytest.approx(1.0, abs=1e-14)
        for ordering in core.ORDERINGS:
            assert core._Counter(block, ordering).counts(1.0) is None
        cert = validate_infinite_regime(model, 0.1)
        assert cert.bound == 1.0 and cert.applicable and cert.satisfied
        assert cert.measured == 1.0 - 1e-9
        if nu == 1:
            assert cert.detail.endswith("(Sylvester counts (38, 39, 0) at +/-(bound - 1e-9))")
        _assert_decided_by_counts(cert, block)

    def test_gap_just_below_its_bound_is_not_satisfied(self, shift40, monkeypatch):
        # the shift complement gap sqrt(0.04 * 121 + 1) against bounds moved
        # onto it: within the 1e-9 slack the row holds, past it the counts
        # find the two eigenvalues +/-gap inside and the row reports the
        # Weyl bound kappa * 11 - ||K||, clipped at 0; at kappa 0.2 every
        # hard condition holds (rho 10.5 > 2g/kappa = 10), so the row is
        # applicable and a missed bound is a violation
        comp = shift40.containment_window().localiser(0.2, beyond=10.5)
        gap = dense_gap(comp)
        for excess, satisfied in ((0.5e-9, True), (2e-9, False), (1e-3, False)):
            monkeypatch.setattr(localiser, "_COMPLEMENT_FACTOR", (gap + excess) / (0.2 * 10.5))
            cert = pairing(shift40, LocaliserParams(0.2, 10.5)).certificate("complement_gap")
            assert cert.satisfied is satisfied
            assert cert.bound == pytest.approx(gap + excess, abs=1e-15)
            assert cert.measured == (cert.bound - 1e-9 if satisfied else 0.2 * 11 - 1.0)
            _assert_decided_by_counts(cert, comp)
            assert cert.violated is not satisfied

    def test_commuting_pair_keeps_full_margin(self, shift40):
        # K = identity commutes with D, so the bound stays at g itself
        cert = validate_infinite_regime(shift40, 0.1)
        assert shift40.dirac_commutator() == (0.0, "commuting pair")
        assert cert.bound == pytest.approx(shift40.k_gap())
        assert cert.measured >= 1.0 - 1e-9

    def test_row_is_counted_once_per_kappa(self, monkeypatch):
        # two full-certificate pairings at one kappa and two radii, then a
        # direct call: the regime block's LUs run in the first pairing only,
        # and every call returns that one row
        model = build_circle_model(60, {0: 0.5, 1: 1.0})
        dim = model.containment_window().localiser(0.2).shape[0]
        calls = splu_spy(monkeypatch)
        first = pairing(model, LocaliserParams(0.2, 20.5)).certificate("regime_gap")
        lus = sum(d == dim for d, _ in calls)
        second = pairing(model, LocaliserParams(0.2, 30.5)).certificate("regime_gap")
        assert first.applicable and lus > 0
        assert second is first and validate_infinite_regime(model, 0.2) is first
        assert sum(d == dim for d, _ in calls) == lus


class TestTruncationCertificates:
    @pytest.mark.parametrize(
        "kappa,rho",
        [(float("nan"), 25.5), (float("inf"), 25.5), (0.05, float("nan")),
         (0.05, float("inf")), (0.0, 25.5), (0.05, -1.0)],
    )
    def test_params_must_be_finite_and_positive(self, kappa, rho):
        with pytest.raises(ValidationError):
            LocaliserParams(kappa, rho)

    def test_kappa_cap_value(self):
        model = build_circle_model(200, {0: 0.5, 1: 1.0})
        certs = validate_truncation_params(model, LocaliserParams(1.0 / 144.0, 145.5))
        cap = next(c for c in certs if c.name == "kappa_bound")
        # g^3 / (12 ||G|| ||[D,G]||) with g ~ 1/2, ||G|| ~ 3/2 lands at ~1/144
        assert cap.bound == pytest.approx(1.0 / 144.0, rel=3e-4)
        assert cap.satisfied and cap.hard and cap.kind == "condition"

    def test_rho_bound_is_two_g_over_kappa(self, circle40):
        certs = validate_truncation_params(circle40, LocaliserParams(0.05, 30.5))
        rb = next(c for c in certs if c.name == "rho_bound")
        assert rb.bound == pytest.approx(2.0 * circle40.k_gap() / 0.05)
        assert rb.satisfied

    def test_strict_rho_violation_raises(self, circle40):
        # rho = 10.5 sits below 2g/kappa = 20
        with pytest.raises(StrictModeViolation):
            validate_truncation_params(
                circle40, LocaliserParams(0.05, 10.5, mode="strict")
            )

    def test_strict_containment_violation_raises(self, shift40):
        # commutator-free model, so only the containment condition can trip
        with pytest.raises(ContainmentViolation):
            validate_truncation_params(
                shift40, LocaliserParams(0.1, 40.5, mode="strict")
            )

    def test_soft_certificates_recorded_not_enforced(self):
        # the coupling bound fails here, yet strict mode still passes
        model = build_circle_model(200, {0: 0.5, 1: 1.0})
        certs = validate_truncation_params(
            model, LocaliserParams(1.0 / 144.0, 145.5, mode="strict")
        )
        coupling = next(c for c in certs if c.name == "coupling")
        assert coupling.kind == "condition" and not coupling.hard
        assert not coupling.satisfied
        assert not coupling.violated  # conditions never "violate"

    @pytest.mark.parametrize(
        "kappa,rho,expect", [(0.5, 8.5, True), (0.25, 6.5, False)]
    )
    def test_endpoint_condition(self, qwz9, kappa, rho, expect):
        certs = validate_truncation_params(qwz9, LocaliserParams(kappa, rho))
        ep = next(c for c in certs if c.name == "endpoint")
        assert ep.measured == pytest.approx(max(1.0, qwz9.k_norm()))
        assert ep.satisfied is expect

    def test_lean_mode_drops_commutator_certificate(self, qwz9):
        certs = validate_truncation_params(
            qwz9, LocaliserParams(0.5, 8.5), include_commutator=False
        )
        assert all(c.name != "kappa_bound" for c in certs)
        with pytest.raises(ValidationError):
            validate_truncation_params(
                qwz9, LocaliserParams(0.5, 8.5, mode="strict"), include_commutator=False
            )

    def test_flags_are_python_bools(self, qwz9):
        # every row of a full pairing carries plain bools and dumps to JSON
        # with no hook, the invertibility row (a numpy comparison) included
        for model, params in (_circle200_strict(), (qwz9, LocaliserParams(0.75, 5.5))):
            for cert in pairing(model, params).certificates:
                flags = (cert.satisfied, cert.applicable, cert.hard, cert.violated)
                assert all(type(flag) is bool for flag in flags)
                json.dumps(cert.as_dict())


class TestTruncate:
    def test_window_rank_and_orthonormality(self):
        model = build_circle_model(200, {0: 0.5, 1: 1.0})
        window = model.window(30.5)
        assert window.dim == 61  # |n| <= 30
        assert window.localiser(0.05).shape[0] == 2 * 61  # doubled blocks
        cols = model.dirac_eigensystem()[1][:, window.index].toarray()
        assert np.allclose(cols.conj().T @ cols, np.eye(window.dim), atol=1e-12)
        assert np.max(np.abs(window.eigs)) <= 30.5

    def test_boundary_eigenvalue_refused(self, circle40):
        with pytest.raises(BoundaryEigenvalue):
            circle40.window(30.0)

    def test_even_window_matches_interval_dimension(self, qwz9):
        window = qwz9.window(5.5)
        w = qwz9.dirac_eigensystem()[0]
        assert window.dim == int(np.sum(np.abs(w) <= 5.5))
        assert window.localiser(0.5).shape[0] == window.dim  # not doubled

    def test_compression_preserves_hermiticity(self, shift40):
        # Hermitian by construction; its consumers validate it
        loc = shift40.window(10.5).localiser(0.1)
        assert abs(loc - loc.conj().T).max() == 0.0


class TestComplementBlock:
    def test_shift_complement_gap_in_closed_form(self, shift40):
        # D and Gamma commute blockwise, so the complement eigenvalues are
        # +/- sqrt(kappa^2 d^2 + 1); the smallest |d| beyond 10.5 is 11
        # (the row is applicable at kappa 0.2: rho 10.5 > 2g/kappa = 10)
        comp = shift40.containment_window().localiser(0.2, beyond=10.5)
        assert dense_gap(comp) == pytest.approx(np.sqrt(0.04 * 121 + 1.0), rel=1e-12)
        cert = pairing(shift40, LocaliserParams(0.2, 10.5)).certificate("complement_gap")
        assert cert.bound == pytest.approx(np.sqrt(47.0 / 48.0) * 0.2 * 10.5)
        assert cert.satisfied and cert.kind == "guarantee" and cert.applicable

    def test_gap_certificates_name_their_route(self):
        # report.json carries as_dict(); its detail names the counts that decided it
        model, params = _circle200_strict()
        res = pairing(model, params)
        assert res.certificate("regime_gap").applicable
        for name, block in _gap_blocks(model, params).items():
            cert = res.certificate(name)
            counts = core.gap_counts(block, cert.bound)
            assert cert.as_dict()["detail"].endswith(
                "(Sylvester counts %s at +/-(bound - 1e-9))" % (counts,)
            )
            _assert_decided_by_counts(cert, block)

    def test_truncated_gap_names_its_route(self, circle40):
        params = LocaliserParams(0.05, 30.5)
        detail = pairing(circle40, params).certificate("truncated_gap").detail
        assert detail.endswith("(banded eigensolve, bandwidth 1)")
        qwz = build_qwz_model(box=10, mass=1.0)
        res = pairing(qwz, LocaliserParams(1.0, 5.5), certificates=False)
        assert res.certificate("truncated_gap").detail.endswith("(%s)" % core.SPARSE_GAP_ROUTE)

    def test_outer_cut_restricts_window(self, circle40):
        # the containment radius 37 cuts the complement: modes 31..37 of
        # each sign, doubled blocks
        comp = circle40.containment_window().localiser(0.05, beyond=30.5)
        assert circle40.containment_radius == 37.0
        assert comp.shape[0] == 2 * 14


def _assert_same_block(block, reference):
    dense = block.toarray()
    assert dense.shape == reference.shape
    assert np.max(np.abs(dense - reference)) <= 1e-12
    assert dense_inertia(block) == dense_inertia(reference)


class TestWindowBlocks:
    """The window blocks pairing reads equal the dense compressions."""

    @pytest.mark.parametrize(
        "model_name,kappas,rhos",
        [
            ("circle40", (0.02, 0.05), (20.5, 30.5)),
            ("qwz9", (0.5, 1.0), (4.5, 5.5)),
            ("shift40_nu2", (0.1, 0.2), (8.5, 10.5)),
            ("circle200", (1 / 144,), (145.5,)),
        ],
    )
    def test_window_blocks_match_dense_reference(self, request, model_name, kappas, rhos):
        # the complement row is applicable at shift40_nu2's (0.2, 10.5) and
        # at circle200's strict pairing, and only there is its block counted
        if model_name == "shift40_nu2":
            model = build_weighted_shift_dirac(40, nu=2)
        elif model_name == "circle200":
            model = _circle200_strict()[0]
        else:
            model = request.getfixturevalue(model_name)
        w = model.dirac_eigensystem()[0]
        outer = model.containment_window()
        for kappa in kappas:
            loc = dense_localiser(model, kappa)
            seam_free = compress(loc, model, outer.index)
            _assert_same_block(outer.localiser(kappa), seam_free)
            for rho in rhos:
                trunc = compress(loc, model, model.window(rho).index)
                beyond = (np.abs(w) > rho) & (np.abs(w) <= model.containment_radius + 1e-9)
                comp = compress(loc, model, np.flatnonzero(beyond))
                block = model.window(rho).localiser(kappa)
                _assert_same_block(block, trunc)
                _assert_same_block(outer.localiser(kappa, beyond=rho), comp)

                path = suspension(model, kappa, rho, num=3)
                assert np.max(np.abs(path.sample(1.0) - trunc)) <= 1e-12

                res = pairing(model, LocaliserParams(kappa, rho))
                assert res.inertia == dense_inertia(trunc)
                complement = res.certificate("complement_gap")
                if complement.applicable:
                    _assert_decided_by_counts(complement, comp)
                else:
                    assert np.isnan(complement.measured) and "not counted" in complement.detail
                regime = res.certificate("regime_gap")
                if regime.applicable:
                    _assert_decided_by_counts(regime, seam_free)


class TestPairing:
    def test_odd_identity_symbol_pairs_to_zero(self):
        model = build_circle_model(10, {0: 1.0})
        res = pairing_odd(model, LocaliserParams(0.1, 5.5))
        assert res.pairing == 0
        assert res.signature == 0

    @pytest.mark.parametrize("name,params", [
        ("circle40", LocaliserParams(0.05, 30.5)),  # banded route: one eigensolve
        ("qwz9", LocaliserParams(0.75, 5.5)),  # Sylvester counts: none
    ])
    def test_one_eigensolve_per_pairing(self, request, monkeypatch, name, params):
        # on the banded route the kernel computes the two eigenvalues that
        # bracket 0, no more; elsewhere the truncated gap is certified and
        # the inertia counted; the certified gaps take no dense fallback
        model = request.getfixturevalue(name)
        kernel, calls = core._eigensolve, []

        def counted(a, order, select=None):
            w = kernel(a, order, select)
            calls.append((a.shape[0], w.size))
            return w

        monkeypatch.setattr(core, "_eigensolve", counted)
        res = pairing(model, params)
        assert calls == ([(res.dim_trunc, 2)] if model.kind == "circle" else [])

    def test_symbol_offset_does_not_move_the_class(self):
        plain = build_circle_model(40, {1: 1.0})
        shifted = build_circle_model(40, {1: 1.0, 0: 0.5})
        params = LocaliserParams(0.05, 30.5)
        assert pairing_odd(plain, params).pairing == pairing_odd(shifted, params).pairing

    def test_even_pairing_matches_band_oracle(self, qwz9):
        res = pairing_even(qwz9, LocaliserParams(0.75, 5.5))
        assert res.pairing == oracle_pairing(qwz9)
        assert abs(res.pairing) == 1
        assert (res.signature + res.index_correction) % 2 == 0

    def test_near_singular_plus_block_pairs_to_zero(self):
        # plus block diag(1, 1e-6): its singular value sits in the kernel
        # ambiguity decade, but the window index is the grading trace 2 - 2
        a = np.diag([1.0, 1e-6])
        dirac = np.block([[np.zeros((2, 2)), a.T], [a, np.zeros((2, 2))]])
        model = ModelInstance(
            kind="custom", parity="even", dirac=dirac, grading=np.array([1, 1, -1, -1]),
            k_rep=np.eye(4), containment_radius=10.0, oracle_ref="fredholm_index_graded",
            params={}, interior_mask=np.ones(4, dtype=bool),
        )
        res = pairing(model, LocaliserParams(1.0, 2.5))
        assert res.dim_trunc == 4
        assert res.index_correction == 0
        assert res.pairing == 0

    def test_empty_containment_window_is_refused(self):
        # every |D| eigenvalue lies beyond the containment radius, so the
        # seam-free regime row has no window to count on
        model = ModelInstance(
            kind="custom", parity="odd", dirac=np.diag([-3.0, -2.0, 2.0, 3.0]), grading=None,
            k_rep=np.eye(4), containment_radius=1.0, oracle_ref="fredholm_index_graded",
            params={}, interior_mask=np.ones(4, dtype=bool),
        )
        with pytest.raises(ValidationError, match=r"radius 1 below the least \|D\| eigenvalue 2"):
            pairing(model, LocaliserParams(0.5, 2.5))

    def test_parity_dispatch_enforced(self, circle40, qwz9):
        with pytest.raises(ValidationError):
            pairing_even(circle40, LocaliserParams(0.05, 30.5))
        with pytest.raises(ValidationError):
            pairing_odd(qwz9, LocaliserParams(0.75, 5.5))

    def test_certificate_roster_full_mode(self, shift40):
        res = pairing(shift40, LocaliserParams(0.1, 10.5))
        names = {c.name for c in res.certificates}
        assert {
            "kappa_bound",
            "rho_bound",
            "containment",
            "coupling",
            "endpoint",
            "truncated_gap",
            "regime_gap",
            "complement_gap",
            "invertibility",
        } <= names
        assert res.violations == []
        assert res.certificate("regime_gap").applicable

    def test_lean_mode_skips_expensive_certificates(self, shift40):
        res = pairing(shift40, LocaliserParams(0.1, 10.5), certificates=False)
        names = {c.name for c in res.certificates}
        assert "kappa_bound" not in names
        assert "regime_gap" not in names
        assert "complement_gap" not in names
        assert "invertibility" in names and "truncated_gap" in names
        # the pairing itself is unchanged
        full = pairing(shift40, LocaliserParams(0.1, 10.5))
        assert res.pairing == full.pairing

    def test_lean_strict_is_contradictory(self, shift40):
        with pytest.raises(ValidationError):
            pairing(shift40, LocaliserParams(0.1, 10.5, mode="strict"), certificates=False)

    def test_parameter_stability_grid(self):
        model = build_circle_model(40, {0: 0.5, 1: 1.0})
        values = {
            pairing(model, LocaliserParams(kappa, rho)).pairing
            for kappa in (0.02, 0.05)
            for rho in (20.5, 25.5, 30.5)
        }
        assert values == {oracle_pairing(model)}

    def test_result_dimensions_are_reported(self, shift40):
        res = pairing(shift40, LocaliserParams(0.1, 10.5))
        assert res.dim_full == shift40.dim
        assert res.dim_trunc == 21  # |d| <= 10.5 keeps 0 once and 1..10 twice
        assert res.inertia.n_pos + res.inertia.n_neg == 21


# QWZ models whose windows tier-1 pairs, boxes 8-12: (box, mass, offset) ->
# their (kappa, rho) pairs; box 8 with the spectral-flow sweep's corners
_QWZ_PAIRED = {
    **{(8, mass, "half_integer"): [(k, r) for k in (0.8, 1.1) for r in (3.5, 4.5)]
       for mass in (1.0, -1.0, 3.0)},
    (9, 1.0, "half_integer"): [(0.5, 4.5), (0.5, 5.5), (0.75, 5.5)]
    + [(1.0, r) for r in (3.5, 4.5, 5.5, 6.5)],
    (9, 1.0, "integer"): [(1.0, r) for r in (3.5, 5.5, 6.5)],
    (10, 1.0, "half_integer"): [(1.0, 5.5)],
    **{(12, mass, offset): [(k, r) for k in (0.5, 1.0) for r in (6.5, 8.5)]
       for mass in (1.0, -1.0) for offset in ("half_integer", "integer")},
    **{(12, 3.0, offset): [(1.0, 6.5), (1.0, 8.5)] for offset in ("half_integer", "integer")},
}


def _alter_counts(monkeypatch, alter, ordering, dim=None):
    """Patch the counters in one ordering (on blocks of one dimension, when
    given) to return alter(counts)."""
    counts = core._Counter.counts

    def altered(counter, zero_tol, data=None):
        got = counts(counter, zero_tol, data)
        hit = counter.ordering == ordering and dim in (None, counter.dim)
        return alter(got) if hit else got

    monkeypatch.setattr(core._Counter, "counts", altered)


# the QWZ windows above, off the banded route, and the banded circle and
# shift windows of test_core, each case name -> (model builder, (kappa, rho) pairs)
_PAIRED_WINDOWS = {
    **{"%d-%s-%s" % key: (lambda key=key: build_qwz_model(*key), pairs)
       for key, pairs in _QWZ_PAIRED.items()},
    **{name: (build, [(kappa, rho) for rho in rhos])
       for name, (build, kappa, rhos) in _BANDED_WINDOWS.items()},
}


class TestSylvesterRoute:
    """Each window on the route certified_inertia picks for it: a certified
    gap and Sylvester counts off the band, one eigensolve on it."""

    @pytest.mark.parametrize("case", sorted(_PAIRED_WINDOWS))
    def test_counts_and_gap_match_eigvalsh(self, case):
        build, pairs = _PAIRED_WINDOWS[case]
        model = build()
        banded = model.kind != "qwz"
        for kappa, rho in pairs:
            res = pairing(model, LocaliserParams(kappa, rho), certificates=False)
            route = "banded eigensolve, bandwidth 1" if banded else core.SPARSE_GAP_ROUTE
            assert res.certificate("truncated_gap").detail.endswith("(%s)" % route)
            w = np.linalg.eigvalsh(model.window(rho).localiser(kappa).toarray())
            tol = res.certificate("invertibility").bound
            norm = float(np.max(np.abs(w)))
            assert tol >= core.ZERO_TOL_FACTOR * norm  # Weyl
            got = res.inertia
            assert (got.n_pos, got.n_neg, got.n_zero) == core.eigenvalue_counts(w, tol)
            dense = float(np.min(np.abs(w)))
            if banded:
                assert abs(res.truncated_gap - dense) <= 1e-12 * norm
            else:
                assert dense - 1e-9 * max(dense, 1.0) <= res.truncated_gap <= dense

    @pytest.mark.parametrize("ordering", core.ORDERINGS, ids=["first", "second"])
    def test_flipped_count_from_either_ordering_is_caught(self, qwz9, monkeypatch, ordering):
        # one negative pivot read as positive in that ordering's LUs: the
        # first ordering's LU at 0 (the Lanczos estimate's) or the second's
        # at +/-bound (its confirmation)
        factor = core._Counter.factor

        def flipped(counter, shift, data=None):
            got = factor(counter, shift, data)
            if got is None or counter.ordering != ordering:
                return got
            signs = got[1].copy()
            signs[np.argmax(signs < 0)] = 1.0
            return got[0], signs

        monkeypatch.setattr(core._Counter, "factor", flipped)
        with pytest.raises(BackendDisagreement) as exc:
            pairing(qwz9, LocaliserParams(0.75, 5.5), certificates=False)
        assert exc.value.eig_counts != exc.value.factor_counts

    def test_flipped_pivot_at_zero_on_the_band_is_caught(self, circle40, monkeypatch):
        # one negative pivot of a banded block's LU at 0 read as positive:
        # the two eigenvalues at the indices it implies do not bracket 0
        factor = core._Counter.factor

        def flipped(counter, shift, data=None):
            got = factor(counter, shift, data)
            if got is None or shift != 0.0:
                return got
            signs = got[1].copy()
            signs[np.argmax(signs < 0)] = 1.0
            return got[0], signs

        monkeypatch.setattr(core._Counter, "factor", flipped)
        with pytest.raises(BackendDisagreement) as exc:
            pairing(circle40, LocaliserParams(0.05, 30.5), certificates=False)
        assert exc.value.eig_counts != exc.value.factor_counts

    def test_lanczos_bound_is_confirmed_once_at_itself(self, qwz9, monkeypatch):
        # the only counts are the second ordering's, at exactly +/-bound, and
        # a count flipped there is caught
        block = qwz9.window(5.5).localiser(0.75)
        lower = core._lanczos_gap(block)[0]
        counts, thresholds = core._Counter.counts, []

        def flipped(counter, zero_tol, data=None):
            thresholds.append((counter.ordering, zero_tol))
            got = counts(counter, zero_tol, data)
            return got[0] + 1, got[1] - 1, got[2]

        monkeypatch.setattr(core._Counter, "counts", flipped)
        with pytest.raises(BackendDisagreement) as exc:
            core.certified_inertia(block, 1e-8)
        assert thresholds == [(core.ORDERINGS[1], lower)]
        assert exc.value.zero_tol == lower

    def test_banded_gap_is_confirmed_by_counts(self, circle40, monkeypatch):
        # the kernel reports the two eigenvalues that bracket 0 further out
        # than they are: the counts at the reported gap find them inside it
        eigensolve = core._eigensolve

        def moved(a, order, select=None):
            w = eigensolve(a, order, select)
            return w if select is None else 1.5 * w

        monkeypatch.setattr(core, "_eigensolve", moved)
        with pytest.raises(BackendDisagreement) as exc:
            pairing(circle40, LocaliserParams(0.05, 30.5), certificates=False)
        assert exc.value.eig_counts[2] == 0 and exc.value.factor_counts[2] > 0

    def test_dense_limit_no_longer_gates_pairing(self, monkeypatch):
        # below the cap: a QWZ window, and the complement block of the strict
        # circle-200 pairing, whose row is applicable and so counted
        model = build_qwz_model(box=8, mass=1.0)
        params = LocaliserParams(1.0, 4.5)
        window = model.window(params.rho)
        oracle = oracle_pairing(model)
        circle, strict = _circle200_strict()
        comp = circle.containment_window().localiser(strict.kappa, beyond=strict.rho)
        monkeypatch.setattr(core, "DENSE_DIM_LIMIT", min(window.dim, comp.shape[0]) - 1)
        with pytest.raises(ValidationError, match="dense limit"):
            core.hermitian_eigenvalues(window.localiser(params.kappa))
        res = pairing_even(model, params)
        assert res.pairing == oracle
        assert res.dim_trunc > core.DENSE_DIM_LIMIT
        assert res.certificate("truncated_gap").detail.endswith("(%s)" % core.SPARSE_GAP_ROUTE)
        assert comp.shape[0] > core.DENSE_DIM_LIMIT
        _assert_decided_by_counts(pairing(circle, strict).certificate("complement_gap"), comp)

    @pytest.mark.parametrize("certificates", [False, True], ids=["lean", "certified"])
    def test_banded_window_past_the_dense_cap(self, certificates):
        # a 20,202-row circle window takes the banded route, which is not
        # capped, lean and with full certificates
        model = build_circle_model(5100, {0: 0.5, 1: 1.0})
        res = pairing(model, LocaliserParams(0.05, 5050.5), certificates=certificates)
        assert res.dim_trunc == 20202 > core.DENSE_DIM_LIMIT
        assert res.pairing == oracle_pairing(model) == -1
        assert not res.violations


# the gap rows' blocks on a pairing where both rows are applicable, as on
# the strict circle-200 one: name -> block
def _gap_blocks(model, params):
    outer = model.containment_window()
    return {"regime_gap": outer.localiser(params.kappa),
            "complement_gap": outer.localiser(params.kappa, beyond=params.rho)}


class TestGapCounts:
    """The complement and regime rows are decided by counts in both orderings."""

    @pytest.mark.parametrize("ordering", core.ORDERINGS, ids=["first", "second"])
    @pytest.mark.parametrize("name", ["regime_gap", "complement_gap"])
    def test_flipped_zero_class_from_either_ordering_is_caught(self, monkeypatch, name, ordering):
        # one eigenvalue miscounted into the zero class, on that row's block only
        model, params = _circle200_strict()
        block = _gap_blocks(model, params)[name]
        _alter_counts(monkeypatch, lambda c: (c[0] - 1, c[1], c[2] + 1), ordering, block.shape[0])
        with pytest.raises(BackendDisagreement):
            pairing(model, params)

    @pytest.mark.parametrize("ordering", core.ORDERINGS, ids=["first", "second"])
    def test_flipped_count_on_the_complement_block_is_caught(self, monkeypatch, ordering):
        # one eigenvalue read above the gap instead of below it: the strict
        # circle-200 pairing counts its complement block and raises; circle40
        # at kappa 0.05 fails kappa_bound, so its complement row is
        # inapplicable, its block is never counted, and nothing raises
        model, params = _circle200_strict()
        small = build_circle_model(40, {0: 0.5, 1: 1.0})
        for m, p, raises in ((model, params, True), (small, LocaliserParams(0.05, 30.5), False)):
            dim = _gap_blocks(m, p)["complement_gap"].shape[0]
            _alter_counts(monkeypatch, lambda c: (c[0] + 1, c[1] - 1, c[2]), ordering, dim)
            if raises:
                with pytest.raises(BackendDisagreement) as exc:
                    pairing(m, p)
                assert exc.value.eig_counts != exc.value.factor_counts
            else:
                assert np.isnan(pairing(m, p).certificate("complement_gap").measured)
            monkeypatch.undo()

    @pytest.mark.parametrize("name", ["regime_gap", "complement_gap"])
    def test_decline_in_both_orderings_raises(self, monkeypatch, name):
        model, params = _circle200_strict()
        dim = _gap_blocks(model, params)[name].shape[0]
        for ordering in core.ORDERINGS:
            _alter_counts(monkeypatch, lambda c: None, ordering, dim)
        with pytest.raises(FactorizationDeclined):
            pairing(model, params)

    @pytest.mark.parametrize("name", ["regime_gap", "complement_gap"])
    def test_decline_in_one_ordering_leaves_the_other(self, monkeypatch, name):
        model, params = _circle200_strict()
        block = _gap_blocks(model, params)[name]
        _alter_counts(monkeypatch, lambda c: None, core.ORDERINGS[0], block.shape[0])
        cert = pairing(model, params).certificate(name)
        assert cert.satisfied
        _assert_decided_by_counts(cert, block)

    def test_inapplicable_complement_row_builds_nothing(self, monkeypatch):
        # circle40 at kappa 0.05, rho 30.5 fails kappa_bound: its 28-row
        # complement block runs no LU, and the row reads NaN against its
        # bound, not applicable and so never violated
        model, params = build_circle_model(40, {0: 0.5, 1: 1.0}), LocaliserParams(0.05, 30.5)
        dim = _gap_blocks(model, params)["complement_gap"].shape[0]
        calls = splu_spy(monkeypatch)
        res = pairing(model, params)
        assert res.certificate("regime_gap").applicable
        assert calls and dim not in {d for d, _ in calls}
        cert = res.certificate("complement_gap")
        assert np.isnan(cert.measured) and not cert.satisfied
        assert not cert.applicable and not cert.violated
        assert cert.bound == pytest.approx(np.sqrt(47.0 / 48.0) * 0.05 * 30.5)
        assert cert.detail.endswith("; not counted: kappa_bound failed")
        # the strict guarantee check, its hard conditions waived, passes over it
        validate = localiser.validate_truncation_params
        monkeypatch.setattr(localiser, "validate_truncation_params", lambda m, p, **kw: validate(
            m, LocaliserParams(p.kappa, p.rho), **kw))
        strict = pairing(model, LocaliserParams(0.05, 30.5, "strict"))
        assert strict.certificate("complement_gap") == cert and strict.violations == []

    def test_certified_pairing_follows_the_window(self, monkeypatch):
        # QWZ box 16 at kappa 1, rho 6.5: neither gap row is applicable, so
        # no LU is larger than the truncated block and the containment
        # window is never built
        model = build_qwz_model(box=16, mass=1.0)
        calls = splu_spy(monkeypatch)
        res = pairing(model, LocaliserParams(1.0, 6.5))
        assert not res.certificate("regime_gap").applicable
        assert not res.certificate("complement_gap").applicable
        assert calls and max(d for d, _ in calls) <= res.dim_trunc < model.dim
        assert "containment_window" not in model.cache
        assert res.pairing == oracle_pairing(model) == 1

    def test_only_the_truncated_block_runs_an_eigensolver(self, monkeypatch):
        # a full-certificate QWZ box-10 pairing: ARPACK runs once, on the
        # truncated block (its Lanczos gap), and no eigensolver runs elsewhere
        import scipy.sparse.linalg as spla

        calls = []

        def spy(name, solver):
            def spied(a, *args, **kwargs):
                calls.append((name, a.shape[0]))
                return solver(a, *args, **kwargs)
            return spied

        for module, name in ((spla, "eigsh"), (np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                             (core, "_eigensolve")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        res = pairing(build_qwz_model(box=10, mass=1.0), LocaliserParams(0.25, 5.5))
        assert res.certificate("regime_gap").applicable
        assert "complement_gap" in {c.name for c in res.certificates}
        assert calls == [("eigsh", res.dim_trunc)]

    @pytest.mark.parametrize("model,expected", [
        # truncated block: one LU at 0 for the inertia (first ordering) and
        # two at +/-gap (second), the gap from Lanczos or, banded, from the
        # two eigenvalues that bracket 0 (confirmed at gap less rounding);
        # each applicable gap row: two LUs per ordering, the first of each
        # finding it; an inapplicable complement row: none
        (lambda: (build_qwz_model(box=10, mass=1.0), LocaliserParams(0.25, 5.5)), [3, 4, 0]),
        (lambda: (build_circle_model(250, {0: 0.5, 1: 1.0}), LocaliserParams(0.05, 100.5)),
         [3, 4, 0]),
        (_circle200_strict, [3, 4, 4]),
    ], ids=["qwz10", "circle250", "circle200-strict"])
    def test_factorizations_per_block(self, monkeypatch, model, expected):
        model, params = model()
        blocks = [model.window(params.rho).localiser(params.kappa),
                  *_gap_blocks(model, params).values()]
        assert len({b.shape[0] for b in blocks}) == len(blocks)
        calls = splu_spy(monkeypatch)
        res = pairing(model, params)
        assert res.certificate("regime_gap").applicable
        assert res.certificate("complement_gap").applicable == (expected[2] > 0)
        per_block = [sum(dim == b.shape[0] for dim, _ in calls) for b in blocks]
        assert per_block == expected
        assert len(calls) == sum(per_block)

"""Localiser assembly, certificates, truncation and the pairing itself."""

import numpy as np
import pytest
import scipy.linalg as sla

from speclocaliser import (
    BoundaryEigenvalue,
    ContainmentViolation,
    HermitianOperator,
    HypothesisViolated,
    LocaliserParams,
    StrictModeViolation,
    ValidationError,
    build_circle_model,
    build_even_localiser,
    build_odd_localiser,
    build_qwz_model,
    build_weighted_shift_dirac,
    complement_block,
    inertia,
    oracle_pairing,
    pairing,
    pairing_even,
    pairing_odd,
    spectral_gap,
    suspension_even,
    suspension_odd,
    truncate,
    validate_infinite_regime,
    validate_truncation_params,
)


class TestAssembly:
    def test_even_localiser_entrywise(self, qwz9):
        loc = build_even_localiser(qwz9, 0.5)
        gamma = qwz9.grading.astype(float)
        expected = 0.5 * qwz9.dirac + gamma[:, None] * qwz9.k_rep
        assert np.allclose(loc.matrix, expected, atol=1e-14)
        assert loc.dim == qwz9.dim

    def test_odd_localiser_blocks(self, circle40):
        kappa = 0.05
        loc = build_odd_localiser(circle40, kappa)
        d = circle40.dim
        assert loc.dim == 2 * d
        assert np.allclose(loc.matrix[:d, :d], kappa * circle40.dirac, atol=1e-14)
        assert np.allclose(loc.matrix[d:, d:], -kappa * circle40.dirac, atol=1e-14)
        assert np.allclose(loc.matrix[:d, d:], circle40.k_rep, atol=1e-14)

    def test_identity_symbol_spectrum_in_closed_form(self):
        # G = I makes every 2x2 momentum block [[kn, 1], [1, -kn]]
        model = build_circle_model(10, {0: 1.0})
        loc = build_odd_localiser(model, 0.1)
        n = np.arange(-10, 11)
        branch = np.sqrt(0.01 * n**2 + 1.0)
        expected = np.sort(np.concatenate([branch, -branch]))
        assert np.allclose(np.sort(np.linalg.eigvalsh(loc.matrix)), expected, atol=1e-12)

    def test_parity_builders_reject_mismatch(self, circle40, shift40):
        with pytest.raises(ValidationError):
            build_even_localiser(circle40, 0.1)
        with pytest.raises(ValidationError):
            build_odd_localiser(shift40, 0.1)


class TestInfiniteRegime:
    def test_hypothesis_holds_and_gap_beats_bound(self):
        model = build_circle_model(60, {0: 0.5, 1: 1.0})
        cert = validate_infinite_regime(model, 0.2)
        g = model.k_gap()
        assert cert.hypothesis_holds
        assert cert.theoretical_bound == pytest.approx(np.sqrt(g * g - 0.2), abs=1e-12)
        assert cert.measured_gap >= cert.theoretical_bound - 1e-9

    def test_hypothesis_failure_permissive_vs_strict(self):
        # kappa ||[D,G]|| = 0.3 exceeds g^2 = 0.25
        model = build_circle_model(60, {0: 0.5, 1: 1.0})
        cert = validate_infinite_regime(model, 0.3)
        assert not cert.hypothesis_holds
        assert cert.measured_gap is None
        assert not cert.gap_certificate().applicable
        with pytest.raises(HypothesisViolated):
            validate_infinite_regime(model, 0.3, mode="strict")

    def test_commuting_pair_keeps_full_margin(self, shift40):
        # K = identity commutes with D, so the bound stays at g itself
        cert = validate_infinite_regime(shift40, 0.1)
        assert cert.comm_interior == 0.0
        assert cert.theoretical_bound == pytest.approx(shift40.k_gap())
        assert cert.measured_gap >= 1.0 - 1e-9


class TestTruncationCertificates:
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


class TestTruncate:
    def test_window_rank_and_orthonormality(self):
        model = build_circle_model(200, {0: 0.5, 1: 1.0})
        loc = build_odd_localiser(model, 0.05)
        trunc = truncate(loc, model.dirac, 30.5)
        assert trunc.dim == 2 * 61  # |n| <= 30 on both blocks
        assert trunc.doubled
        gram = trunc.basis.conj().T @ trunc.basis
        assert np.allclose(gram, np.eye(trunc.dim), atol=1e-12)
        assert np.max(np.abs(trunc.window_eigs)) <= 30.5

    def test_boundary_eigenvalue_refused(self, circle40):
        loc = build_odd_localiser(circle40, 0.05)
        with pytest.raises(BoundaryEigenvalue):
            truncate(loc, circle40.dirac, 30.0)

    def test_even_window_matches_interval_dimension(self, qwz9):
        loc = build_even_localiser(qwz9, 0.5)
        trunc = truncate(loc, qwz9.dirac, 5.5, eigensystem=qwz9.dirac_eigensystem())
        w = qwz9.dirac_eigensystem()[0]
        assert trunc.dim == int(np.sum(np.abs(w) <= 5.5))
        assert not trunc.doubled

    def test_compression_preserves_hermiticity(self, shift40):
        loc = build_even_localiser(shift40, 0.1)
        trunc = truncate(loc, shift40.dirac, 10.5)
        assert isinstance(trunc.operator, HermitianOperator)


class TestComplementBlock:
    def test_shift_complement_gap_in_closed_form(self, shift40):
        # D and Gamma commute blockwise, so the complement eigenvalues are
        # +/- sqrt(kappa^2 d^2 + 1); the smallest |d| beyond 10.5 is 11
        loc = build_even_localiser(shift40, 0.1)
        comp, cert = complement_block(
            loc, shift40.dirac, 10.5, kappa=0.1, outer=shift40.containment_radius
        )
        assert spectral_gap(comp) == pytest.approx(np.sqrt(0.01 * 121 + 1.0), rel=1e-12)
        assert cert.bound == pytest.approx(np.sqrt(47.0 / 48.0) * 0.1 * 10.5)
        assert cert.satisfied and cert.kind == "guarantee"

    def test_outer_cut_restricts_window(self, circle40):
        loc = build_odd_localiser(circle40, 0.05)
        comp, _ = complement_block(loc, circle40.dirac, 30.5, outer=35.0)
        # modes 31..35 of each sign, doubled blocks
        assert comp.dim == 2 * 10


def _assert_same_block(block, reference):
    assert block.matrix.shape == reference.matrix.shape
    assert np.max(np.abs(block.matrix - reference.matrix)) <= 1e-12
    assert inertia(block) == inertia(reference)


class TestWindowBlocks:
    """The window blocks pairing reads equal the dense compressions."""

    @pytest.mark.parametrize(
        "model_name,kappas,rhos",
        [
            ("circle40", (0.02, 0.05), (20.5, 30.5)),
            ("qwz9", (0.5, 1.0), (4.5, 5.5)),
            ("shift40_nu2", (0.1, 0.2), (8.5, 10.5)),
        ],
    )
    def test_window_blocks_match_dense_reference(self, request, model_name, kappas, rhos):
        if model_name == "shift40_nu2":
            model = build_weighted_shift_dirac(40, nu=2)
        else:
            model = request.getfixturevalue(model_name)
        even = model.parity == "even"
        eigensystem = model.dirac_eigensystem()
        w, v = eigensystem
        cols = v[:, np.abs(w) <= model.containment_radius + 1e-9]
        outer_basis = cols if even else sla.block_diag(cols, cols)
        outer = model.containment_window()
        for kappa in kappas:
            loc = (build_even_localiser if even else build_odd_localiser)(model, kappa)
            seam_free = outer_basis.conj().T @ loc.matrix @ outer_basis
            seam_free = HermitianOperator((seam_free + seam_free.conj().T) / 2.0)
            _assert_same_block(outer.localiser(kappa), seam_free)
            for rho in rhos:
                trunc = truncate(loc, model.dirac, rho, eigensystem=eigensystem).operator
                comp, _ = complement_block(
                    loc, model.dirac, rho, outer=model.containment_radius,
                    eigensystem=eigensystem,
                )
                block = model.window(rho).localiser(kappa)
                _assert_same_block(block, trunc)
                _assert_same_block(outer.localiser(kappa, beyond=rho), comp)

                path = (suspension_even if even else suspension_odd)(
                    model, kappa, num=3, rho=rho
                )
                assert np.max(np.abs(path.sample(1.0) - trunc.matrix)) <= 1e-12

                res = pairing(model, LocaliserParams(kappa, rho))
                assert res.inertia == inertia(trunc)
                assert res.certificate("complement_gap").measured == pytest.approx(
                    spectral_gap(comp), rel=1e-12
                )
                if res.regime.hypothesis_holds:
                    assert res.regime.measured_gap == pytest.approx(
                        spectral_gap(seam_free), rel=1e-12
                    )


class TestPairing:
    def test_odd_identity_symbol_pairs_to_zero(self):
        model = build_circle_model(10, {0: 1.0})
        res = pairing_odd(model, LocaliserParams(0.1, 5.5))
        assert res.pairing == 0
        assert res.signature == 0

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
        assert res.regime is not None and res.regime.hypothesis_holds

    def test_lean_mode_skips_expensive_certificates(self, shift40):
        res = pairing(shift40, LocaliserParams(0.1, 10.5), certificates=False)
        names = {c.name for c in res.certificates}
        assert "kappa_bound" not in names
        assert "regime_gap" not in names
        assert "complement_gap" not in names
        assert "invertibility" in names and "truncated_gap" in names
        assert res.regime is None
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

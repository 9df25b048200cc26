"""Model builders: structural contracts and the lattice facts the pairings rest on."""

import collections

import numpy as np
import pytest
from hypothesis import given, strategies as st

from speclocaliser import (
    ContainmentViolation,
    GaplessMass,
    GradedOperator,
    ModelInstance,
    ValidationError,
    build_circle_model,
    build_qwz_model,
    build_weighted_shift_dirac,
    inertia,
    load_model,
    qwz_bloch_gap,
    qwz_box_bloch_gap,
    save_model,
    suggest_box,
)
from speclocaliser.errors import FormatError, SingularSymbol


class TestCircleModel:
    def test_pure_shift_symbol_is_unitary(self):
        model = build_circle_model(12, {1: 1.0})
        g = model.k_rep
        defect = np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0])))
        assert defect == 0.0
        assert model.k_gap() == pytest.approx(1.0, abs=1e-12)

    def test_singular_symbol_rejected(self):
        # e^{i theta} - 1 vanishes at theta = 0, which lies on every mode grid
        with pytest.raises(SingularSymbol):
            build_circle_model(40, {1: 1.0, 0: -1.0})

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValidationError):
            build_circle_model(1, {1: 1.0})
        with pytest.raises(ContainmentViolation):
            build_circle_model(3, {3: 1.0})

    def test_interior_commutator_is_hop_weighted(self):
        # [D, G] acts as k * G_k per hop, so a single hop-1 symbol gives 1
        model = build_circle_model(60, {0: 0.5, 1: 1.0})
        assert model.dirac_commutator().interior == pytest.approx(1.0, abs=1e-12)

    def test_mirror_symbols_have_opposite_winding(self):
        from speclocaliser import winding_number

        assert winding_number({-2: 1.0}) == -winding_number({2: 1.0})

    def test_dirac_spectrum_is_shifted_integers(self):
        model = build_circle_model(10, {1: 1.0}, offset=0.25)
        evals = np.sort(np.linalg.eigvalsh(model.dirac))
        assert np.allclose(evals, np.arange(-10, 11) + 0.25, atol=1e-12)


class TestQwzModel:
    def test_box_gap_matches_bloch_oracle(self, qwz9):
        # periodic box spectrum = Bloch spectrum on the discrete momenta
        expected = qwz_box_bloch_gap(1.0, 2 * 9 + 1)
        assert qwz9.k_gap() == pytest.approx(expected, rel=1e-9)

    def test_band_invariant_values(self):
        from speclocaliser import chern_number_fhs, qwz_bloch

        assert chern_number_fhs(qwz_bloch(3.0)) == 0
        assert chern_number_fhs(qwz_bloch(5.0)) == 0
        assert chern_number_fhs(qwz_bloch(1.0)) == -chern_number_fhs(qwz_bloch(-1.0))
        assert abs(chern_number_fhs(qwz_bloch(1.0))) == 1

    def test_band_invariant_grid_stability(self):
        from speclocaliser import chern_number_fhs, qwz_bloch

        assert chern_number_fhs(qwz_bloch(1.0), grid=24) == chern_number_fhs(
            qwz_bloch(1.0), grid=48
        )

    def test_gapless_masses_rejected(self):
        assert qwz_bloch_gap(2.0) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(GaplessMass):
            build_qwz_model(4, 2.0)
        with pytest.raises(GaplessMass):
            build_qwz_model(4, 0.0)

    def test_band_invariant_gap_closure(self):
        from speclocaliser import chern_number_fhs, qwz_bloch
        from speclocaliser.errors import GapClosure

        with pytest.raises(GapClosure):
            chern_number_fhs(qwz_bloch(2.0))

    def test_periodic_hamiltonian_commutes_with_translation(self):
        model = build_qwz_model(4, 1.0)
        side = 9
        n_sites = side * side
        perm = np.zeros((n_sites, n_sites))
        for x1 in range(side):
            for x2 in range(side):
                perm[x1 * side + (x2 + 1) % side, x1 * side + x2] = 1.0
        t = np.kron(perm, np.eye(4))
        assert np.max(np.abs(t @ model.k_rep @ t.T - model.k_rep)) == 0.0

    def test_integer_offset_position_kernel(self):
        # z = 0 at the central site; the internal factor doubles the kernel
        model = build_qwz_model(4, 1.0, offset="integer")
        graded = GradedOperator(model.dirac, model.grading)
        sv = np.sort(np.linalg.svd(graded.block_plus, compute_uv=False))
        assert np.allclose(sv[:2], 0.0, atol=1e-12)
        assert sv[2] > 0.5

        from speclocaliser import fredholm_index_graded

        assert fredholm_index_graded(graded) == 0

    def test_half_integer_offset_position_invertible(self, qwz9):
        graded = GradedOperator(qwz9.dirac, qwz9.grading)
        sv = np.linalg.svd(graded.block_plus, compute_uv=False)
        assert np.min(sv) > 0.5

    def test_dimensions_and_containment(self, qwz9):
        assert qwz9.dim == 4 * 19 * 19
        assert qwz9.containment_radius == pytest.approx(6.0)


class TestShiftModel:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_kernel_carries_negative_grading(self, nu):
        model = build_weighted_shift_dirac(12, nu=nu, sign=1)
        evals, vecs = np.linalg.eigh(model.dirac)
        kernel = vecs[:, np.abs(evals) < 1e-9]
        assert kernel.shape[1] == nu
        compressed = kernel.conj().T @ np.diag(model.grading.astype(float)) @ kernel
        counts = inertia(compressed)
        assert (counts.n_pos, counts.n_neg, counts.n_zero) == (0, nu, 0)

    def test_window_multiplicities(self, shift40):
        evals = np.linalg.eigvalsh(shift40.dirac)
        window = np.abs(evals[np.abs(evals) <= 10.5])
        counts = collections.Counter(np.round(window).astype(int))
        assert counts[0] == 1
        assert all(counts[j] == 2 for j in range(1, 11))

    def test_sign_scales_class_representative(self):
        plus = build_weighted_shift_dirac(8, nu=1, sign=1)
        minus = build_weighted_shift_dirac(8, nu=1, sign=-1)
        assert np.array_equal(plus.k_rep, -minus.k_rep)
        assert np.array_equal(plus.grading, minus.grading)
        assert np.array_equal(plus.dirac, minus.dirac)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValidationError):
            build_weighted_shift_dirac(8, nu=0)
        with pytest.raises(ValidationError):
            build_weighted_shift_dirac(8, nu=1, sign=2)
        with pytest.raises(ValidationError):
            build_weighted_shift_dirac(1, nu=1)


class TestGradingContract:
    def test_even_model_rejects_k_coupling_the_sectors(self):
        # D anticommutes with the grading, but K swaps its two sectors
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ValidationError, match="commute with the grading"):
            ModelInstance(
                kind="custom",
                parity="even",
                dirac=swap,
                grading=np.array([1, -1]),
                k_rep=swap,
                containment_radius=1.0,
                oracle_ref="fredholm_index_graded",
                params={},
                interior_mask=np.ones(2, dtype=bool),
            )


class TestSuggestBox:
    @pytest.mark.parametrize(
        "kind,kappa,gap",
        [("circle", 0.05, 0.5), ("qwz", 0.5, 1.0), ("weighted_shift", 0.1, 1.0)],
    )
    def test_containment_meets_margin(self, kind, kappa, gap):
        box = suggest_box(kind, kappa, gap)
        if kind == "circle":
            model = build_circle_model(box, {1: 1.0})
        elif kind == "qwz":
            model = build_qwz_model(box, 1.0)
        else:
            model = build_weighted_shift_dirac(box, nu=1)
        assert model.containment_radius >= 1.2 * (2.0 * gap / kappa) - 1e-9

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            suggest_box("torus", 0.1, 1.0)


class TestPersistence:
    def test_round_trip_is_bitwise(self, tmp_path, shift40):
        save_model(shift40, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert np.array_equal(loaded.dirac, shift40.dirac)
        assert np.array_equal(loaded.k_rep, shift40.k_rep)
        assert np.array_equal(loaded.grading, shift40.grading)
        assert np.array_equal(loaded.interior_mask, shift40.interior_mask)
        assert loaded.containment_radius == shift40.containment_radius
        assert loaded.oracle_ref == shift40.oracle_ref

    def test_round_trip_even_model(self, tmp_path, qwz9):
        save_model(qwz9, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert np.array_equal(loaded.dirac, qwz9.dirac)
        assert loaded.parity == "even"

    def test_tampered_matrix_fails_validation(self, tmp_path, shift40):
        from speclocaliser import mmio

        save_model(shift40, tmp_path / "m")
        d = mmio.read_matrix(tmp_path / "m" / "dirac.mtx")
        d[0, 1] += 0.5  # breaks hermiticity
        mmio.write_matrix(tmp_path / "m" / "dirac.mtx", d)
        with pytest.raises(ValidationError):
            load_model(tmp_path / "m")

    def test_manifest_missing_field(self, tmp_path, shift40):
        import yaml

        path = save_model(shift40, tmp_path / "m")
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        del doc["containment_radius"]
        with open(path) as fh:
            pass
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh)
        with pytest.raises(FormatError):
            load_model(tmp_path / "m")

    def test_config_style_load(self, tmp_path):
        import yaml

        path = tmp_path / "cfg.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump({"kind": "circle", "params": {"modes": 10, "symbol": {1: 1.0}}}, fh)
        model = load_model(path)
        assert model.kind == "circle"
        assert model.dim == 21

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_model(tmp_path / "nope")


@given(
    box=st.integers(min_value=4, max_value=5),
    mass=st.sampled_from([-3.0, -1.0, 1.0, 3.0]),
)
def test_qwz_structure_invariants(box, mass):
    model = build_qwz_model(box, mass)
    side = 2 * box + 1
    assert model.dim == 4 * side * side
    # D anticommutes with the grading, H commutes with it
    g = model.grading.astype(float)
    assert np.max(np.abs(g[:, None] * model.dirac + model.dirac * g[None, :])) < 1e-12
    assert np.max(np.abs(g[:, None] * model.k_rep - model.k_rep * g[None, :])) < 1e-12
    assert model.k_norm() <= abs(mass) + 4.0 + 1e-9

"""Model builders: structural contracts and the lattice facts the pairings rest on."""

import collections
import pickle
from unittest import mock

import numpy as np
import pytest
import scipy.io
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, strategies as st

from speclocaliser import (
    ContainmentViolation,
    GaplessMass,
    GradedOperator,
    LocaliserParams,
    ModelInstance,
    ValidationError,
    build_circle_model,
    build_qwz_model,
    build_weighted_shift_dirac,
    commutator_norm,
    export_model,
    load_model,
    oracle_pairing,
    pairing,
    parse_model_spec,
    qwz_bloch_gap,
    save_model,
)
import speclocaliser.core as core
from speclocaliser.core import DENSE_DIM_LIMIT
from speclocaliser.errors import FormatError, SingularSymbol
from speclocaliser.models import KINDS, _sanitize, sx, sy, sz
from reference import dense_inertia


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
        norm = commutator_norm(model.dirac, model.k_rep, model.interior_mask)
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert model.dirac_commutator() == (1.0, "symbol bound sum|k||c_k|")

    def test_mirror_symbols_have_opposite_winding(self):
        from speclocaliser import winding_number

        assert winding_number({-2: 1.0}) == -winding_number({2: 1.0})

    def test_dirac_spectrum_is_shifted_integers(self):
        model = build_circle_model(10, {1: 1.0}, offset=0.25)
        evals = np.sort(np.linalg.eigvalsh(model.dirac.toarray()))
        assert np.allclose(evals, np.arange(-10, 11) + 0.25, atol=1e-12)


class TestQwzModel:
    def test_box_gap_matches_bloch_oracle(self, qwz9):
        # build_qwz_model reads K's gap and norm off the Bloch symbol on the box
        # momenta; check both against K's own spectrum
        w = np.abs(np.linalg.eigvalsh(qwz9.k_rep.toarray()))
        assert qwz9.k_gap() == pytest.approx(w.min(), rel=1e-9)
        assert qwz9.k_norm() == pytest.approx(w.max(), rel=1e-9)
        assert qwz9.k_gap() == pytest.approx(qwz_bloch_gap(1.0, grid=2 * 9 + 1), rel=1e-9)

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
        sv = np.sort(np.linalg.svd(graded.block_plus.toarray(), compute_uv=False))
        assert np.allclose(sv[:2], 0.0, atol=1e-12)
        assert sv[2] > 0.5

        from speclocaliser import fredholm_index_graded

        assert fredholm_index_graded(graded) == 0

    def test_half_integer_offset_position_invertible(self, qwz9):
        graded = GradedOperator(qwz9.dirac, qwz9.grading)
        sv = np.linalg.svd(graded.block_plus.toarray(), compute_uv=False)
        assert np.min(sv) > 0.5

    def test_dimensions_and_containment(self, qwz9):
        assert qwz9.dim == 4 * 19 * 19
        assert qwz9.containment_radius == pytest.approx(6.0)


class TestShiftModel:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_kernel_carries_negative_grading(self, nu):
        model = build_weighted_shift_dirac(12, nu=nu, sign=1)
        evals, vecs = np.linalg.eigh(model.dirac.toarray())
        kernel = vecs[:, np.abs(evals) < 1e-9]
        assert kernel.shape[1] == nu
        compressed = kernel.conj().T @ np.diag(model.grading.astype(float)) @ kernel
        counts = dense_inertia(compressed)
        assert (counts.n_pos, counts.n_neg, counts.n_zero) == (0, nu, 0)

    def test_window_multiplicities(self, shift40):
        evals = np.linalg.eigvalsh(shift40.dirac.toarray())
        window = np.abs(evals[np.abs(evals) <= 10.5])
        counts = collections.Counter(np.round(window).astype(int))
        assert counts[0] == 1
        assert all(counts[j] == 2 for j in range(1, 11))

    def test_sign_scales_class_representative(self):
        plus = build_weighted_shift_dirac(8, nu=1, sign=1)
        minus = build_weighted_shift_dirac(8, nu=1, sign=-1)
        assert np.array_equal(plus.k_rep.toarray(), -minus.k_rep.toarray())
        assert np.array_equal(plus.grading, minus.grading)
        assert np.array_equal(plus.dirac.toarray(), minus.dirac.toarray())

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
                    params={},
                interior_mask=np.ones(2, dtype=bool),
            )


    # a valid graded pair on four sites: D swaps the sectors within two
    # blocks, K = 1 commutes with the grading; every case below breaks one
    # contract with a single sparse entry pair
    _grading = np.array([1, -1, 1, -1])
    _dirac = sp.csr_array(np.kron(np.eye(2), [[0, 1], [1, 0]]).astype(complex))
    _k_rep = sp.eye_array(4, dtype=complex, format="csr")

    @staticmethod
    def _entry(i, j, value):
        return sp.csr_array(([value], ([i], [j])), shape=(4, 4), dtype=complex)

    def _model(self, parity, dirac, k_rep):
        return ModelInstance(
            kind="custom",
            parity=parity,
            dirac=dirac,
            grading=self._grading if parity == "even" else None,
            k_rep=k_rep,
            containment_radius=1.0,
            params={},
            interior_mask=np.ones(4, dtype=bool),
        )

    def test_valid_sparse_pair_builds(self):
        model = self._model("even", self._dirac, self._k_rep)
        assert sp.issparse(model.dirac) and sp.issparse(model.k_rep)

    def test_sparse_non_hermitian_dirac_rejected(self):
        dirac = self._dirac + self._entry(0, 1, 0.5)  # D[0,1] != conj(D[1,0])
        with pytest.raises(ValidationError, match="not Hermitian"):
            GradedOperator(dirac, self._grading)
        for parity in ("even", "odd"):
            with pytest.raises(ValidationError, match="not Hermitian"):
                self._model(parity, dirac, self._k_rep)

    def test_sparse_non_hermitian_k_rejected(self):
        k_rep = self._k_rep + self._entry(0, 2, 0.5)  # within the +1 sector
        with pytest.raises(ValidationError, match="not Hermitian"):
            self._model("even", self._dirac, k_rep)

    def test_sparse_k_coupling_the_sectors_rejected(self):
        k_rep = self._k_rep + self._entry(0, 1, 0.5) + self._entry(1, 0, 0.5)
        with pytest.raises(ValidationError, match="commute with the grading"):
            self._model("even", self._dirac, k_rep)

    def test_sparse_dirac_within_a_sector_rejected(self):
        dirac = self._dirac + self._entry(0, 2, 0.5) + self._entry(2, 0, 0.5)
        with pytest.raises(ValidationError, match="anticommute"):
            GradedOperator(dirac, self._grading)
        with pytest.raises(ValidationError, match="anticommute"):
            self._model("even", dirac, self._k_rep)


def _dense_qwz(box, mass, offset):
    """The dense construction of D and K that build_qwz_model stores sparse."""
    side = 2 * box + 1
    coords = np.arange(-box, box + 1)
    x1, x2 = np.repeat(coords, side), np.tile(coords, side)
    roll = np.roll(np.eye(side), 1, axis=0)
    r1, r2 = np.kron(roll, np.eye(side)), np.kron(np.eye(side), roll)
    a1, a2 = (sz - 1j * sx) / 2.0, (sz - 1j * sy) / 2.0
    h_int = (
        np.kron(r1, a1)
        + np.kron(r1.T, a1.conj().T)
        + np.kron(r2, a2)
        + np.kron(r2.T, a2.conj().T)
        + mass * np.kron(np.eye(side * side), sz)
    )
    o = 0.5 if offset == "half_integer" else 0.0
    zdiag = np.repeat((x1 - o) + 1j * (x2 - o), 2)
    dirac = np.kron(np.diag(zdiag), np.array([[0, 0], [1, 0]], dtype=complex))
    return dirac + dirac.conj().T, np.kron(h_int, np.eye(2)), zdiag


def _dense_qwz_eigensystem(zdiag):
    """The per-block loop the vectorised closed form replaced."""
    dim = 2 * zdiag.size
    w, v = np.empty(dim), np.zeros((dim, dim), dtype=complex)
    inv = 1.0 / np.sqrt(2.0)
    radii = np.abs(zdiag)
    for b, (z, r) in enumerate(zip(zdiag, radii)):
        i0, i1 = 2 * b, 2 * b + 1
        if r == 0.0:
            w[i0], w[i1] = 0.0, 0.0
            v[i0, i0] = v[i1, i1] = 1.0
        else:
            phase = z / r
            w[i0], w[i1] = -r, r
            v[i0, i0], v[i1, i0] = inv, -inv * phase
            v[i0, i1], v[i1, i1] = inv, inv * phase
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def _dense_circle(modes, symbol, offset=0.0):
    dim = 2 * modes + 1
    eye = np.eye(dim, dtype=complex)
    g = np.zeros((dim, dim), dtype=complex)
    for k, c in symbol.items():
        g += c * np.roll(eye, k, axis=0)
    return np.diag((np.arange(-modes, modes + 1) + offset).astype(complex)), g


def _dense_shift(sites, nu, sign=1):
    npl, nmi = sites + 1, sites + 2
    block = np.zeros((npl + nmi, npl + nmi), dtype=complex)
    for n in range(sites + 1):
        block[npl + n + 1, n] = n + 1
    block = block + block.conj().T
    dim = nu * (npl + nmi)
    return sla.block_diag(*([block] * nu)), float(sign) * np.eye(dim, dtype=complex)


_SPARSE_CASES = [
    ("qwz box 4", lambda: build_qwz_model(4, 1.0), lambda: _dense_qwz(4, 1.0, "half_integer")[:2]),
    ("qwz box 4 integer", lambda: build_qwz_model(4, -1.0, offset="integer"),
     lambda: _dense_qwz(4, -1.0, "integer")[:2]),
    ("qwz box 9", lambda: build_qwz_model(9, 1.0), lambda: _dense_qwz(9, 1.0, "half_integer")[:2]),
    ("qwz box 9 integer", lambda: build_qwz_model(9, 1.0, offset="integer"),
     lambda: _dense_qwz(9, 1.0, "integer")[:2]),
    ("circle 40", lambda: build_circle_model(40, {0: 0.5, 1: 1.0}),
     lambda: _dense_circle(40, {0: 0.5, 1: 1.0})),
    ("circle 40 offset", lambda: build_circle_model(40, {-2: 1.0, 0: 0.3, 1: 0.2j}, offset=0.25),
     lambda: _dense_circle(40, {-2: 1.0, 0: 0.3, 1: 0.2j}, offset=0.25)),
    ("shift 40 nu=2", lambda: build_weighted_shift_dirac(40, nu=2),
     lambda: _dense_shift(40, 2)),
]


class TestSparseStorage:
    """Models are stored sparse; every builder matches its dense construction."""

    @pytest.mark.parametrize("name,build,dense", _SPARSE_CASES, ids=[c[0] for c in _SPARSE_CASES])
    def test_builder_matches_dense_construction(self, name, build, dense):
        model = build()
        dirac, k_rep = dense()
        assert sp.issparse(model.dirac) and sp.issparse(model.k_rep)
        assert np.array_equal(model.dirac.toarray(), dirac)
        assert np.array_equal(model.k_rep.toarray(), k_rep)

    @pytest.mark.parametrize("name,build,dense", _SPARSE_CASES, ids=[c[0] for c in _SPARSE_CASES])
    def test_eigensystem_diagonalises_dirac(self, name, build, dense):
        model = build()
        w, v = model.dirac_eigensystem()
        assert sp.issparse(v)
        v = v.toarray()
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(v.conj().T @ v - np.eye(model.dim))) <= 1e-12
        assert np.max(np.abs((v * w) @ v.conj().T - dense()[0])) <= 1e-12

    @pytest.mark.parametrize("offset", ["half_integer", "integer"])
    def test_qwz_eigensystem_equals_blockwise_loop(self, offset):
        model = build_qwz_model(9, 1.0, offset=offset)
        w_ref, v_ref = _dense_qwz_eigensystem(_dense_qwz(9, 1.0, offset)[2])
        w, v = model.dirac_eigensystem()
        assert np.array_equal(w, w_ref)
        assert np.array_equal(v.toarray(), v_ref)
        # two stored entries per eigenvector, fewer only on a zero block
        assert v.nnz <= 2 * model.dim

    def test_model_beyond_the_dense_limit(self):
        # dim 14,884: one dense copy of D would take 3.5 GB; only the
        # |D| <= 6.5 window is ever densified
        model = build_qwz_model(30, 1.0)
        assert model.dim == 4 * 61 * 61 > DENSE_DIM_LIMIT
        res = pairing(model, LocaliserParams(1.0, 6.5), certificates=False)
        assert res.dim_trunc < DENSE_DIM_LIMIT
        assert res.pairing == oracle_pairing(model)

    def test_model_pickles_small(self):
        # the sweep pool ships the model to every worker; dense it was ~64 MB
        assert len(pickle.dumps(build_qwz_model(8, 1.0))) < 1_000_000


class TestPersistence:
    def test_round_trip_is_bitwise(self, tmp_path, shift40):
        save_model(shift40, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert np.array_equal(loaded.dirac.toarray(), shift40.dirac.toarray())
        assert np.array_equal(loaded.k_rep.toarray(), shift40.k_rep.toarray())
        assert np.array_equal(loaded.grading, shift40.grading)
        assert np.array_equal(loaded.interior_mask, shift40.interior_mask)
        assert loaded.containment_radius == shift40.containment_radius
        assert loaded.describe()["oracle_ref"] == shift40.describe()["oracle_ref"]

    def test_round_trip_even_model(self, tmp_path, qwz9):
        save_model(qwz9, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert np.array_equal(loaded.dirac.toarray(), qwz9.dirac.toarray())
        assert loaded.parity == "even"

    def test_reloaded_manifest_measures_its_commutator(self, tmp_path, qwz9):
        # a reloaded file is not trusted to be its builder's output: its
        # [D, K] norm is measured, just under the Bloch bound of the builder
        save_model(qwz9, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        params = LocaliserParams(1.0, 5.5)
        built, back = pairing(qwz9, params), pairing(loaded, params)
        for field in ("pairing", "signature", "index_correction", "inertia", "dim_trunc"):
            assert getattr(back, field) == getattr(built, field)
        assert [(c.name, c.satisfied, c.applicable) for c in back.certificates] == [
            (c.name, c.satisfied, c.applicable) for c in built.certificates
        ]
        cap, built_cap = back.certificate("kappa_bound"), built.certificate("kappa_bound")
        assert loaded.dirac_commutator()[1] == "interior Lanczos"
        assert cap.detail.endswith("(interior Lanczos)")
        assert built_cap.detail.endswith("(Bloch symbol bound)")
        assert built_cap.bound <= cap.bound
        assert cap.bound == pytest.approx(built_cap.bound, rel=1.3e-4)

    @pytest.mark.parametrize(
        "build",
        [lambda: build_circle_model(40, {0: 0.5, 1: 1.0}), lambda: build_qwz_model(5, -1.0)],
        ids=["circle40", "qwz5"],
    )
    def test_reloaded_k_norm_and_gap_equal_closed_forms(self, tmp_path, build):
        # builders cache closed forms from the symbol; a reloaded model reads
        # both values off one dense spectrum of K
        model = build()
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        with mock.patch.object(ModelInstance, "_k_spectrum", autospec=True,
                               side_effect=ModelInstance._k_spectrum) as spectrum:
            got = (loaded.k_norm(), loaded.k_gap())
        assert spectrum.call_count == 1
        assert got == pytest.approx((model.k_norm(), model.k_gap()), rel=1e-12, abs=0)

    def test_box30_export_round_trip_is_bitwise(self, tmp_path):
        # dim 14,884: dense files would hold two 3.5 GB arrays; coordinate
        # files hold the stored entries only
        manifest = export_model("qwz:box=30,mass=1.0", tmp_path / "m")
        model = build_qwz_model(30, 1.0)
        loaded = load_model(tmp_path / "m")
        for got, want in ((loaded.dirac, model.dirac), (loaded.k_rep, model.k_rep)):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))
        assert np.array_equal(loaded.grading, model.grading)
        assert np.array_equal(loaded.interior_mask, model.interior_mask)
        assert loaded.containment_radius == model.containment_radius
        assert sum(f.stat().st_size for f in manifest.parent.iterdir()) < 20_000_000

    @pytest.mark.parametrize("name", ["circle40", "qwz9"])
    def test_manifest_text_equals_pure_python_dump(self, request, tmp_path, name):
        # the libyaml emitter writes what yaml.SafeDumper writes
        import yaml

        text = save_model(request.getfixturevalue(name), tmp_path / "m").read_text()
        doc = yaml.safe_load(text)
        assert yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=True) == text

    @pytest.mark.parametrize(
        "fields,whole,error",
        [
            ({"files": "dirac.mtx"}, False, FormatError),
            ({"containment_radius": "big"}, False, FormatError),
            ({"grading": "x"}, False, FormatError),
            ({"params": [1, 2]}, False, FormatError),
            # {kind, params} configs: a missing or malformed builder argument
            ({"kind": "qwz", "params": {}}, True, FormatError),
            ({"kind": "qwz", "params": {"box": "big", "mass": 1.0}}, True, FormatError),
            # a value the builder rejects keeps the builder's error
            ({"kind": "qwz", "params": {"box": 2, "mass": 1.0}}, True, ValidationError),
            # a non-finite radius would make the containment window the whole
            # box (NaN) or hold containment at every rho (inf)
            ({"containment_radius": float("nan")}, False, ValidationError),
            ({"containment_radius": float("inf")}, False, ValidationError),
            # an unknown param is not ignored: ofset would leave the default offset
            ({"kind": "qwz", "params": {"box": 4, "mass": 1.0, "ofset": "integer"}}, True,
             FormatError),
        ],
    )
    def test_malformed_field_names_the_file(self, tmp_path, shift40, fields, whole, error):
        import yaml

        path = save_model(shift40, tmp_path / "m")
        doc = {} if whole else yaml.safe_load(path.read_text())
        doc.update(fields)
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(error) as info:
            load_model(tmp_path / "m")
        assert type(info.value) is error
        if error is FormatError:
            assert str(path) in str(info.value)

    def test_tampered_matrix_fails_validation(self, tmp_path, shift40):
        save_model(shift40, tmp_path / "m")
        path = tmp_path / "m" / "dirac.mtx"
        d = sp.coo_array(scipy.io.mmread(path))
        d.data[d.nnz // 2] += 0.5  # breaks hermiticity
        scipy.io.mmwrite(path, d, field="complex", precision=17, symmetry="general")
        with pytest.raises(ValidationError):
            load_model(tmp_path / "m")

    def test_manifest_missing_field(self, tmp_path, shift40):
        import yaml

        path = save_model(shift40, tmp_path / "m")
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        del doc["containment_radius"]
        with open(path, "w") as fh:
            yaml.safe_dump(doc, fh)
        with pytest.raises(FormatError):
            load_model(tmp_path / "m")

    # the required sugar keys of each kind; every other key takes its default
    _required_sugar = {"circle": "modes=10", "qwz": "box=4,mass=1.0", "weighted_shift": "sites=10"}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_config_style_load(self, tmp_path, kind):
        # sugar with its defaults, the {kind, params} config and a saved
        # manifest give one model, params and oracle included
        import yaml

        sugar = parse_model_spec("%s:%s" % (KINDS[kind].head, self._required_sugar[kind]))
        assert sugar.kind == kind
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"kind": kind, "params": sugar.params}))
        config = load_model(path)
        manifest = load_model(save_model(sugar, tmp_path / "m"))
        for model in (config, manifest):
            assert model.kind == kind
            assert np.array_equal(model.dirac.toarray(), sugar.dirac.toarray())
            assert np.array_equal(model.k_rep.toarray(), sugar.k_rep.toarray())
            assert np.array_equal(model.grading, sugar.grading)
            # as reports record them: a manifest stores the symbol's keys as strings
            assert _sanitize(model.describe()) == _sanitize(sugar.describe())
            assert oracle_pairing(model) == oracle_pairing(sugar)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_model(tmp_path / "nope")

    @pytest.mark.parametrize("method", ["dirac_eigensystem", "k_norm", "k_gap"])
    def test_reloaded_model_caps_dense_copies(self, tmp_path, monkeypatch, method):
        # a reloaded manifest carries no closed-form cache, so each of these
        # takes the generic dense path, which must respect the dense limit
        save_model(build_circle_model(60, {0: 0.5, 1: 1.0}), tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert loaded.dim == 121
        monkeypatch.setattr(core, "DENSE_DIM_LIMIT", 100)
        with pytest.raises(ValidationError, match="dense limit"):
            getattr(loaded, method)()


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

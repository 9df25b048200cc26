"""Hermitian primitives: inertia, signature, projections, gaps, norms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import speclocaliser.core as core
from speclocaliser import (
    BackendDisagreement,
    BoundaryEigenvalue,
    HermitianOperator,
    LocaliserParams,
    SingularMatrix,
    ValidationError,
    build_circle_model,
    build_even_localiser,
    build_odd_localiser,
    build_qwz_model,
    build_weighted_shift_dirac,
    commutator_norm,
    inertia,
    interval_spectral_projection,
    operator_norm,
    oracle_pairing,
    positive_spectral_projection,
    signature,
    spectral_gap,
    truncate,
)
from conftest import random_hermitian

st_dim = st.integers(1, 12)


def _random_unitary(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestHermitianOperator:
    def test_accepts_hermitian(self, rng):
        h = HermitianOperator(random_hermitian(rng, 6))
        assert h.dim == 6

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            HermitianOperator(m)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.zeros((0, 0)))


class TestInertia:
    def test_identity(self):
        got = inertia(np.eye(5), zero_tol=1e-10)
        assert (got.n_pos, got.n_neg, got.n_zero) == (5, 0, 0)

    def test_diagonal(self):
        got = inertia(np.diag([1.0, -2.0, 0.0]), zero_tol=1e-10)
        assert (got.n_pos, got.n_neg, got.n_zero) == (1, 1, 1)

    def test_truncated_circle_localiser_signature(self, circle40):
        # window signature reads off twice the pairing
        loc = build_odd_localiser(circle40, 0.05)
        trunc = truncate(loc, circle40.dirac, 30.5)
        got = inertia(trunc.operator)
        assert got.n_zero == 0
        assert got.signature == 2 * oracle_pairing(circle40)

    def test_backend_disagreement_raises(self, monkeypatch, rng):
        h = random_hermitian(rng, 5)
        true_counts = inertia(h)

        def bad_backend(m, zero_tol):
            return (0, 0, m.shape[0])

        monkeypatch.setattr(core, "_inertia_factorization", bad_backend)
        with pytest.raises(BackendDisagreement) as exc:
            inertia(h)
        assert exc.value.eig_counts == (
            true_counts.n_pos, true_counts.n_neg, true_counts.n_zero,
        )
        assert exc.value.factor_counts == (0, 0, 5)

    @given(st.integers(2, 16), st.integers(0, 10_000))
    def test_backends_agree_and_counts_sum(self, dim, seed):
        h = random_hermitian(np.random.default_rng(seed), dim)
        got = inertia(h)
        assert got.n_pos + got.n_neg + got.n_zero == dim


class TestSignature:
    def test_off_diagonal_pair(self):
        assert signature(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0

    def test_negative_identity(self):
        assert signature(-np.eye(3)) == -3

    def test_shift_dirac_minus_grading(self):
        # kappa*D - Gamma truncated: signature exposes minus the D+ index
        from speclocaliser import build_weighted_shift_dirac

        model = build_weighted_shift_dirac(40, nu=1, sign=-1)
        loc = build_even_localiser(model, 0.1)
        trunc = truncate(loc, model.dirac, 10.5)
        assert signature(trunc.operator) == 1

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            signature(np.diag([1.0, 0.0]))

    @given(st.integers(1, 10), st.integers(0, 10_000))
    def test_antisymmetry_under_negation(self, dim, seed):
        h = random_hermitian(np.random.default_rng(seed), dim)
        try:
            s = signature(h)
        except SingularMatrix:
            return
        assert signature(-h) == -s


class TestPositiveProjection:
    def test_diagonal(self):
        p = positive_spectral_projection(np.diag([2.0, -3.0]))
        assert_allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_scalar_off_diagonal_block(self):
        p = positive_spectral_projection(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert_allclose(p.matrix, 0.5 * np.ones((2, 2)), atol=1e-14)

    def test_matches_polar_phase(self, rng):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g += 3 * np.eye(2)  # keep it comfortably invertible
        u_left, _, vh = np.linalg.svd(g)
        u = u_left @ vh
        top = np.block([[np.zeros((2, 2)), g], [g.conj().T, np.zeros((2, 2))]])
        p = positive_spectral_projection(top)
        expected = 0.5 * np.block([[np.eye(2), u], [u.conj().T, np.eye(2)]])
        assert_allclose(p.matrix, expected, atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            positive_spectral_projection(np.diag([1.0, 0.0]))

    @given(st.integers(1, 10), st.integers(0, 10_000))
    def test_idempotent_and_commutes(self, dim, seed):
        h = random_hermitian(np.random.default_rng(seed), dim)
        try:
            p = positive_spectral_projection(h).matrix
        except SingularMatrix:
            return
        scale = max(operator_norm(h), 1.0)
        assert operator_norm(p @ p - p) <= 1e-10
        assert operator_norm(p @ h - h @ p) <= 1e-10 * scale


class TestIntervalProjection:
    def test_diagonal(self):
        p = interval_spectral_projection(np.diag([-2.0, 0.0, 3.0]), 1.0)
        assert_allclose(p.matrix, np.diag([0.0, 1.0, 0.0]), atol=1e-14)

    def test_circle_dirac_rank(self, circle40):
        p = interval_spectral_projection(circle40.dirac, 30.5)
        assert p.rank == 61

    def test_qwz_dirac_rank_counts_sites(self, qwz9):
        # every site inside the window keeps its 4 internal states
        p = interval_spectral_projection(qwz9.dirac, 8.0)
        x = np.arange(-9, 10)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        sites = int(np.sum((x1 - 0.5) ** 2 + (x2 - 0.5) ** 2 <= 64.0))
        assert p.rank == 4 * sites

    def test_boundary_eigenvalue(self):
        with pytest.raises(BoundaryEigenvalue):
            interval_spectral_projection(np.diag([-2.0, 1.0]), 1.0)

    @given(st.integers(2, 12), st.integers(0, 10_000), st.floats(0.1, 3.0))
    def test_complement_ranks_sum_to_dim(self, dim, seed, rho):
        h = random_hermitian(np.random.default_rng(seed), dim)
        try:
            inside = interval_spectral_projection(h, rho).rank
        except BoundaryEigenvalue:
            return
        outside = int(np.sum(np.abs(np.linalg.eigvalsh(h)) > rho))
        assert inside + outside == dim


class TestGapsAndNorms:
    def test_gap_diagonal(self):
        assert spectral_gap(np.diag([3.0, -0.5])) == pytest.approx(0.5)

    def test_circle_symbol_gap(self):
        # min over theta of |e^{i theta} + 1/2| = 1/2; the Fourier grid of a
        # finite mode count misses theta = pi by O(1/modes), so the finite
        # matrix sits a hair above the continuum value
        from speclocaliser import build_circle_model
        from speclocaliser.core import singular_gap

        model = build_circle_model(200, {0: 0.5, 1: 1.0})
        gap = singular_gap(model.k_rep)
        assert gap >= 0.5
        assert gap == pytest.approx(0.5, abs=1e-4)

    def test_qwz_bloch_gap(self):
        from speclocaliser import qwz_bloch_gap

        assert qwz_bloch_gap(1.0) == pytest.approx(1.0, abs=1e-6)

    def test_norm_identity(self):
        assert operator_norm(np.eye(7)) == pytest.approx(1.0)

    def test_circle_commutator_interior(self, circle40):
        assert circle40.dirac_commutator() == pytest.approx(1.0, abs=1e-12)

    def test_qwz_commutator_interior_bound(self):
        # the interior [D, K] compresses the operator with Bloch symbol
        # d1 h (x) sigma_x + d2 h (x) sigma_y, of norm at most 2, and the
        # mass term commutes with D: one value for every mass, at most 2
        for offset in ("half_integer", "integer"):
            values = [
                build_qwz_model(box=9, mass=mass, offset=offset).dirac_commutator()
                for mass in (1.0, -1.0, 3.0, 0.7)
            ]
            assert max(values) <= 2.0 * (1.0 + 1e-12)
            assert values == pytest.approx([values[0]] * len(values), rel=1e-12)

    def test_commutator_norm_matches_dense_reference(self, circle40, qwz9):
        models = [
            circle40,
            qwz9,
            build_qwz_model(box=9, mass=1.0, offset="integer"),
            build_weighted_shift_dirac(40, nu=2),
        ]
        cases = [(m.dirac.toarray(), m.k_rep.toarray(), m.interior_mask) for m in models]
        # a non-Hermitian X takes the singular-value route
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        cases.append((random_hermitian(rng, 30), x, rng.random(30) < 0.7))
        for d, x, mask in cases:
            expected = np.linalg.norm((d @ x - x @ d)[mask][:, mask], 2)
            assert commutator_norm(d, x, mask) == pytest.approx(expected, rel=1e-12)

    def test_commutator_dimension_mismatch(self):
        from speclocaliser import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            commutator_norm(np.diag([1.0, 2.0]), np.eye(3))

    @given(st.integers(2, 10), st.integers(0, 10_000))
    def test_gap_unitary_invariance(self, dim, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        u = _random_unitary(rng, dim)
        rotated = u.conj().T @ h @ u
        rotated = (rotated + rotated.conj().T) / 2.0
        assert spectral_gap(rotated) == pytest.approx(
            spectral_gap(h), rel=1e-10, abs=1e-12
        )


def _small_mask_case(rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    mask = np.zeros(12, dtype=bool)
    mask[rng.choice(12, rows, replace=False)] = True
    return random_hermitian(rng, 12), x, mask


def _model_case(model):
    return model.dirac, model.k_rep, model.interior_mask


# (D, X, interior mask) triples, built on demand: QWZ boxes where the dense
# interior norm still runs, odd circle models (non-Hermitian K), a shift
# model (K = +-I, zero commutator) and masks too small for Lanczos
_COMMUTATOR_CASES = {
    **{
        "qwz%d-%s" % (box, offset): (
            lambda box=box, offset=offset: _model_case(
                build_qwz_model(box=box, mass=1.0, offset=offset)
            )
        )
        for box in (8, 10, 12)
        for offset in ("half_integer", "integer")
    },
    **{
        "circle250-w%d" % w: (
            lambda w=w: _model_case(build_circle_model(250, {0: 0.5, w: 1.0}))
        )
        for w in (1, -1, 2, -2)
    },
    "shift40-nu2": lambda: _model_case(build_weighted_shift_dirac(40, nu=2)),
    **{"mask%d" % rows: (lambda rows=rows: _small_mask_case(rows)) for rows in (1, 2, 3)},
}


class TestLanczosCommutatorNorm:
    """The Lanczos interior norm against the dense norm it replaced."""

    @pytest.mark.parametrize("case", sorted(_COMMUTATOR_CASES))
    def test_matches_dense_norm_and_never_undershoots(self, case):
        d, x, mask = _COMMUTATOR_CASES[case]()
        dd = d.toarray() if hasattr(d, "toarray") else d
        xd = x.toarray() if hasattr(x, "toarray") else x
        expected = float(np.linalg.norm((dd @ xd - xd @ dd)[mask][:, mask], 2))
        got = commutator_norm(d, x, mask)
        assert got == pytest.approx(expected, rel=1e-10, abs=0.0)
        # the kappa_bound cap built on it must never get looser
        assert got >= expected * (1.0 - 1e-13)

    def test_zero_commutator_is_exactly_zero(self, rng):
        shift = build_weighted_shift_dirac(40, nu=2)
        assert commutator_norm(shift.dirac, shift.k_rep, shift.interior_mask) == 0.0
        x = rng.standard_normal((60, 60))
        assert commutator_norm(np.eye(60), x) == 0.0
        assert commutator_norm(np.eye(60), x, np.zeros(60, dtype=bool)) == 0.0

    def test_repeat_calls_are_bit_equal(self):
        model = build_qwz_model(box=10, mass=1.0)
        args = (model.dirac, model.k_rep, model.interior_mask)
        assert commutator_norm(*args) == commutator_norm(*args)

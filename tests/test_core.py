"""Hermitian primitives: the eigenvalue kernel, inertia, window rule, gaps, norms."""

import functools
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import speclocaliser.core as core
import speclocaliser.verify as verify
from speclocaliser import (
    BackendDisagreement,
    BoundaryEigenvalue,
    DimensionMismatch,
    FactorizationDeclined,
    LocaliserParams,
    SingularMatrix,
    ValidationError,
    build_circle_model,
    build_qwz_model,
    build_weighted_shift_dirac,
    commutator_norm,
    inertia,
    line_path,
    oracle_pairing,
    pairing,
    sf_crossings,
)
from speclocaliser.core import DENSE_DIM_LIMIT, gap_counts, hermitian_eigenvalues, window_mask
from conftest import banded_spy, random_hermitian, splu_spy

st_dim = st.integers(1, 12)


def _random_unitary(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _inertia(m, zero_tol=None):
    # the inertia of m, its eigenvalues from the kernel
    return inertia(m, hermitian_eigenvalues(m), zero_tol)


def _gap(m) -> float:
    return float(np.min(np.abs(hermitian_eigenvalues(m))))


class TestKernelContract:
    """hermitian_eigenvalues validates its input, dense or sparse, on every route."""

    def test_accepts_hermitian(self, rng):
        h = random_hermitian(rng, 6)
        assert_allclose(hermitian_eigenvalues(h), np.linalg.eigvalsh(h), atol=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        for a in (m, sp.csr_array(m)):
            with pytest.raises(ValidationError):
                hermitian_eigenvalues(a)
        with pytest.raises(DimensionMismatch):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_csc_input_on_the_dense_route(self, rng):
        # the dense copy of a CSC array is Fortran-ordered
        h = random_hermitian(rng, 6)
        want = np.linalg.eigvalsh(h)
        assert_allclose(hermitian_eigenvalues(sp.csc_array(h)), want, atol=1e-12)

    def test_rejects_empty(self):
        for a in (np.zeros((0, 0)), sp.csr_array((0, 0))):
            with pytest.raises(ValidationError):
                hermitian_eigenvalues(a)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        # a sparse diagonal is on the banded route, a dense one is not
        m = np.diag([1.0, value, 2.0])
        assert core._band_order(sp.csr_array(np.eye(3))) is not None
        for a in (m, sp.csr_array(m)):
            with pytest.raises(ValidationError):
                hermitian_eigenvalues(a)

    def test_rejects_sparse_input_over_the_dense_cap(self):
        # refused on its stored entries: a densified copy would take 1.6 GB.
        # The identity plus couplings from row 0 to every other row is off
        # the banded route, which stores only a band and is not capped
        n = DENSE_DIM_LIMIT + 1
        spokes = np.arange(1, n)
        big = sp.csr_array((np.r_[np.ones(n), 0.1 * np.ones(2 * (n - 1))],
                            (np.r_[np.arange(n), np.zeros(n - 1, int), spokes],
                             np.r_[np.arange(n), spokes, np.zeros(n - 1, int)])),
                           shape=(n, n), dtype=complex)
        assert core._band_order(big) is None
        with mock.patch.object(sp.csr_array, "toarray", side_effect=AssertionError("densified")):
            with pytest.raises(ValidationError, match="exceeds dense limit"):
                hermitian_eigenvalues(big)

    def test_band_past_the_dense_cap_is_diagonalised(self, monkeypatch):
        # the banded route stores a (bandwidth + 1, n) band, never a dense
        # copy: the path graph's adjacency, 2 cos(k pi / (n + 1)), past a cap
        n = 101
        monkeypatch.setattr(core, "DENSE_DIM_LIMIT", n - 1)
        path = sp.diags_array([np.ones(n - 1), np.ones(n - 1)], offsets=[-1, 1],
                              format="csr").astype(complex)
        calls = banded_spy(monkeypatch)
        with mock.patch.object(sp.csr_array, "toarray", side_effect=AssertionError("densified")):
            got = hermitian_eigenvalues(path)
        assert calls == [(2, n)]
        expected = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        assert_allclose(got, expected, rtol=0, atol=1e-12)


class TestInertia:
    def test_identity(self):
        got = _inertia(np.eye(5), zero_tol=1e-10)
        assert (got.n_pos, got.n_neg, got.n_zero) == (5, 0, 0)

    def test_diagonal(self):
        got = _inertia(np.diag([1.0, -2.0, 0.0]), zero_tol=1e-10)
        assert (got.n_pos, got.n_neg, got.n_zero) == (1, 1, 1)

    def test_truncated_circle_localiser_signature(self, circle40):
        # window signature reads off twice the pairing
        got = _inertia(circle40.window(30.5).localiser(0.05))
        assert got.n_zero == 0
        assert got.signature == 2 * oracle_pairing(circle40)

    def test_backend_disagreement_raises(self, monkeypatch, rng):
        h = random_hermitian(rng, 5)
        true_counts = _inertia(h)

        def bad_backend(counter, zero_tol, data=None):
            return (0, 0, counter.dim)

        monkeypatch.setattr(core._Counter, "counts", bad_backend)
        with pytest.raises(BackendDisagreement) as exc:
            _inertia(h)
        assert exc.value.eig_counts == (
            true_counts.n_pos, true_counts.n_neg, true_counts.n_zero,
        )
        assert exc.value.factor_counts == (0, 0, 5)

    @given(st.integers(2, 16), st.integers(0, 10_000))
    def test_backends_agree_and_counts_sum(self, dim, seed):
        h = random_hermitian(np.random.default_rng(seed), dim)
        got = _inertia(h)
        assert got.n_pos + got.n_neg + got.n_zero == dim

    @pytest.mark.parametrize("zero_tol", [np.nan, np.inf, -1e-3])
    def test_bad_zero_tol_rejected(self, zero_tol):
        # nan used to reach SciPy's finiteness check, inf to count every eigenvalue zero
        with pytest.raises(ValidationError):
            _inertia(np.diag([1.0, -2.0]), zero_tol=zero_tol)

    def test_eigenvalue_count_must_match(self):
        with pytest.raises(DimensionMismatch):
            inertia(np.eye(3), np.ones(2))


# tier-1 fixture models with the kappas and rhos their window tests use
_FIXTURE_WINDOWS = [
    ("circle40", (0.02, 0.05), (20.5, 30.5)),
    ("shift40_nu2", (0.1, 0.2), (8.5, 10.5)),
    ("qwz9", (0.5, 1.0), (4.5, 5.5)),
    ("qwz9_integer", (0.5, 1.0), (4.5, 5.5)),
]


def _eig_counts(w: np.ndarray, tol: float) -> tuple[int, int, int]:
    return int(np.sum(w > tol)), int(np.sum(w < -tol)), int(np.sum(np.abs(w) <= tol))


def _counts(a, zero_tol, ordering=core.ORDERINGS[0]):
    return core._Counter(a, ordering).counts(zero_tol)


class TestSylvester:
    """Sparse LU counts, gap counts and certified gaps, each checked against eigvalsh."""

    def test_off_diagonal_pivot_declines(self):
        # SuperLU pivots off the zero diagonal in either ordering; the
        # decline is raised, not counted
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        for ordering in core.ORDERINGS:
            assert _counts(sp.csc_array(m), 0.0, ordering) is None
        with pytest.raises(FactorizationDeclined, match="declined in both orderings"):
            _inertia(m, zero_tol=0.0)
        got = _inertia(m, zero_tol=1e-10)  # shifted off zero, the diagonal pivots
        assert (got.n_pos, got.n_neg, got.n_zero) == (1, 1, 0)

    def test_singular_shift_declines(self):
        # the shift +zero_tol is exactly the eigenvalue 0.5: a singular factor
        m = np.diag([2.0, -1.0, 0.5])
        for ordering in core.ORDERINGS:
            assert _counts(sp.csc_array(m), 0.5, ordering) is None
        with pytest.raises(FactorizationDeclined):
            _inertia(m, zero_tol=0.5)
        got = _inertia(m, zero_tol=0.25)
        assert (got.n_pos, got.n_neg, got.n_zero) == (2, 1, 0)

    def test_first_ordering_decline_retries_in_the_second(self, monkeypatch):
        m = np.diag([2.0, -1.0, 0.5])
        counts, orderings = core._Counter.counts, []

        def first_declines(counter, zero_tol, data=None):
            orderings.append(counter.ordering)
            if counter.ordering == core.ORDERINGS[0]:
                return None
            return counts(counter, zero_tol, data)

        monkeypatch.setattr(core._Counter, "counts", first_declines)
        got = _inertia(m, zero_tol=0.25)
        assert (got.n_pos, got.n_neg, got.n_zero) == (2, 1, 0)
        assert orderings == list(core.ORDERINGS)

    def test_non_minimal_eigenpair_is_rejected(self, monkeypatch):
        # an eigenvalue Lanczos misses lies inside its estimate: the
        # confirming counts see it, and the kernel route measures the gap
        import scipy.sparse.linalg as spla

        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        m = q @ np.diag([3.0, -2.0, 0.5, 4.0]) @ q.conj().T
        a = sp.csr_array((m + m.conj().T) / 2.0)  # dense pattern: off the banded route
        assert core._lanczos_gap(a)[1] == (3, 1, 0)
        gap, got, route = core.certified_inertia(a, 1e-8)
        assert route == core.SPARSE_GAP_ROUTE and 0.5 - 1e-9 <= gap <= 0.5

        def far_pair(m, k, **kwargs):
            # an exact eigenpair, but not the one nearest 0
            return np.array([3.0]), q[:, :1]

        monkeypatch.setattr(spla, "eigsh", far_pair)
        assert core._lanczos_gap(a)[0] > 2.9
        gap, got, route = core.certified_inertia(a, 1e-8)
        assert route == core.DENSE_EIG_ROUTE
        assert abs(gap - 0.5) <= 1e-12
        assert (got.n_pos, got.n_neg, got.n_zero) == (3, 1, 0)

    def test_residual_pads_an_inexact_eigenpair(self, monkeypatch):
        import scipy.sparse.linalg as spla

        a = sp.diags_array([3.0, -2.0, 0.5, 4.0]).astype(complex)
        y = np.array([[0.01], [0.0], [1.0], [0.0]], dtype=complex)
        y /= np.linalg.norm(y)
        residual = np.linalg.norm(a @ y[:, 0] - 0.5 * y[:, 0])  # about 0.025
        monkeypatch.setattr(spla, "eigsh", lambda m, k, **kwargs: (np.array([0.5]), y))
        gap, counts = core._lanczos_gap(a)
        assert counts == (3, 1, 0)
        assert 0.5 - residual - 1e-12 <= gap <= 0.5 - residual

    @pytest.mark.parametrize("name,kappas,rhos", _FIXTURE_WINDOWS)
    def test_fixture_blocks_match_eigvalsh(self, request, name, kappas, rhos):
        if name == "shift40_nu2":
            model = build_weighted_shift_dirac(40, nu=2)
        elif name == "qwz9_integer":
            model = build_qwz_model(9, 1.0, offset="integer")
        else:
            model = request.getfixturevalue(name)
        outer = model.containment_window()
        for kappa in kappas:
            blocks = [outer.localiser(kappa)]
            for rho in rhos:
                blocks += [model.window(rho).localiser(kappa), outer.localiser(kappa, beyond=rho)]
            for block in blocks:
                w = np.linalg.eigvalsh(block.toarray())
                tol = core.ZERO_TOL_FACTOR * float(np.max(np.abs(w)))
                for ordering in core.ORDERINGS:
                    assert _counts(block, tol, ordering) == _eig_counts(w, tol)
                dense = float(np.min(np.abs(w)))
                # a bound the gap attains is decided within the 1e-9 slack,
                # one just past it is not
                for bound in (dense, dense + 2e-9, 0.5 * dense, 2.0 * dense):
                    got = gap_counts(block, bound)
                    assert got == _eig_counts(w, bound - 1e-9)
                    assert (got[2] == 0) == (dense >= bound - 1e-9)
                gap, counts = core._lanczos_gap(block)
                assert counts == _eig_counts(w, gap)
                assert dense * (1.0 - 1e-12) <= gap <= dense

    @given(st.integers(2, 40), st.floats(0.05, 0.5), st.booleans(), st.integers(0, 10_000))
    def test_random_sparse_hermitian(self, dim, density, add_diagonal, seed):
        # without a full diagonal the LU at shift 0 mostly declines
        rng = np.random.default_rng(seed)
        m = np.where(rng.random((dim, dim)) < density, random_hermitian(rng, dim), 0.0)
        m = (m + m.conj().T) / 2.0
        if add_diagonal:
            m += np.diag(rng.standard_normal(dim))
        a = sp.csr_array(m)
        w = np.linalg.eigvalsh(m)
        norm = float(np.max(np.abs(w)))
        tol = core.ZERO_TOL_FACTOR * norm
        counts = _counts(a, tol)
        assert counts is None or counts == _eig_counts(w, tol)
        # the shifts are written into a copy, not into a CSC input
        c = sp.csc_array(m)
        assert _counts(c, tol) == counts
        assert np.array_equal(c.toarray(), m)
        dense = float(np.min(np.abs(w)))
        for bound in (0.5 * dense, 2.0 * dense):
            try:
                got = gap_counts(a, bound)
            except FactorizationDeclined:
                continue
            assert got == _eig_counts(w, max(bound - 1e-9, 0.0))
        lanczos = core._lanczos_gap(a)
        if lanczos is not None:
            assert dense - 1e-10 * max(norm, 1.0) <= lanczos[0] <= dense

    def test_later_thresholds_factor_the_permuted_copy(self, qwz9, monkeypatch):
        # one ordering per counter: the first LU finds it, the later ones
        # factor the copy permuted into it, in NATURAL order
        block = qwz9.window(5.5).localiser(0.75)
        w = np.linalg.eigvalsh(block.toarray())
        calls = splu_spy(monkeypatch)
        for ordering in core.ORDERINGS:
            counter = core._Counter(block, ordering)
            for tol in (1e-3, 0.1, 0.3):
                assert counter.counts(tol) == _eig_counts(w, tol)
            assert [spec for _, spec in calls] == [ordering] + ["NATURAL"] * 5
            calls.clear()


# odd circle windows (windings +-1, +-2, 3; integer and offset modes) and
# even shift windows (nu 1-3, both signs of K), with a kappa and two radii
_BANDED_WINDOWS = {
    **{
        "circle60-w%d-offset%g" % (w, offset): (
            lambda w=w, offset=offset: build_circle_model(60, {0: 0.5, w: 1.0}, offset=offset),
            0.05, (20.5, 30.5),
        )
        for w in (-2, -1, 1, 2, 3)
        for offset in (0.0, 0.25)
    },
    **{
        "shift40-nu%d-sign%+d" % (nu, sign): (
            lambda nu=nu, sign=sign: build_weighted_shift_dirac(40, nu=nu, sign=sign),
            0.1, (8.5, 10.5),
        )
        for nu in (1, 2, 3)
        for sign in (1, -1)
    },
}


# every circle and shift window that verify --profile full pairs, by model:
# criterion 1 (circle 200, strict), 2 (circle 60), 3 (shift 40) and 7's
# grown boxes (circle 90, shift 60)
_VERIFY_BANDED = {
    "circle200-strict": (lambda: build_circle_model(200, {0: 0.5, 1: 1.0}), [(1.0 / 144.0, 145.5)]),
    **{
        "circle60-w%d" % w: (
            lambda w=w: build_circle_model(60, {0: 0.5, w: 1.0}),
            [(kappa, rho) for kappa in verify._CIRCLE_KAPPAS for rho in verify._CIRCLE_RHOS],
        )
        for w in verify._CIRCLE_WINDINGS
    },
    **{
        "circle90-w%d" % w: (lambda w=w: build_circle_model(90, {0: 0.5, w: 1.0}), [(0.05, 30.5)])
        for w in verify._CIRCLE_WINDINGS
    },
    **{
        "shift%d-nu%d-sign%+d" % (dim, nu, sign): (
            lambda dim=dim, nu=nu, sign=sign: build_weighted_shift_dirac(dim, nu=nu, sign=sign),
            [(0.1, 10.5)],
        )
        for dim in (40, 60)
        for nu in verify._SHIFT_NUS
        for sign in (1, -1)
    },
}


def _band_route_matches_eigvalsh(monkeypatch, a, zero_tol):
    # certified_inertia's banded route against the full spectrum: the gap
    # within _rounding(a), the inertia exactly, and no full-spectrum solve
    kernel, selects = core._eigensolve, []

    def spied(m, order, select=None):
        selects.append(select)
        return kernel(m, order, select)

    monkeypatch.setattr(core, "_eigensolve", spied)
    gap, got, route = core.certified_inertia(a, zero_tol)
    w = np.linalg.eigvalsh(a.toarray())
    assert route.startswith("banded eigensolve")
    assert len(selects) == 1 and selects[0] is not None
    assert abs(gap - float(np.min(np.abs(w)))) <= core._rounding(sp.csr_array(a))
    assert (got.n_pos, got.n_neg, got.n_zero) == core.eigenvalue_counts(w, zero_tol)


class TestEigenvalueKernel:
    """The banded eigenvalue route against np.linalg.eigvalsh."""

    @pytest.mark.parametrize("case", sorted(_BANDED_WINDOWS))
    def test_banded_windows_match_eigvalsh(self, case, monkeypatch):
        build, kappa, rhos = _BANDED_WINDOWS[case]
        model = build()
        calls = banded_spy(monkeypatch)
        for rho in rhos:
            loc = model.window(rho).localiser(kappa)
            dense = np.linalg.eigvalsh(loc.toarray())
            got = hermitian_eigenvalues(loc)
            assert calls.pop() == (2, loc.shape[0])  # zhbevd, bandwidth 1
            norm = float(np.max(np.abs(dense)))
            assert np.max(np.abs(got - dense)) <= 1e-12 * norm
            assert inertia(loc, got) == inertia(loc, dense)

    @given(st.integers(2, 64), st.integers(0, 3), st.integers(0, 10_000))
    def test_permuted_band_matches_eigvalsh(self, dim, width, seed):
        # a random Hermitian band under a random symmetric permutation; the
        # power is lowered so that every such pattern takes the banded route
        rng = np.random.default_rng(seed)
        offsets = np.subtract.outer(np.arange(dim), np.arange(dim))
        keep = (np.abs(offsets) <= width) & (rng.random((dim, dim)) < 0.8)
        m = np.where(keep | keep.T, random_hermitian(rng, dim), 0.0)
        perm = rng.permutation(dim)
        m = m[perm][:, perm]
        dense = np.linalg.eigvalsh(m)
        with mock.patch.object(core, "BAND_POWER", 1), \
                mock.patch.object(sla, "eigvals_banded", wraps=sla.eigvals_banded) as zhbevd:
            got = core.hermitian_eigenvalues(sp.csr_array(m))
        assert zhbevd.call_count == 1
        assert np.max(np.abs(got - dense)) <= 1e-12 * max(float(np.max(np.abs(dense))), 1.0)

    def test_stored_zeros_outside_the_band_are_ignored(self, monkeypatch):
        # a tridiagonal matrix that also stores zeros at (0, 39) and (39, 0):
        # the band order and the band both read the nonzero pattern, so the
        # corner zeros neither widen the band nor fall outside it
        n = 40
        tri = sp.diags_array([np.ones(n - 1), np.arange(n, dtype=float), np.ones(n - 1)],
                             offsets=[-1, 0, 1]).tocoo()
        m = sp.csr_array((np.concatenate([tri.data, [0.0, 0.0]]),
                          (np.concatenate([tri.row, [0, n - 1]]),
                           np.concatenate([tri.col, [n - 1, 0]]))), shape=(n, n))
        assert m.nnz == tri.nnz + 2
        assert core._band_order(m)[1] == core._band_order(sp.csr_array(tri))[1] == 1
        calls = banded_spy(monkeypatch)
        got = hermitian_eigenvalues(m)
        assert calls == [(2, n)]
        assert_allclose(got, np.linalg.eigvalsh(m.toarray()), rtol=0, atol=1e-12)

    def test_qwz_window_takes_the_dense_route(self, monkeypatch):
        loc = build_qwz_model(box=10, mass=1.0).window(5.5).localiser(1.0)
        assert loc.shape[0] == 352 and core._band_order(loc) is None
        calls = banded_spy(monkeypatch)
        got = hermitian_eigenvalues(loc)
        assert calls == []
        assert_allclose(got, np.linalg.eigvalsh(loc.toarray()), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(_VERIFY_BANDED))
    def test_band_gap_matches_eigvalsh_on_the_verify_grid(self, monkeypatch, case):
        build, pairs = _VERIFY_BANDED[case]
        model = build()
        for kappa, rho in pairs:
            window = model.window(rho)
            zero_tol = core.ZERO_TOL_FACTOR * (kappa * np.abs(window.eigs).max() + model.k_norm())
            _band_route_matches_eigvalsh(monkeypatch, window.localiser(kappa), zero_tol)

    @given(st.integers(1, 64), st.integers(1, 3), st.sampled_from([0, 1, -1]),
           st.integers(0, 10_000))
    def test_random_band_gap_matches_eigvalsh(self, dim, width, definite, seed):
        # a random Hermitian band under a random symmetric permutation,
        # shifted positive or negative definite (no eigenvalue below 0, or
        # none above it) when definite is +1 or -1; the power is lowered so
        # that every such pattern takes the banded route
        rng = np.random.default_rng(seed)
        offsets = np.subtract.outer(np.arange(dim), np.arange(dim))
        m = np.where(np.abs(offsets) <= width, random_hermitian(rng, dim), 0.0)
        m += definite * (np.abs(m).sum(axis=1).max() + 1.0) * np.eye(dim)
        perm = rng.permutation(dim)
        a = sp.csr_array(m[perm][:, perm])
        zero_tol = core.ZERO_TOL_FACTOR * float(np.abs(m).sum(axis=1).max())
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(core, "BAND_POWER", 1)
            _band_route_matches_eigvalsh(monkeypatch, a, zero_tol)

    def test_flipped_kernel_eigenvalue_is_caught(self, monkeypatch, circle40):
        # a wrong banded eigenvalue must pass neither the inertia cross-check
        # nor the bracket of the pairing's two selected eigenvalues: the
        # least positive one, of the pair that brackets 0, changes sign
        kernel = core._eigensolve

        def flipped(a, order, select=None):
            w = kernel(a, order, select).copy()
            near = int(np.argmin(np.where(w > 0, w, np.inf)))
            w[near] = -w[near]
            return np.sort(w)

        monkeypatch.setattr(core, "_eigensolve", flipped)
        loc = circle40.window(30.5).localiser(0.05)
        with pytest.raises(BackendDisagreement):
            inertia(loc, hermitian_eigenvalues(loc))
        with pytest.raises(BackendDisagreement):
            pairing(circle40, LocaliserParams(0.05, 30.5))


class TestSignature:
    """Inertia.signature, n_pos - n_neg of the cross-checked counts."""

    def test_off_diagonal_pair(self):
        assert _inertia(np.array([[0.0, 1.0], [1.0, 0.0]])).signature == 0

    def test_negative_identity(self):
        assert _inertia(-np.eye(3)).signature == -3

    def test_shift_dirac_minus_grading(self):
        # K = -1 makes the window localiser kappa*D - Gamma truncated: its
        # signature exposes minus the D+ index
        model = build_weighted_shift_dirac(40, nu=1, sign=-1)
        assert _inertia(model.window(10.5).localiser(0.1)).signature == 1

    def test_singular_raises(self):
        # a signature is read off invertible matrices only: the walk refuses a singular end
        assert _inertia(np.diag([1.0, 0.0])).n_zero == 1
        with pytest.raises(SingularMatrix):
            sf_crossings(line_path(np.eye(2), np.diag([1.0, 0.0])))

    @given(st.integers(1, 10), st.integers(0, 10_000))
    def test_antisymmetry_under_negation(self, dim, seed):
        h = random_hermitian(np.random.default_rng(seed), dim)
        counts = _inertia(h)
        if counts.n_zero:
            return
        assert _inertia(-h).signature == -counts.signature


class TestIntervalProjection:
    """The window rule: the range of the spectral projection onto [-rho, rho]."""

    def test_diagonal(self):
        mask = window_mask(np.array([-2.0, 0.0, 3.0]), 1.0)
        assert mask.tolist() == [False, True, False]

    def test_circle_dirac_rank(self, circle40):
        assert circle40.window(30.5).dim == 61

    def test_qwz_dirac_rank_counts_sites(self, qwz9):
        # every site inside the window keeps its 4 internal states
        x = np.arange(-9, 10)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        sites = int(np.sum((x1 - 0.5) ** 2 + (x2 - 0.5) ** 2 <= 64.0))
        assert qwz9.window(8.0).dim == 4 * sites

    def test_boundary_eigenvalue(self):
        with pytest.raises(BoundaryEigenvalue):
            window_mask(np.array([-2.0, 1.0]), 1.0)

    @given(st.integers(2, 12), st.integers(0, 10_000), st.floats(0.1, 3.0))
    def test_complement_ranks_sum_to_dim(self, dim, seed, rho):
        w = np.linalg.eigvalsh(random_hermitian(np.random.default_rng(seed), dim))
        try:
            inside = int(np.sum(window_mask(w, rho)))
        except BoundaryEigenvalue:
            return
        except ValidationError:  # the empty window
            inside = 0
        outside = int(np.sum(np.abs(w) > rho))
        assert inside + outside == dim


class TestGapsAndNorms:
    def test_gap_diagonal(self):
        assert _gap(np.diag([3.0, -0.5])) == pytest.approx(0.5)

    def test_circle_symbol_gap(self):
        # min over theta of |e^{i theta} + 1/2| = 1/2; the Fourier grid of a
        # finite mode count misses theta = pi by O(1/modes), so the finite
        # matrix sits a hair above the continuum value
        import scipy.linalg as sla

        model = build_circle_model(200, {0: 0.5, 1: 1.0})
        gap = float(sla.svdvals(model.k_rep.toarray())[-1])
        assert gap >= 0.5
        assert gap == pytest.approx(0.5, abs=1e-4)

    def test_qwz_bloch_gap(self):
        from speclocaliser import qwz_bloch_gap

        assert qwz_bloch_gap(1.0) == pytest.approx(1.0, abs=1e-6)

    def test_circle_commutator_interior(self, circle40):
        # measured, not the builder's cached bound
        norm = commutator_norm(circle40.dirac, circle40.k_rep, circle40.interior_mask)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_qwz_commutator_interior_bound(self):
        # the interior [D, K] compresses the operator with Bloch symbol
        # d1 h (x) sigma_x + d2 h (x) sigma_y, of norm at most 2, and the
        # mass term commutes with D: one measured value for every mass, at
        # most 2, the bound the builder caches
        for offset in ("half_integer", "integer"):
            models = [
                build_qwz_model(box=9, mass=mass, offset=offset)
                for mass in (1.0, -1.0, 3.0, 0.7)
            ]
            values = [commutator_norm(*_model_case(m)) for m in models]
            assert {m.dirac_commutator() for m in models} == {(2.0, "Bloch symbol bound")}
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
        assert _gap(rotated) == pytest.approx(_gap(h), rel=1e-10, abs=1e-12)


def _small_mask_case(rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    mask = np.zeros(12, dtype=bool)
    mask[rng.choice(12, rows, replace=False)] = True
    return random_hermitian(rng, 12), x, mask


def _model_case(model):
    return model.dirac, model.k_rep, model.interior_mask


# builder models, built on demand: QWZ boxes where the dense interior norm
# still runs, odd circle models (non-Hermitian K) and a shift model (K = +-I,
# zero commutator)
_BUILDER_CASES = {
    **{
        "qwz%d-%s" % (box, offset): (
            lambda box=box, offset=offset: build_qwz_model(box=box, mass=1.0, offset=offset)
        )
        for box in (8, 10, 12)
        for offset in ("half_integer", "integer")
    },
    **{
        "circle250-w%d" % w: (lambda w=w: build_circle_model(250, {0: 0.5, w: 1.0}))
        for w in (1, -1, 2, -2)
    },
    "shift40-nu2": lambda: build_weighted_shift_dirac(40, nu=2),
}

# (D, X, interior mask) triples of the builder models, and masks too small
# for Lanczos
_COMMUTATOR_CASES = {
    **{name: (lambda build=build: _model_case(build())) for name, build in _BUILDER_CASES.items()},
    **{"mask%d" % rows: (lambda rows=rows: _small_mask_case(rows)) for rows in (1, 2, 3)},
}


@functools.cache
def _dense_commutator_norm(case: str) -> float:
    # the 2-norm of the dense masked commutator, once per case.  For
    # Hermitian D and X (QWZ and shift cases) C is anti-Hermitian, so
    # ||C||_2 = max|eigvalsh(1j C)|, a Hermitian eigensolve that is cheaper
    # than the SVD (QWZ box 12 masks C to 2,116 rows); the circle's G is not
    # Hermitian and keeps the SVD
    d, x, mask = _COMMUTATOR_CASES[case]()
    dd = d.toarray() if hasattr(d, "toarray") else d
    xd = x.toarray() if hasattr(x, "toarray") else x
    c = (dd @ xd - xd @ dd)[mask][:, mask]
    if not (np.array_equal(dd, dd.conj().T) and np.array_equal(xd, xd.conj().T)):
        return float(np.linalg.norm(c, 2))
    assert not np.any(c + c.conj().T)
    return float(np.max(np.abs(np.linalg.eigvalsh(1j * c))))


class TestLanczosCommutatorNorm:
    """The Lanczos interior norm against the dense norm it replaced."""

    @pytest.mark.parametrize("case", sorted(_COMMUTATOR_CASES))
    def test_matches_dense_norm_and_never_undershoots(self, case):
        d, x, mask = _COMMUTATOR_CASES[case]()
        expected = _dense_commutator_norm(case)
        got = commutator_norm(d, x, mask)
        assert got == pytest.approx(expected, rel=1e-10, abs=0.0)
        # the kappa_bound cap built on it must never get looser
        assert got >= expected * (1.0 - 1e-13)

    @pytest.mark.parametrize("case", sorted(_BUILDER_CASES))
    def test_builder_bound_bounds_the_dense_norm(self, case):
        # the closed form each builder caches is an upper bound at every
        # box size, and tight for these symbols (one hop term for circle)
        bound, source = _BUILDER_CASES[case]().dirac_commutator()
        assert source != "interior Lanczos"
        expected = _dense_commutator_norm(case)
        assert expected <= bound * (1.0 + 1e-12)
        assert expected == pytest.approx(bound, rel=1e-3)

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

"""Independent invariant computations the localiser pairings are checked against."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, strategies as st

from speclocaliser import (
    GradedOperator,
    build_circle_model,
    build_qwz_model,
    build_weighted_shift_dirac,
    chern_number_fhs,
    fredholm_index_graded,
    qwz_bloch,
    toeplitz_index,
    winding_number,
)
from speclocaliser.errors import (
    AmbiguousKernel,
    GapClosure,
    NonUnitary,
    SingularSymbol,
)

_symbol_coeffs = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=3,
)


def _convolve(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return out


class TestWinding:
    @pytest.mark.parametrize(
        "symbol,expected",
        [
            ({1: 1.0}, 1),
            ({0: 1.0}, 0),
            ({0: 0.5, 1: 1.0}, 1),
            ({-1: 1.0, 0: 0.25}, -1),
            ({3: 2.0, 0: 0.1}, 3),
        ],
    )
    def test_known_values(self, symbol, expected):
        assert winding_number(symbol) == expected

    def test_callable_symbol(self):
        assert winding_number(lambda t: np.exp(2j * t) + 0.5) == 2

    def test_singular_symbol_rejected(self):
        with pytest.raises(SingularSymbol):
            winding_number({1: 1.0, 0: -1.0})

    def test_zero_between_grid_samples_rejected(self):
        # 1 + 2 cos(theta) vanishes at theta = 2 pi/3, off the 4096-point
        # grid: the grid minimum 8.9e-4 is below the Lipschitz margin 1.5e-3
        with pytest.raises(SingularSymbol):
            winding_number({0: 1, -1: 1, 1: 1})

    def test_default_grid_resolves_high_windings(self):
        assert winding_number({5: 1.0}) == 5
        assert winding_number({-4: 1.0, 0: 0.3}) == -4

    @given(a=_symbol_coeffs, b=_symbol_coeffs)
    @example(a={0: 1, -1: 1, 1: 1}, b={0: 1, 1: 0.5})
    def test_multiplicativity(self, a, b):
        try:
            wa, wb = winding_number(a), winding_number(b)
            wab = winding_number(_convolve(a, b))
        except SingularSymbol:
            return  # random coefficients may close the loop through 0
        assert wab == wa + wb


class TestBandInvariant:
    def test_phase_diagram_samples(self):
        assert chern_number_fhs(qwz_bloch(1.0)) == 1
        assert chern_number_fhs(qwz_bloch(-1.0)) == -1
        assert chern_number_fhs(qwz_bloch(3.0)) == 0
        assert chern_number_fhs(qwz_bloch(-3.0)) == 0

    def test_flat_band_reference(self):
        # sigma_z Bloch function: a constant filled band has no curvature
        sz = np.diag([1.0, -1.0])
        assert chern_number_fhs(lambda k1, k2: sz) == 0

    def test_closed_gap_rejected(self):
        with pytest.raises(GapClosure):
            chern_number_fhs(qwz_bloch(2.0))


class TestBlockIndex:
    def test_shift_index_counts_copies(self):
        for nu in (1, 2, 3):
            model = build_weighted_shift_dirac(10, nu=nu)
            graded = GradedOperator(model.dirac, model.grading)
            assert fredholm_index_graded(graded) == -nu

    def test_window_restriction_keeps_shift_index(self, shift40):
        graded = GradedOperator(shift40.dirac, shift40.grading)
        assert fredholm_index_graded(graded, rho_window=10.5) == -1

    @pytest.mark.parametrize("offset", ["half_integer", "integer"])
    def test_qwz_position_block_is_index_zero(self, offset):
        model = build_qwz_model(6, 1.0, offset=offset)
        assert fredholm_index_graded(model.graded(), rho_window=5.5) == 0

    @pytest.mark.parametrize(
        "build,rhos",
        [
            (lambda: build_qwz_model(9, 1.0), (3.5, 5.5, 6.5)),
            (lambda: build_qwz_model(9, 1.0, offset="integer"), (3.5, 5.5, 6.5)),
            (lambda: build_weighted_shift_dirac(40, nu=2), (0.5, 8.5, 10.5)),
        ],
    )
    def test_windowed_index_matches_dense_svd(self, build, rhos):
        # reference: dense plus block, dense eigenbases of both sector Grams,
        # window |D| <= rho, kernel counts from a dense SVD
        model = build()
        d = model.dirac.toarray()
        plus, minus = model.grading == 1, model.grading == -1
        a = d[np.ix_(minus, plus)]
        lam_p, v_p = np.linalg.eigh(a.conj().T @ a)
        lam_m, v_m = np.linalg.eigh(a @ a.conj().T)
        for rho in rhos:
            keep_p = np.sqrt(np.clip(lam_p, 0.0, None)) <= rho
            keep_m = np.sqrt(np.clip(lam_m, 0.0, None)) <= rho
            s = sla.svdvals(v_m[:, keep_m].conj().T @ a @ v_p[:, keep_p])
            rank = int(np.sum(s > 1e-6 * max(s[0] if s.size else 1.0, 1.0)))
            expected = (int(keep_p.sum()) - rank) - (int(keep_m.sum()) - rank)
            assert fredholm_index_graded(model.graded(), rho_window=rho) == expected

    def test_direct_sum_additivity(self):
        s1 = build_weighted_shift_dirac(8, nu=1)
        s2 = build_weighted_shift_dirac(8, nu=2)
        combined = GradedOperator(
            sla.block_diag(s1.dirac.toarray(), s2.dirac.toarray()),
            np.concatenate([s1.grading, s2.grading]),
        )
        assert fredholm_index_graded(combined) == -3

    def test_ambiguous_singular_value_rejected(self):
        # a singular value planted exactly at the tolerance decade
        a = np.diag([1.0, 1e-6])
        dirac = np.block(
            [[np.zeros((2, 2)), a.conj().T], [a, np.zeros((2, 2))]]
        )
        graded = GradedOperator(dirac, np.array([1, 1, -1, -1]))
        with pytest.raises(AmbiguousKernel):
            fredholm_index_graded(graded)


class TestCompressionIndex:
    def setup_method(self):
        self.model = build_circle_model(40, {0: 0.5, 1: 1.0}, offset=0.25)
        self.shift = np.roll(np.eye(self.model.dim), 1, axis=0).astype(complex)

    def test_identity_compression(self):
        assert toeplitz_index(np.eye(self.model.dim, dtype=complex), self.model.dirac, 20.5) == 0

    def test_translation_and_adjoint(self):
        assert toeplitz_index(self.shift, self.model.dirac, 20.5) == -1
        assert toeplitz_index(self.shift.conj().T, self.model.dirac, 20.5) == 1

    def test_powers_accumulate(self):
        assert toeplitz_index(self.shift @ self.shift, self.model.dirac, 20.5) == -2

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitary):
            toeplitz_index(0.5 * self.shift, self.model.dirac, 20.5)

"""Spectral flow: endpoint counts, crossing counts, suspensions."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from speclocaliser import (
    CHI_CLAMP,
    CHI_SMOOTH,
    ChiPair,
    OperatorPath,
    ValidationError,
    build_circle_model,
    build_qwz_model,
    build_weighted_shift_dirac,
    line_path,
    sf_crossings,
    suspension,
)
from speclocaliser import core, flow as flow_module
from speclocaliser.errors import (
    BackendDisagreement,
    DimensionMismatch,
    RefinementLimit,
    SingularMatrix,
)
from speclocaliser.core import hermitian_eigenvalues
from conftest import banded_spy, splu_spy
from reference import compress, dense_endpoints, dense_localiser, dense_path


def _scalar_path(fn, grid):
    return OperatorPath(evaluate=lambda t: np.array([[fn(t)]], dtype=complex), grid=grid)


class TestEndpoints:
    """SpectralFlowResult.endpoints against half the signature difference of
    the ends, counted from np.linalg.eigvalsh."""

    def test_sign_change_counts_once(self):
        a, b = np.array([[-1.0]]), np.array([[1.0]])
        assert sf_crossings(line_path(a, b)).endpoints == dense_endpoints(a, b) == 1

    def test_equal_endpoints_flow_zero(self, rng):
        h = rng.normal(size=(6, 6))
        h = h + h.T + 8 * np.eye(6)
        assert sf_crossings(line_path(h, h)).endpoints == dense_endpoints(h, h) == 0

    def test_singular_endpoint_rejected(self):
        with pytest.raises(SingularMatrix):
            sf_crossings(line_path(np.array([[1.0]]), np.array([[0.0]])))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            line_path(np.eye(2), np.eye(3))
        jump = OperatorPath(evaluate=lambda t: np.eye(2 if t < 1 else 3), grid=[0.0, 1.0])
        with pytest.raises(DimensionMismatch):
            sf_crossings(jump)


class TestCrossings:
    def test_single_crossing(self):
        path = _scalar_path(lambda t: t, np.linspace(-1, 1, 11))
        res = sf_crossings(path)
        assert res.value == 1
        assert len(res.crossings) == 1

    def test_opposite_crossings_cancel(self):
        path = OperatorPath(
            evaluate=lambda t: np.diag([t, -t]).astype(complex),
            grid=np.linspace(-1, 1, 11),
        )
        assert sf_crossings(path).value == 0

    def test_reversal_negates_flow(self):
        fwd = _scalar_path(lambda t: t, np.linspace(-1, 1, 9))
        rev = _scalar_path(lambda t: -t, np.linspace(-1, 1, 9))
        assert sf_crossings(fwd).value == -sf_crossings(rev).value

    def test_concatenation_adds(self, rng):
        a = rng.normal(size=(4, 4))
        a = a + a.T + 5 * np.eye(4)
        b = -a
        first = sf_crossings(line_path(a, 0.3 * a + 0.7 * b, num=17)).value
        second = sf_crossings(line_path(0.3 * a + 0.7 * b, b, num=17)).value
        total = sf_crossings(line_path(a, b, num=33)).value
        assert first + second == total

    def test_refinement_limit_on_hopeless_tolerance(self):
        # |t|^(2^30) sits below the default tolerance everywhere but within
        # ~1e-8 of t = -1, closer than _MAX_DEPTH bisections of a grid step reach
        path = _scalar_path(lambda t: abs(t) ** (2**30), np.linspace(-1, 1, 11))
        with pytest.raises(RefinementLimit):
            sf_crossings(path)

    def test_discontinuous_evaluator_rejected(self):
        path = _scalar_path(
            lambda t: t + (200.0 if t > 0.55 else 0.0), np.linspace(0, 1, 21)
        )
        with pytest.raises(ValidationError):
            sf_crossings(path)

    def test_singular_start_rejected(self):
        path = _scalar_path(lambda t: t, np.linspace(0.0, 1.0, 5))
        with pytest.raises(SingularMatrix):
            sf_crossings(path)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_crossings_equal_endpoint_count_on_lines(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        a = a + a.T + (2 + n) * np.eye(n)
        b = rng.normal(size=(n, n))
        b = b + b.T - (2 + n) * np.eye(n)
        flow = sf_crossings(line_path(a, b, num=21))
        assert flow.value == flow.endpoints == dense_endpoints(a, b)


class TestSuspensions:
    def test_even_endpoints_are_the_advertised_operators(self, qwz9):
        # the window compressions of kappa D - Gamma, kappa D and the localiser
        kappa, rho = 1.0, 6.5
        susp = suspension(qwz9, kappa, rho, num=9)
        cols = qwz9.window(rho).index
        start = compress(dense_localiser(qwz9, kappa, -np.eye(qwz9.dim)), qwz9, cols)
        assert sp.issparse(susp.sample(-1.0))  # sparse on the dense eigenvalue route too
        assert np.allclose(susp.sample(-1.0).toarray(), start, atol=1e-13)
        middle = compress(kappa * qwz9.dirac.toarray(), qwz9, cols)
        assert np.allclose(susp.sample(0.0).toarray(), middle, atol=1e-13)
        end = compress(dense_localiser(qwz9, kappa), qwz9, cols)
        assert np.allclose(susp.sample(1.0).toarray(), end, atol=1e-13)

    def test_odd_endpoints_are_the_advertised_operators(self, circle40):
        # circle windows take the banded route, so their samples are sparse
        kappa, rho = 0.05, 30.5
        susp = suspension(circle40, kappa, rho, num=9)
        assert sp.issparse(susp.sample(-1.0))
        cols = circle40.window(rho).index
        d = cols.size
        start = susp.sample(-1.0).toarray()
        assert np.allclose(start[:d, d:], np.eye(d), atol=1e-13)
        trivial = dense_localiser(circle40, kappa, np.eye(circle40.dim))
        assert np.allclose(start, compress(trivial, circle40, cols), atol=1e-13)
        end = compress(dense_localiser(circle40, kappa), circle40, cols)
        assert np.allclose(susp.sample(1.0).toarray(), end, atol=1e-13)

    def test_reference_half_carries_no_flow(self, qwz9):
        # from kappa D - Gamma to kappa D the two terms anticommute, so the
        # spectrum never touches zero
        susp = suspension(qwz9, 1.0, rho=6.5)
        segment = OperatorPath(evaluate=susp.evaluate, grid=np.linspace(-1.0, 0.0, 17))
        assert sf_crossings(segment).value == 0

    def test_windowed_suspension_matches_truncated_dimension(self, circle40):
        susp = suspension(circle40, 0.05, rho=30.5, num=5)
        assert susp.sample(0.5).shape == (2 * 61, 2 * 61)

    def test_walk_trace_shape(self, circle40):
        susp = suspension(circle40, 0.05, rho=10.5, num=7)
        assert sf_crossings(susp).trace is None  # only a traced walk diagonalises the grid
        rows = sf_crossings(susp, trace=True).trace
        assert rows.shape == (7, susp.sample(0.0).shape[0])
        assert np.all(np.diff(rows, axis=1) >= 0)
        # the rows are the walk's own grid eigenvalues, each through the kernel
        for t, row in zip(susp.grid, rows):
            assert np.array_equal(row, hermitian_eigenvalues(susp.sample(t)))


# (model, kappa, rho): the circle40 and shift40 fixture models, and the
# strict circle of acceptance criterion 1
_FLOW_PARITY_CASES = {
    "circle40": (lambda: build_circle_model(40, {0: 0.5, 1: 1.0}), 0.05, 30.5),
    "shift40": (lambda: build_weighted_shift_dirac(40, nu=1, sign=1), 0.1, 10.5),
    "circle200-strict": (lambda: build_circle_model(200, {0: 0.5, 1: 1.0}), 1.0 / 144.0, 145.5),
}


# QWZ suspensions whose t = -1 end, kappa D - Gamma in 2x2 blocks, is the
# only banded sample: box 9 at both offsets, and box 8 as the sf-sweep
# benchmark runs it
_BANDED_END_CASES = {
    **{
        "qwz9-" + offset: (lambda offset=offset: build_qwz_model(9, 1.0, offset), 1.0, 6.5)
        for offset in ("integer", "half_integer")
    },
    "qwz8-r4.5": (lambda: build_qwz_model(8, 1.0), 1.0, 4.5),
}


@pytest.mark.parametrize("chi", [CHI_CLAMP, CHI_SMOOTH], ids=["clamp", "smooth"])
@pytest.mark.parametrize("case", sorted({**_FLOW_PARITY_CASES, **_BANDED_END_CASES}))
def test_banded_flow_matches_dense_samples(case, chi, monkeypatch):
    build, kappa, rho = {**_FLOW_PARITY_CASES, **_BANDED_END_CASES}[case]
    susp = suspension(build(), kappa, rho, chi=chi)
    calls = banded_spy(monkeypatch)
    flow = sf_crossings(susp, trace=True)
    assert calls[0] == (2, flow.trace.shape[1])  # the t = -1 end: zhbevd, bandwidth 1
    dense = sf_crossings(dense_path(susp), trace=True)
    assert (flow.value, flow.endpoints, flow.crossings) == (
        dense.value, dense.endpoints, dense.crossings,
    )
    assert flow.samples == dense.samples
    scale = float(np.max(np.abs(dense.trace)))
    assert np.max(np.abs(flow.trace - dense.trace)) <= 1e-12 * scale


# (model, kappa, rho) of the Sylvester-count parity walks: the sf-sweep
# benchmark's QWZ box 8 across three masses and both of its radii, QWZ box 9
# at both offsets, and the banded-route cases above
_SYLVESTER_PARITY_CASES = {
    **{
        "qwz8-m%g-r%g" % (mass, rho): (lambda mass=mass: build_qwz_model(8, mass), 1.0, rho)
        for mass in (1.0, -1.0, 3.0)
        for rho in (3.5, 4.5)
    },
    **{
        "qwz9-" + offset: (lambda offset=offset: build_qwz_model(9, 1.0, offset), 1.0, 6.5)
        for offset in ("integer", "half_integer")
    },
    **_FLOW_PARITY_CASES,
}


def _eigenvalue_walk(monkeypatch, path):
    # every LU of the walk's counters (the first ordering) declines, so every
    # sample is counted from its eigenvalues
    counts = core._Counter.counts

    def declined(counter, zero_tol, data=None):
        return None if counter.ordering == core.ORDERINGS[0] else counts(counter, zero_tol, data)

    with monkeypatch.context() as patch:
        patch.setattr(core._Counter, "counts", declined)
        return sf_crossings(path)


@pytest.mark.parametrize("chi", [CHI_CLAMP, CHI_SMOOTH], ids=["clamp", "smooth"])
@pytest.mark.parametrize("case", sorted(_SYLVESTER_PARITY_CASES))
def test_sylvester_walk_matches_eigenvalue_walk(case, chi, monkeypatch):
    build, kappa, rho = _SYLVESTER_PARITY_CASES[case]
    susp = suspension(build(), kappa, rho, chi=chi)
    flow, eig = sf_crossings(susp), _eigenvalue_walk(monkeypatch, susp)
    assert (flow.value, flow.endpoints, flow.crossings, flow.samples) == (
        eig.value, eig.endpoints, eig.crossings, eig.samples,
    )
    assert flow.fallbacks == 0
    assert eig.fallbacks == eig.samples  # the two ends are counted too


def test_untraced_walk_diagonalises_no_sample(qwz9, monkeypatch):
    calls = []
    kernel, solve = core.hermitian_eigenvalues, core._eigensolve

    def counted(a):
        calls.append(a.shape[0])
        return kernel(a)

    def solved(a, order):
        calls.append(a.shape[0])
        return solve(a, order)

    susp = suspension(qwz9, 1.0, 6.5)
    monkeypatch.setattr(core, "hermitian_eigenvalues", counted)
    monkeypatch.setattr(flow_module, "hermitian_eigenvalues", counted)
    monkeypatch.setattr(core, "_eigensolve", solved)
    res = sf_crossings(susp)
    assert res.samples == len(susp.grid) and res.trace is None
    assert calls == []
    assert sf_crossings(susp, trace=True).trace.shape[0] == len(susp.grid)
    # each grid sample once through the kernel, and once through its solve
    assert len(calls) == 2 * len(susp.grid)


def test_walk_finds_each_ordering_once(monkeypatch):
    # the sf-sweep walk (QWZ box 8): each of its three layouts is ordered by
    # its first LU and factored in NATURAL order after that, and each end is
    # checked by one COLAMD LU and one NATURAL one; two LUs per sample, with
    # no separate ordering LU per layout
    susp = suspension(build_qwz_model(8, 1.0), 1.0, 4.5)
    calls = splu_spy(monkeypatch)
    res = sf_crossings(susp)
    orderings = [ordering for _, ordering in calls]
    assert res.fallbacks == 0
    assert len(calls) == 2 * res.samples + 4
    assert orderings.count(core.ORDERINGS[0]) == 3
    assert orderings.count(core.ORDERINGS[1]) == 2


def _counter_spy(monkeypatch, alter, ordering=core.ORDERINGS[0]):
    """Patch the counters in one ordering (the first: the walk's pattern
    counters; the second: its end checks) so that call i (from 1, over every
    such counter of the walk) returns alter(i, counts)."""
    counts, calls = core._Counter.counts, []

    def altered(counter, zero_tol, data=None):
        got = counts(counter, zero_tol, data)
        if counter.ordering != ordering:
            return got
        calls.append(None)
        return alter(len(calls), got)

    monkeypatch.setattr(core._Counter, "counts", altered)
    return calls


def _flip(counts):
    # one eigenvalue miscounted as positive
    n_pos, n_neg, n_zero = counts
    return n_pos + 1, n_neg - 1, n_zero


def test_flipped_interior_count_is_caught_by_trace_and_leaves_value(qwz9, monkeypatch):
    # one eigenvalue miscounted as positive at one interior grid sample: the
    # traced walk's eigenvalue rows refuse it; untraced, it adds a spurious
    # crossing pair to the ledger while value still telescopes to the end counts
    susp = suspension(qwz9, 1.0, 6.5, num=17)
    honest = sf_crossings(susp)
    # grid sample 8 of 0..16 is the walk's 9th count, one counter call
    # counting its LUs at -eps (n_pos) and +eps (n_neg)
    calls = _counter_spy(monkeypatch, lambda i, counts: _flip(counts) if i == 9 else counts)
    with pytest.raises(BackendDisagreement):
        sf_crossings(susp, trace=True)
    calls.clear()
    mutant = sf_crossings(susp)
    assert honest.samples == mutant.samples == len(susp.grid)
    assert mutant.crossings != honest.crossings
    assert len(mutant.crossings) == len(honest.crossings) + 2
    assert mutant.value == honest.value


@pytest.mark.parametrize("end", ["start", "end"])
@pytest.mark.parametrize("route", ["pattern", "second"])
def test_flipped_end_count_is_caught(qwz9, monkeypatch, route, end):
    # each end's counts are read twice, by its pattern counter at -/+eps and
    # by LUs in the second ordering at -/+tol; a flip on either route raises
    susp = suspension(qwz9, 1.0, 6.5, num=9)
    sf_crossings(susp)
    if route == "pattern":
        # the walk counts its grid in order: the start first, the end last
        hit = 1 if end == "start" else len(susp.grid)
        _counter_spy(monkeypatch, lambda i, counts: _flip(counts) if i == hit else counts)
    else:
        hit = 1 if end == "start" else 2
        _counter_spy(monkeypatch, lambda i, counts: _flip(counts) if i == hit else counts,
                     core.ORDERINGS[1])
    with pytest.raises(BackendDisagreement):
        sf_crossings(susp)


# (kappa, rho, layouts) of the pattern-counter suspensions on the fixture
# models: one layout each for t < 0, t = 0 and t > 0, except that the shift
# model's -Gamma is diagonal in D's eigenbasis, so its first two coincide
_COUNTER_SUSPENSIONS = {"qwz9": (1.0, 6.5, 3), "circle40": (0.05, 30.5, 3), "shift40": (0.1, 10.5, 2)}


@pytest.mark.parametrize("case", [*_COUNTER_SUSPENSIONS, "line"])
def test_pattern_counter_matches_lu_and_eigenvalue_counts(case, request):
    if case == "line":
        rng = np.random.default_rng(7)
        a, b = (rng.normal(size=(6, 6)) for _ in range(2))
        path, layouts = line_path(a + a.T + 8 * np.eye(6), b + b.T - 8 * np.eye(6), num=9), 1
    else:
        kappa, rho, layouts = _COUNTER_SUSPENSIONS[case]
        path = suspension(request.getfixturevalue(case), kappa, rho, num=9)
    counters = {}
    for t in path.grid:
        m = path.sample(t)
        c = core._on_pattern(m)
        key = c.indptr.tobytes(), c.indices.tobytes()
        if key not in counters:
            counters[key] = core._Counter(c)
        counter = counters[key]
        w = np.linalg.eigvalsh(m.toarray() if sp.issparse(m) else m)
        for eps in 1e-6 * float(np.max(np.abs(w))), 0.37 * float(np.max(np.abs(w))):
            assert counter.counts(eps, c.data) == core._Counter(m).counts(eps) == (
                core.eigenvalue_counts(w, eps)
            )
    assert len(counters) == layouts


def test_zero_pivot_declines_into_a_counted_fallback():
    # the shifted diagonal of the middle sample vanishes exactly, so its LU
    # must leave the diagonal: the counter declines and the walk counts that
    # sample from its eigenvalues
    middle = np.array([[1e-6, 1.0], [1.0, 1e-6]])
    assert core._Counter(middle).counts(1e-6) is None
    path = OperatorPath(
        evaluate=lambda t: np.eye(2) if t != 0.5 else middle, grid=[0.0, 0.5, 1.0]
    )
    res = sf_crossings(path)
    assert res.fallbacks == 1
    assert (res.value, res.endpoints) == (0, 0)
    assert res.crossings == ((0.0, 0.5, -1), (0.5, 1.0, 1))


class TestChiPairs:
    def test_builtin_pairs_validate(self):
        CHI_CLAMP.validate()
        CHI_SMOOTH.validate()

    def test_support_violation_rejected(self):
        bad = ChiPair(plus=lambda t: abs(t), minus=lambda t: max(-t, 0.0))
        with pytest.raises(ValidationError):
            bad.validate()

    def test_range_violation_rejected(self):
        bad = ChiPair(plus=lambda t: 2.0 * max(t, 0.0), minus=lambda t: max(-t, 0.0))
        with pytest.raises(ValidationError):
            bad.validate()

    def test_bad_grid_rejected(self):
        with pytest.raises(ValidationError):
            OperatorPath(evaluate=lambda t: np.eye(2), grid=np.array([1.0, 0.5]))
        with pytest.raises(ValidationError):
            OperatorPath(evaluate=lambda t: np.eye(2), grid=np.array([0.0]))
        with pytest.raises(ValidationError):  # np.diff(...) <= 0 is False at NaN
            OperatorPath(evaluate=lambda t: np.eye(2), grid=np.array([0.0, np.nan, 1.0]))

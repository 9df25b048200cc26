"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one machine-readable pass/fail line.  The session object
shares expensive artifacts (sweeps, suspensions, large lattice builds)
across criteria, so this file is also the cheapest way to run the whole
gate: ``pytest tests/test_acceptance.py -v -s``.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from speclocaliser.verify import CheckFailure, VerifySession, _positive_projection


@pytest.fixture(scope="module")
def session():
    return VerifySession(seed=0, quick=False)


def _run(session, index):
    result = session.criterion(index)
    print(result.line)
    assert result.passed, result.detail
    return result


def test_criterion_01_strict_circle_pairing(session):
    _run(session, 1)


def test_criterion_02_winding_grid(session):
    _run(session, 2)


def test_criterion_03_graded_index_exactness(session):
    _run(session, 3)


def test_criterion_04_lattice_band_grid(session):
    _run(session, 4)


def test_criterion_05_certificate_soundness(session):
    _run(session, 5)


def test_criterion_06_suspension_flow_consistency(session):
    _run(session, 6)


def test_criterion_07_parameter_and_size_stability(session):
    _run(session, 7)


def test_criterion_08_cutoff_independence(session):
    _run(session, 8)


def test_criterion_09_projection_unitary_roundtrip(session):
    _run(session, 9)


def test_criterion_10_suspension_vs_projection_index(session):
    _run(session, 10)


@pytest.mark.parametrize(
    "h,expected",
    [
        (np.diag([2.0, -3.0]), np.diag([1.0, 0.0])),
        (np.array([[0.0, 2.0], [2.0, 0.0]]), 0.5 * np.ones((2, 2))),
    ],
    ids=["diagonal", "off_diagonal"],
)
def test_positive_projection_of_criteria_9_10(h, expected):
    p, rank = _positive_projection(h)
    assert_allclose(p, expected, atol=1e-14)
    assert rank == 1


def test_positive_projection_fails_on_a_kernel():
    with pytest.raises(CheckFailure, match="within zero_tol"):
        _positive_projection(np.diag([1.0, 0.0]))

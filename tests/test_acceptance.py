"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one machine-readable pass/fail line.  The session builds
each pairing grid and the suspension records once and shares them across
criteria, so this file is also the cheapest way to run the whole gate:
``pytest tests/test_acceptance.py -v -s``.  The tests after the criteria
drive the engine's failure path with a patched pairing.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from speclocaliser import verify
from speclocaliser.errors import SingularMatrix
from speclocaliser.verify import CheckFailure, VerifySession, _positive_projection


@pytest.fixture(scope="module")
def session():
    return VerifySession("full")


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


def _patch_pairing(monkeypatch, outcome):
    """Replace the suite's pairing by outcome(model, params); returns the
    list of calls."""
    calls = []

    def patched(model, params, **kwargs):
        calls.append(params)
        return outcome(model, params)

    monkeypatch.setattr(verify, "pairing", patched)
    return calls


def _singular(model, params):
    raise SingularMatrix("window localiser is singular")


def test_failed_check_records_its_message(monkeypatch):
    # every shift pairing reads 0: criterion 3's first check (nu = 1, H = +1)
    # fails, and its message is the criterion's detail
    _patch_pairing(monkeypatch, lambda model, params: SimpleNamespace(
        pairing=0, signature=0, index_correction=0))
    result = VerifySession().criterion(3)
    assert not result.passed
    assert result.detail == "nu=1 H=+1: pairing 0 != -1"


def test_library_error_records_its_type_and_message(monkeypatch):
    _patch_pairing(monkeypatch, _singular)
    result = VerifySession().criterion(3)
    assert not result.passed
    assert result.detail == "SingularMatrix: window localiser is singular"


def test_criterion_runs_once_per_session(monkeypatch):
    calls = _patch_pairing(monkeypatch, _singular)
    session = VerifySession()
    first = session.criterion(3)
    assert calls and session.criterion(3) is first
    assert len(calls) == 1


def test_failing_run_writes_its_report(monkeypatch, tmp_path, capsys):
    _patch_pairing(monkeypatch, _singular)
    assert verify.run_verify("quick", out=tmp_path) == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["profile"] == "quick"
    criteria = report["criteria"]
    assert [c["index"] for c in criteria] == [1, 3, 5, 6, 9, 10]
    assert [c["passed"] for c in criteria] == [False, False, False, False, True, True]
    assert criteria[0]["detail"] == "SingularMatrix: window localiser is singular"
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in lines[:-1]] == ["FAIL"] * 4 + ["PASS"] * 2
    assert lines[-1].startswith("verify[quick]: 2/6 criteria passed in ")

"""Matrix Market manifests: bitwise round trips and damaged files."""

import numpy as np
import pytest
import scipy.io

from speclocaliser import (
    FormatError,
    ModelInstance,
    ValidationError,
    build_circle_model,
    build_qwz_model,
    load_model,
    save_model,
)
from conftest import random_hermitian


def _odd_model(dirac, k_rep):
    return ModelInstance(
        kind="custom",
        parity="odd",
        dirac=dirac,
        grading=None,
        k_rep=k_rep,
        containment_radius=1.0,
        params={},
        interior_mask=np.ones(dirac.shape[0], dtype=bool),
    )


def _round_trip(tmp_path, model):
    save_model(model, tmp_path / "m")
    return load_model(tmp_path / "m")


def test_round_trip_bitwise(tmp_path, rng):
    d = random_hermitian(rng, 9)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    back = _round_trip(tmp_path, _odd_model(d, g))
    assert np.array_equal(back.dirac.toarray(), d)
    assert np.array_equal(back.k_rep.toarray(), g)


def test_round_trip_extreme_entries(tmp_path):
    g = np.array([[1e-300 + 1e300j, np.pi], [np.e, -1.0 / 3.0]])
    back = _round_trip(tmp_path, _odd_model(np.diag([0.5, 1.5]), g))
    assert np.array_equal(back.k_rep.toarray(), g)


def test_array_format_manifest_loads(tmp_path):
    # manifests written before the coordinate format hold dense arrays
    for model in (build_qwz_model(4, 1.0), build_circle_model(20, {0: 0.5, 1: 1.0})):
        save_model(model, tmp_path / "m")
        for name, op in (("dirac", model.dirac), ("k_rep", model.k_rep)):
            path = tmp_path / "m" / (name + ".mtx")
            scipy.io.mmwrite(path, op.toarray(), field="complex", precision=17)
        back = load_model(tmp_path / "m")
        assert np.array_equal(back.dirac.toarray(), model.dirac.toarray())
        assert np.array_equal(back.k_rep.toarray(), model.k_rep.toarray())


def test_non_finite_entry_rejected_on_load(tmp_path):
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    for name in ("dirac", "k_rep"):
        save_model(_odd_model(np.diag([0.5, 1.5]), np.eye(2)), tmp_path / name)
        path = tmp_path / name / (name + ".mtx")
        scipy.io.mmwrite(path, bad, field="complex", precision=17)
        with pytest.raises(ValidationError):
            load_model(tmp_path / name)


def test_read_missing_file(tmp_path):
    save_model(_odd_model(np.diag([0.5, 1.5]), np.eye(2)), tmp_path / "m")
    (tmp_path / "m" / "k_rep.mtx").unlink()
    with pytest.raises(FormatError):
        load_model(tmp_path / "m")


def test_read_garbage(tmp_path):
    save_model(_odd_model(np.diag([0.5, 1.5]), np.eye(2)), tmp_path / "m")
    (tmp_path / "m" / "dirac.mtx").write_text("not a matrix market file\n1 2 3\n")
    with pytest.raises(FormatError):
        load_model(tmp_path / "m")
